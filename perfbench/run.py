#!/usr/bin/env python3
"""The Treaty benchmark: one command per workload.

    python3 perfbench/run.py --workload ycsb-wh-3n --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. It builds perfbench/perf.exe with
dune, then:

  --trace 0  runs the workload's measured windows (one input seed each,
             derived from --seed), replays them while --seconds allows and
             repeats the set-up at least three times. Prints the eight
             end-to-end metrics: the simulated ones pool the windows'
             transactions; host CPU is the sum over slices of each slice's
             minimum across replays; set-up time is the median.
  --trace 1  runs window 0 untraced and traced and prints the per-layer
             metrics, plus trace.overhead_ratio (host CPU of the traced
             window over the untraced one).

Every window checks its own correctness (accounting, read values, leak
freedom after the drain, serializability when traced); the command exits
non-zero when any check fails. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. Workload sizes
and the prediction table are in perfbench/README.md.
"""

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("ycsb-wh-3n", "ycsb-ro-3n", "ycsb-scale-32n")

# (name, unit), in the order BENCHMARK.json lists them.
END_TO_END = [
    ("sim_tps", "1/s"),
    ("sim_lat_p50_ms", "ms"),
    ("sim_lat_tail_ms", "ms"),
    ("commit_ratio", "ratio"),
    ("host_cpu_us_per_txn", "us"),
    ("alloc_kb_per_txn", "KiB"),
    ("peak_heap_mb", "MiB"),
    ("setup_s", "s"),
]

PER_LAYER = (
    [
        ("counter.rote_rounds_per_txn", "count"),
        ("counter.targets_per_increment", "ratio"),
        ("counter.submits_per_round", "ratio"),
        ("counter.failed_waits", "count"),
        ("counter.stab_wait_p50_us", "us"),
        ("counter.stab_wait_p99_us", "us"),
        ("netsim.packets_per_txn", "count"),
        ("netsim.kbytes_per_txn", "KiB"),
        ("rpc.msgs_per_txn", "count"),
        ("rpc.msgs_per_packet", "ratio"),
        ("rpc.timeouts_per_ktxn", "count"),
        ("rpc.wait_p50_us", "us"),
        ("rpc.wait_p99_us", "us"),
        ("sim.events_per_txn", "count"),
        ("sched.wakeups_per_txn", "count"),
        ("sim.host_timer_ns", "ns"),
        ("crypto.host_aead_seal_1k_ns", "ns"),
        ("crypto.host_aead_open_1k_ns", "ns"),
        ("crypto.host_burst_seal_8x100_ns", "ns"),
        ("crypto.host_sha256_1k_ns", "ns"),
        ("crypto.sim_us_per_txn", "us"),
        ("storage.wal_items_per_batch", "ratio"),
        ("storage.clog_items_per_batch", "ratio"),
        ("storage.ssd_writes_per_txn", "count"),
        ("storage.ssd_kbytes_written_per_txn", "KiB"),
        ("storage.block_reads_per_txn", "count"),
        ("storage.cache_hit_ratio", "ratio"),
        ("storage.flushes", "count"),
        ("storage.compactions", "count"),
        ("storage.host_engine_commit_1k_ns", "ns"),
        ("storage.host_engine_get_ns", "ns"),
        ("core.lock_waits_per_txn", "count"),
        ("core.lock_timeouts", "count"),
        ("core.lock_wait_p99_us", "us"),
        ("core.distributed_share", "ratio"),
    ]
    + [
        ("core.abort." + r, "count")
        for r in (
            "lock_timeout",
            "participant_failed",
            "validation_conflict",
            "stabilization_unavailable",
            "client_abort",
            "abandoned",
            "other",
        )
    ]
    + [
        ("tee.transitions_per_txn", "count"),
        ("tee.syscalls_per_txn", "count"),
        ("tee.core_util", "ratio"),
        ("memalloc.recycled_ratio", "ratio"),
    ]
    + [
        ("cp.%s_us" % p, "us")
        for p in (
            "execute",
            "lock_wait",
            "rpc",
            "prepare",
            "stab_wait",
            "rote_round",
            "clog_flush",
            "commit",
            "residual",
        )
    ]
    + [("trace.overhead_ratio", "ratio")]
)

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
DEADLINE_S = 170  # the whole command, build excluded
BUILD_TIMEOUT_S = 700  # a first run may build for up to 900 s in all
PERF = os.path.join("_build", "default", "perfbench", "perf.exe")
# CPU seconds of perf.exe's calibration kernel on a quiet 2-core host of the
# kind the benchmark was built on: host times are reported at that speed.
CALIBRATION_S = 0.022


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    # Only a full source checkout can build the benchmark; refuse early
    # (writing nothing) anywhere else.
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("run from the root of a Treaty source checkout")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/perf.exe"],
            stdout=sys.stderr,
            env=env,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if r.returncode != 0:
        die("build failed")


def run_perf(workload, seed, mode, budget, deadline):
    """One perf.exe process: a set-up, then one JSON line per window and a
    final line for the set-up."""
    left = deadline - time.monotonic()
    if left <= 0:
        die("out of time before perf.exe could start")
    # perf.exe forks a child per window: run it in its own process group so
    # that a timeout stops the children too.
    p = subprocess.Popen(
        [PERF, workload, str(seed), mode, str(budget)],
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = p.communicate(timeout=left)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        for _ in range(100):  # wait for the forked windows to end as well
            try:
                os.killpg(p.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        die("perf.exe overran the %d s deadline" % DEADLINE_S)
    recs = [json.loads(l) for l in out.splitlines() if l.startswith("{")]
    if not recs or recs[-1].get("kind") != "setup":
        die("perf.exe ended without a result (exit %d)" % p.returncode)
    windows, setup = recs[:-1], recs[-1]
    if not windows:
        die("perf.exe ran no window (exit %d): %s" % (p.returncode, setup["errors"]))
    errors = setup["errors"] + [e for w in windows for e in w["errors"]]
    if p.returncode != 0 and not errors:
        errors.append("perf.exe exited %d" % p.returncode)
    return windows, setup, errors


def scaled(slices):
    """Host CPU of each slice, scaled to a host on which the calibration
    kernel that followed it takes CALIBRATION_S."""
    return [cpu * CALIBRATION_S / cal for cpu, cal in slices]


def min_slices(replays):
    """Sum over slices of each slice's minimum across identical replays.

    Every replay does the same simulated work slice by slice, so a slice's
    fastest replay is the one a noisy neighbour disturbed least."""
    if len({len(r) for r in replays}) != 1:
        die("replays were sliced differently")
    return sum(min(col) for col in zip(*replays))


def sim_bytes(rec):
    return json.dumps(rec["sim"], sort_keys=True)


def tail(lat):
    """The highest-rank sample with at least ten samples beyond it, and its
    percentile."""
    n = len(lat)
    if n <= 10:
        return 0.0, 0.0
    return sorted(lat)[n - 11] / 1e6, 100.0 * (n - 10) / n


def pooled(windows):
    """Simulated figures over the windows' pooled transactions. The tail is
    the median over the windows of each window's own tail, which one window
    with a rare stall cannot move."""
    total = lambda k: sum(w["sim"][k] for w in windows)
    lat = sorted(x for w in windows for x in w["sim"]["latencies_ns"])
    n = len(lat)
    tails = sorted(tail(w["sim"]["latencies_ns"]) for w in windows)
    window_s = sum(w["sim"]["window_ms"] for w in windows) / 1e3
    commits, attempts = total("commits"), total("attempts")
    return {
        "windows": len(windows),
        "commits": commits,
        "attempts": attempts,
        "aborts": total("aborts"),
        "failed_connects": total("failed_connects"),
        "samples": [len(w["sim"]["latencies_ns"]) for w in windows],
        "sim_tps": commits / window_s,
        "sim_lat_p50_ms": lat[(n - 1) // 2] / 1e6 if n else 0.0,
        "sim_lat_mean_ms": sum(lat) / n / 1e6 if n else 0.0,
        "sim_lat_tail_ms": tails[(len(tails) - 1) // 2][0],
        "tail_percentile": tails[(len(tails) - 1) // 2][1],
        "commit_ratio": commits / attempts if attempts else 0.0,
        "abort_ratio": (attempts - commits) / attempts if attempts else 0.0,
    }


def describe(args, w0, p):
    print(
        "workload %s: seed %d, sim seed %d; %d window(s) of %d sim-ms, one input seed each"
        % (args.workload, args.seed, w0["sim_seed"], p["windows"], w0["sim"]["window_ms"])
    )
    print(
        "  abort_ratio %.6f (%d aborts + %d failed connects of %d attempts; %d commits)"
        % (p["abort_ratio"], p["aborts"], p["failed_connects"], p["attempts"], p["commits"])
    )
    print(
        "  sim_lat_tail_ms is the median window's p%.3f, with 10 samples beyond it;"
        " samples per window: %s"
        % (p["tail_percentile"], ", ".join(str(n) for n in p["samples"]))
    )


def untraced(args, deadline):
    windows, setup, errors = run_perf(args.workload, args.seed, "run", args.seconds, deadline)
    by_seed = {}
    for w in windows:
        by_seed.setdefault(w["sub_seed"], []).append(w)
    for replays in by_seed.values():
        if len({sim_bytes(w) for w in replays}) != 1:
            errors.append("simulated results differ between same-seed replays")
    first = [replays[0] for _, replays in sorted(by_seed.items())]
    p = pooled(first)
    cpu_s = sum(
        min_slices([scaled(w["host"]["window_slices_s"]) for w in replays])
        for replays in by_seed.values()
    )
    raw_cpu_s = sum(
        min_slices([[cpu for cpu, _ in w["host"]["window_slices_s"]] for w in replays])
        for replays in by_seed.values()
    )
    setups = [sum(scaled(rep)) for rep in setup["setup_slices_s"]]
    raw_setups = [sum(cpu for cpu, _ in rep) for rep in setup["setup_slices_s"]]
    values = {
        "sim_tps": p["sim_tps"],
        "sim_lat_p50_ms": p["sim_lat_p50_ms"],
        "sim_lat_tail_ms": p["sim_lat_tail_ms"],
        "commit_ratio": p["commit_ratio"],
        "host_cpu_us_per_txn": cpu_s * 1e6 / max(1, p["commits"]),
        "alloc_kb_per_txn": sum(w["host"]["alloc_bytes"] for w in first)
        / 1024
        / max(1, p["commits"]),
        "peak_heap_mb": max(w["host"]["peak_heap_mb"] for w in first),
        "setup_s": statistics.median(setups),
    }
    describe(args, first[0], p)
    print(
        "  %d window replays in all; unscaled host CPU %.1f us/txn; set-up CPU s"
        " per repetition, unscaled: %s"
        % (
            len(windows),
            raw_cpu_s * 1e6 / max(1, p["commits"]),
            ", ".join("%.4f" % s for s in raw_setups),
        )
    )
    return errors, p["attempts"], p["attempts"] - p["commits"], END_TO_END, values


def traced(args, deadline):
    (plain,), _, errors = run_perf(args.workload, args.seed, "plain", 0, deadline)
    (rec,), _, more = run_perf(args.workload, args.seed, "traced", 0, deadline)
    errors += more
    # Tracing, metrics and the history must not change the simulation.
    if sim_bytes(plain) != sim_bytes(rec):
        errors.append("traced and untraced same-seed windows differ in simulated results")
    values = dict(rec["layers"])
    values["trace.overhead_ratio"] = sum(scaled(rec["host"]["window_slices_s"])) / sum(
        scaled(plain["host"]["window_slices_s"])
    )
    p = pooled([rec])
    describe(args, rec, p)
    cp = sum(v for k, v in values.items() if k.startswith("cp."))
    print(
        "  critical path: parts + residual = %.3f us, mean latency %.3f us"
        % (cp, p["sim_lat_mean_ms"] * 1e3)
    )
    return errors, p["attempts"], p["attempts"] - p["commits"], PER_LAYER, values


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    os.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    build()
    deadline = time.monotonic() + DEADLINE_S
    errors, attempted, failed, spec, values = (traced if args.trace else untraced)(
        args, deadline
    )
    metrics = {}
    for name, unit in spec:
        if not NAME_RE.match(name):
            errors.append("metric name %r is malformed" % name)
        if name not in values:
            errors.append("metric %s was not measured" % name)
            continue
        metrics[name] = {"value": values[name], "unit": unit}
        print("  %-36s %16.6f %s" % (name, values[name], unit))
    for e in errors:
        print("  CHECK FAILED: " + e)
    correct = not errors
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
