#!/usr/bin/env python3
"""Compare fresh BENCH_*.json rows against committed baselines.

    python3 bench/check_sim_fields.py BASELINE_DIR FRESH_DIR

For every BENCH_*.json in BASELINE_DIR, the same-named file in FRESH_DIR
must carry the same fields, and every field must be equal exactly, except
the host-measured fields listed in HOST_FIELDS. Everything else in these
rows comes from the discrete-event simulation under a fixed seed, so it is
a pure function of the code: a change that moves one has changed simulated
behaviour, and its baseline has to be regenerated and committed with it.
Exits non-zero and names each differing field otherwise.
"""

import glob
import json
import os
import sys


def is_host(path):
    """Whether a field is measured on the host and so varies from run to
    run. Everything else is compared."""
    keys = [p for p in path if isinstance(p, str)]
    if not keys:
        return False
    return (
        # Wall-clock seconds and rates (bench_scale: wall_seconds,
        # events_per_sec_wall, ns_per_event_wall; any later *_wall field).
        keys[-1].endswith("_wall")
        or keys[-1].startswith("wall_")
        # Host allocation per transaction (bench_scale, from Gc counters).
        or keys[-1] == "alloc_bytes_per_txn"
        # Timer-wheel vs seed-heap ns/op and their ratio (bench_micro).
        or keys[0] == "event_loop"
    )


def diff(base, fresh, path, out):
    if is_host(path):
        return
    if isinstance(base, dict) and isinstance(fresh, dict):
        for key in sorted(set(base) | set(fresh)):
            if key not in base or key not in fresh:
                if not is_host(path + [key]):
                    where = "baseline" if key not in base else "fresh run"
                    out.append(f"{fmt(path + [key])}: missing in the {where}")
            else:
                diff(base[key], fresh[key], path + [key], out)
    elif isinstance(base, list) and isinstance(fresh, list):
        if len(base) != len(fresh):
            out.append(f"{fmt(path)}: {len(base)} rows in the baseline, {len(fresh)} now")
        for i, (b, f) in enumerate(zip(base, fresh)):
            diff(b, f, path + [i], out)
    elif base != fresh:
        out.append(f"{fmt(path)}: baseline {base!r}, now {fresh!r}")


def fmt(path):
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base_dir, fresh_dir = sys.argv[1:]
    files = sorted(glob.glob(os.path.join(base_dir, "BENCH_*.json")))
    if not files:
        sys.exit(f"no BENCH_*.json in {base_dir}")
    failures = 0
    for base_path in files:
        name = os.path.basename(base_path)
        fresh_path = os.path.join(fresh_dir, name)
        if not os.path.exists(fresh_path):
            print(f"{name}: not written by the fresh run")
            failures += 1
            continue
        with open(base_path) as f:
            base = json.load(f)
        with open(fresh_path) as f:
            fresh = json.load(f)
        out = []
        diff(base, fresh, [], out)
        print(f"{name}: {'OK' if not out else f'{len(out)} simulated fields differ'}")
        for line in out:
            print(f"  {name}{line}")
        failures += len(out)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
