(* The Treaty benchmark's measuring program.

     perf.exe WORKLOAD SEED run|plain|traced BUDGET_S

   Sets a simulated cluster up for the named workload once (CAS bootstrap,
   attestation, preload), then runs each measured window in a forked child:
   16 closed-loop clients for a warmup and a fixed simulated window, a
   drain, and the correctness checks. Every window starts from the same
   post-set-up state, so its simulated result is a pure function of its
   input seed, which SEED and the window's index derive; the cluster's Sim
   seed is a constant. Prints one JSON line per window and a last one for
   the set-up.

   [run] measures the workload's windows, replays them while BUDGET_S
   allows and repeats the set-up for its timing. [plain] and [traced] run
   window 0 only; [traced] switches on Config.profile.trace/metrics and the
   serializability history and adds the per-layer account: window deltas of
   every layer's public stats record, the registry histograms, the
   simulated critical path rebuilt from the span tree, and host timings of
   each layer's hot public calls. The program is observed from outside
   only; nothing in lib/ is instrumented for it. run.py aggregates the
   lines. *)

open Treaty_core
module Sim = Treaty_sim.Sim
module Rng = Treaty_sim.Rng
module Trace = Treaty_obs.Trace
module Metrics = Treaty_obs.Metrics
module Latch = Treaty_sched.Scheduler.Latch
module Engine = Treaty_storage.Engine
module Enclave = Treaty_tee.Enclave
module Aead = Treaty_crypto.Aead

let ms n = n * 1_000_000

(* --- workloads ------------------------------------------------------------ *)

type workload = {
  name : string;
  nodes : int;
  cc : Types.isolation;
  read_fraction : float;
  value_size : int;
  n_keys : int;
  preload : bool;
  window_ns : int;
  windows : int;  (** Windows per run, each with its own input seed. *)
}

(* Shared by every workload: the paper's closed-loop YCSB shape (§VIII). *)
let clients = 16
let ops_per_txn = 10
let warmup_ns = ms 20
let window_slices = 20
let sim_seed = 0x7EA7_5EEDL

(* Sizes and the reason for each workload are in perfbench/README.md. *)
let workloads =
  [
    {
      name = "ycsb-wh-3n";
      nodes = 3;
      cc = Types.Pessimistic;
      read_fraction = 0.2;
      value_size = 1000;
      n_keys = 10_000;
      preload = true;
      window_ns = ms 400;
      windows = 3;
    };
    {
      name = "ycsb-ro-3n";
      nodes = 3;
      cc = Types.Optimistic;
      read_fraction = 1.0;
      value_size = 1000;
      n_keys = 10_000;
      preload = true;
      window_ns = ms 60;
      windows = 3;
    };
    {
      name = "ycsb-scale-32n";
      nodes = 32;
      cc = Types.Pessimistic;
      read_fraction = 0.5;
      value_size = 100;
      n_keys = 1_000_000;
      preload = false;
      window_ns = ms 60;
      windows = 3;
    };
  ]

(* Keys and values are the benchmark's own. A value names its key, so every
   read can be checked: a value that belongs to another key, has the wrong
   size, or is missing from a preloaded key space is a wrong answer. *)
let key_of i = Printf.sprintf "user%08d" i

let value_of w key fill =
  let prefix = key ^ "=" in
  prefix ^ String.make (w.value_size - String.length prefix) fill

let read_ok w key = function
  | None -> not w.preload
  | Some v ->
      String.length v = w.value_size && String.starts_with ~prefix:(key ^ "=") v

type op = Read of string | Update of string * string

let next_txn w rng =
  List.init ops_per_txn (fun _ ->
      let key = key_of (Rng.int rng w.n_keys) in
      if Rng.float rng 1.0 < w.read_fraction then Read key
      else Update (key, value_of w key (Char.chr (97 + Rng.int rng 26))))

(* --- counters ------------------------------------------------------------- *)

(* Every layer's cumulative counters, summed over the live nodes, read only
   through public stats records. Window figures are differences of two
   snapshots. *)
let snapshot cluster =
  let nodes = List.init (Cluster.n_nodes cluster) (Cluster.node cluster) in
  let sum f = List.fold_left (fun acc n -> acc + f n) 0 nodes in
  let net = Treaty_netsim.Net.stats (Cluster.net cluster) in
  let rpc f = sum (fun n -> f (Treaty_rpc.Erpc.stats (Node.rpc n))) in
  let eng f = sum (fun n -> f (Engine.stats (Node.engine n))) in
  let ssd f = sum (fun n -> f (Treaty_storage.Ssd.stats (Node.ssd n))) in
  let lock f = sum (fun n -> f (Lock_table.stats (Node.locks n))) in
  let node f = sum (fun n -> f (Node.stats n)) in
  let tee f = sum (fun n -> f (Enclave.stats (Node.enclave n))) in
  let pool f = sum (fun n -> f (Treaty_memalloc.Mempool.stats (Node.pool n))) in
  let sim = Cluster.sim cluster in
  Cluster.pipeline_counters cluster
  @ [
      ("net.packets", net.packets);
      ("net.bytes", net.bytes);
      ("rpc.requests", rpc (fun s -> s.requests_sent));
      ("rpc.responses", rpc (fun s -> s.responses_sent));
      ("rpc.timeouts", rpc (fun s -> s.timeouts));
      ("ssd.writes", ssd (fun s -> s.writes));
      ("ssd.bytes_written", ssd (fun s -> s.bytes_written));
      ("engine.block_reads", eng (fun s -> s.sst_block_reads));
      ("engine.cache_hits", eng (fun s -> s.cache_hits));
      ("engine.cache_misses", eng (fun s -> s.cache_misses));
      ("engine.flushes", eng (fun s -> s.flushes));
      ("engine.compactions", eng (fun s -> s.compactions));
      ("lock.waits", lock (fun s -> s.waits));
      ("lock.timeouts", lock (fun s -> s.timeouts));
      ("node.committed", node (fun s -> s.committed));
      ("node.distributed", node (fun s -> s.distributed_committed));
      ("tee.transitions", tee (fun s -> s.transitions));
      ("tee.syscalls", tee (fun s -> s.syscalls));
      ("tee.compute_ns", tee (fun s -> s.compute_ns));
      ("pool.allocations", pool (fun s -> s.allocations));
      ("pool.recycled", pool (fun s -> s.recycled));
      ("sim.events", Sim.events_fired sim);
      ( "sched.wakeups",
        List.fold_left
          (fun acc (_, (p : Treaty_sched.Scheduler.fiber_profile)) ->
            acc + p.wakeups)
          0 (Sim.fiber_profile sim) );
    ]

let delta before after =
  List.map (fun (k, v) -> (k, v - List.assoc k before)) after

(* --- simulated critical path ---------------------------------------------- *)

(* Phase of the critical path each span name's self time belongs to. Time
   covered by no span (the client's own network and think time) and by the
   transaction root between client requests is residual. *)
let cp_phase = function
  | "execute" | "txn.ro" | "sst.read" -> "execute"
  | "lock.wait" -> "lock_wait"
  | "rpc.call" | "rpc.handle" | "rpc.burst" -> "rpc"
  | "prepare" -> "prepare"
  | "stab.wait" -> "stab_wait"
  | "rote.round" -> "rote_round"
  | "clog.flush" -> "clog_flush"
  | "commit" | "wal.flush" -> "commit"
  | _ -> "residual"

let cp_phases =
  [ "execute"; "lock_wait"; "rpc"; "prepare"; "stab_wait"; "rote_round";
    "clog_flush"; "commit"; "residual" ]

(* Attribute every nanosecond of [t0, t1] of each committed transaction to
   exactly one span: walking back from the end, the child that finishes
   last owns the time up to its end, recursively; the gaps are the parent's
   self time. Parallel children (a prepare fan-out) therefore contribute
   only the one that blocks. Returns the mean per phase, in ns. *)
let critical_path committed =
  let spans = Trace.spans () in
  let children = Hashtbl.create 4096 in
  let roots = Hashtbl.create 64 in
  List.iter
    (fun (s : Trace.info) ->
      if s.parent <> Trace.none then Hashtbl.add children s.parent s
      else if s.name = "txn" || s.name = "txn.ro" then
        match List.assoc_opt "client" s.args with
        | Some (Trace.Int c) -> Hashtbl.add roots c s
        | _ -> ())
    spans;
  (* Hashtbl.find_all returns the newest binding first; restore creation
     order so ties resolve the same way on every run. *)
  let kids id = List.rev (Hashtbl.find_all children id) in
  let totals = Hashtbl.create 16 in
  let add name ns =
    let p = cp_phase name in
    Hashtbl.replace totals p
      (ns + Option.value ~default:0 (Hashtbl.find_opt totals p))
  in
  let rec walk name lo hi kids_of_span =
    let cursor = ref hi and fin = ref false in
    while not !fin do
      let best =
        List.fold_left
          (fun best (c : Trace.info) ->
            let c_end = if c.end_ns < 0 then max_int else c.end_ns in
            let e = min c_end !cursor in
            if c.start_ns < !cursor && e > lo then
              match best with Some (_, be) when be >= e -> best | _ -> Some (c, e)
            else best)
          None kids_of_span
      in
      match best with
      | None ->
          add name (!cursor - lo);
          fin := true
      | Some (c, e) ->
          add name (!cursor - e);
          let s = max c.start_ns lo in
          walk c.name s e (kids c.id);
          cursor := s
    done
  in
  List.iter
    (fun (client, t0, t1) ->
      let own =
        List.filter
          (fun (s : Trace.info) -> s.start_ns >= t0 && s.start_ns <= t1)
          (List.rev (Hashtbl.find_all roots client))
      in
      walk "client" t0 t1 own)
    committed;
  let n = float_of_int (max 1 (List.length committed)) in
  List.map
    (fun p ->
      (p, float_of_int (Option.value ~default:0 (Hashtbl.find_opt totals p)) /. n))
    cp_phases

(* --- host timings of hot public calls ------------------------------------- *)

(* Median ns per call over [reps] batches of [n] calls. *)
let time_ns ?(reps = 7) ~n f =
  let samples =
    Array.init reps (fun _ ->
        let t0 = Unix.gettimeofday () in
        for _ = 1 to n do
          f ()
        done;
        (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int n)
  in
  Array.sort compare samples;
  samples.(reps / 2)

let crypto_timings () =
  let key = Aead.key_of_string "perfbench" in
  let ivg = Aead.Iv_gen.create ~node_id:1 in
  let v1k = String.make 1024 'v' in
  let iv = Aead.Iv_gen.next ivg in
  let ct, mac = Aead.seal key ~iv v1k in
  let secure = Treaty_rpc.Secure_msg.Secure key in
  let meta =
    {
      Treaty_rpc.Secure_msg.coord = 1;
      tx_seq = 42;
      op_id = 7;
      src = 1;
      kind = 3;
      is_response = false;
      req_id = 99;
    }
  in
  let burst =
    List.init 8 (fun i ->
        ({ meta with Treaty_rpc.Secure_msg.op_id = i }, String.make 100 'm'))
  in
  let buf =
    Bytes.create
      (Treaty_rpc.Secure_msg.Burst.wire_size secure
         ~data_lens:(List.map (fun _ -> 100) burst))
  in
  [
    ( "crypto.host_aead_seal_1k_ns",
      time_ns ~n:200 (fun () ->
          ignore (Aead.seal key ~iv:(Aead.Iv_gen.next ivg) v1k)) );
    ( "crypto.host_aead_open_1k_ns",
      time_ns ~n:200 (fun () -> ignore (Aead.open_ key ~iv ~mac ct)) );
    ( "crypto.host_burst_seal_8x100_ns",
      time_ns ~n:200 (fun () ->
          ignore
            (Treaty_rpc.Secure_msg.Burst.encode_into secure ~iv_gen:ivg buf
               burst)) );
    ( "crypto.host_sha256_1k_ns",
      time_ns ~n:400 (fun () -> ignore (Treaty_crypto.Sha256.digest_string v1k))
    );
  ]

(* A standalone engine as a treaty-enc-stab node builds it, minus the
   counter service: host ns of one 1 KiB commit and of one point get. *)
let engine_timings () =
  let sim = Sim.create ~seed:sim_seed () in
  let config = Config.with_profile Config.default Config.treaty_enc_stab in
  let enclave =
    Enclave.create sim ~mode:Enclave.Scone ~cost:config.cost
      ~cores:config.cores_per_node
      ~node_id:1 ~code_identity:"perfbench"
  in
  let sec =
    Treaty_storage.Sec.create ~enclave ~auth:true
      ~enc:(Some (Aead.key_of_string "perfbench-storage"))
      ()
  in
  let ssd = Treaty_storage.Ssd.create sim config.cost in
  let commit_ns = ref 0. and get_ns = ref 0. in
  Sim.run sim (fun () ->
      let e = Engine.create ssd sec config.engine Engine.noop_stability in
      let next = ref 0 in
      let v1k = String.make 1024 'v' in
      commit_ns :=
        time_ns ~n:200 (fun () ->
            incr next;
            ignore
              (Engine.commit e
                 ~writes:[ (key_of !next, Treaty_storage.Op.Put v1k) ]
                 ()));
      let snapshot = Engine.snapshot e in
      let i = ref 0 in
      get_ns :=
        time_ns ~n:2000 (fun () ->
            i := (!i mod !next) + 1;
            ignore (Engine.get e ~key:(key_of !i) ~snapshot)));
  [ ("storage.host_engine_commit_1k_ns", !commit_ns);
    ("storage.host_engine_get_ns", !get_ns) ]

(* Sim.after plus firing the event, on an otherwise idle engine. *)
let timer_timing () =
  let n = 100_000 in
  let reps =
    Array.init 7 (fun _ ->
        let sim = Sim.create ~seed:sim_seed () in
        let fired = ref 0 in
        let t0 = Unix.gettimeofday () in
        Sim.run sim (fun () ->
            for i = 1 to n do
              ignore (Sim.after sim ~ns:(1 + (i * 7919 mod 1_000_000)) (fun () -> incr fired))
            done);
        (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int n)
  in
  Array.sort compare reps;
  [ ("sim.host_timer_ns", reps.(3)) ]

(* --- JSON ----------------------------------------------------------------- *)

type json = I of int | F of float | S of string | B of bool | O of (string * json) list | L of json list

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 || Char.code c > 0x7e ->
          Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec render b = function
  | I i -> Buffer.add_string b (string_of_int i)
  | F f ->
      Buffer.add_string b
        (if Float.is_finite f then Printf.sprintf "%.17g" f else "null")
  | S s -> add_string b s
  | B x -> Buffer.add_string b (if x then "true" else "false")
  | L l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          render b v)
        l;
      Buffer.add_char b ']'
  | O kv ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          add_string b k;
          Buffer.add_char b ':';
          render b v)
        kv;
      Buffer.add_char b '}'

(* --- host time -------------------------------------------------------------- *)

module Int_map = Map.Make (Int)

(* User CPU seconds of this process. A slice is measured in user time so
   that the page faults a calibration fork leaves behind do not count. *)
let user_cpu () = (Unix.times ()).Unix.tms_utime

(* A fixed calibration kernel, independent of lib/: allocation-heavy map
   building in a forked copy of the process, so it neither grows this
   process's heap nor counts in its allocation. On a shared host,
   neighbours' memory traffic slows identical simulation work by up to 1.8x
   for tens of seconds at a time, while a pure compute loop keeps its
   speed; this kernel, with the copy-on-write faults of its fork, slows with
   the simulation, so run.py scales each slice of host CPU by how long the
   kernel took right after it. Returns the kernel's CPU seconds. *)
let calibrate () =
  let children () =
    let t = Unix.times () in
    t.Unix.tms_cutime +. t.Unix.tms_cstime
  in
  let c0 = children () in
  (match Unix.fork () with
  | 0 ->
      (* Keep the major GC off the inherited heap: the kernel's cost must
         not depend on the state of the program it measures. *)
      Gc.set { (Gc.get ()) with Gc.space_overhead = 1_000_000 };
      let m = ref Int_map.empty in
      for i = 0 to 30_000 do
        m := Int_map.add (i * 7919 land 16383) (String.make 48 (Char.chr (i land 127))) !m
      done;
      Unix._exit (if Int_map.cardinal !m > 0 then 0 else 1)
  | pid -> ignore (Unix.waitpid [] pid));
  children () -. c0

(* Host CPU is sampled in slices of deterministic work, each followed by a
   calibration run that is part of neither slice. [mark ()] ends a slice and
   starts the next; [slices ()] returns each slice's user CPU seconds with
   the calibration's. *)
let cpu_slices () =
  let start = ref (user_cpu ()) and rev = ref [] in
  let mark () =
    let stop = user_cpu () in
    let cal = calibrate () in
    rev := (stop -. !start, cal) :: !rev;
    start := user_cpu ()
  in
  (mark, fun () -> List.rev !rev)

let json_slices l = L (List.map (fun (cpu, cal) -> L [ F cpu; F cal ]) l)

(* --- set-up ----------------------------------------------------------------- *)

(* Set-up as a user pays it: bootstrap the CAS, attest and provision every
   node, then preload the key space through one loader client in
   100-key transactions. [mark] ends a slice of host CPU after the bootstrap
   and after every 1000 preloaded keys. Runs in a fiber. *)
let setup w sim config ~fail ~mark =
  match Cluster.create sim config () with
  | Error m ->
      fail ("cluster bootstrap failed: " ^ m);
      None
  | Ok cluster ->
      mark ();
      if w.preload then begin
        let loader = Client.connect_exn cluster ~client_id:900 in
        let rec load i =
          if i < w.n_keys then begin
            (match
               Client.with_txn loader (fun txn ->
                   let rec put j =
                     if j >= min w.n_keys (i + 100) then Ok ()
                     else
                       let k = key_of j in
                       match Client.put loader txn k (value_of w k 'p') with
                       | Ok () -> put (j + 1)
                       | Error e -> Error e
                   in
                   put i)
             with
            | Ok () -> ()
            | Error e -> fail ("preload aborted: " ^ Types.abort_reason_to_string e));
            if (i + 100) mod 1000 = 0 || i + 100 >= w.n_keys then mark ();
            load (i + 100)
          end
        in
        load 0;
        Client.disconnect loader
      end;
      Some cluster

(* Further set-ups, timed and discarded: at least three in all, and more
   until 1 s of CPU has been spent on set-up, since cheap set-ups are noisy
   in relative terms. They run after the measured windows, on fresh Sims, so
   they cannot perturb them. *)
let extra_setups w config ~fail ~first =
  let samples = ref [ first ] in
  let spent () =
    List.fold_left (List.fold_left (fun acc (cpu, _) -> acc +. cpu)) 0. !samples
  in
  while List.length !samples < 3 || (spent () < 1.0 && List.length !samples < 30) do
    let sim = Sim.create ~seed:sim_seed () in
    let mark, slices = cpu_slices () in
    Sim.run sim (fun () ->
        match setup w sim config ~fail ~mark with
        | None -> ()
        | Some cluster ->
            samples := slices () :: !samples;
            Cluster.shutdown cluster)
  done;
  List.rev !samples

(* --- one window ----------------------------------------------------------- *)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let abort_reasons =
  [ "lock_timeout"; "participant_failed"; "validation_conflict";
    "stabilization_unavailable"; "client_abort"; "abandoned"; "other" ]

(* Sum the registry's per-node abort taxonomy ([n<id>.abort.<reason>]) by
   reason. *)
let node_aborts () =
  let totals = Hashtbl.create 8 in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ name; v ] when String.length name > 1 && name.[0] = 'n' -> (
          match String.split_on_char '.' name with
          | [ _; "abort"; reason ] ->
              let r = if List.mem reason abort_reasons then reason else "other" in
              Hashtbl.replace totals r
                (int_of_string v + Option.value ~default:0 (Hashtbl.find_opt totals r))
          | _ -> ())
      | _ -> ())
    (String.split_on_char '\n' (Metrics.dump ()));
  List.map
    (fun r -> ("core.abort." ^ r, Option.value ~default:0 (Hashtbl.find_opt totals r)))
    abort_reasons

let hist_us name p =
  match Metrics.hist name with
  | None -> 0.
  | Some h -> float_of_int (Metrics.Hist.percentile h p) /. 1e3

(* The per-layer account of one traced window. [d] reads a window delta of
   {!snapshot}; [mean_ns] is the measured mean latency the critical path
   must add up to. *)
let layer_metrics w config ~d ~commits ~committed ~mean_ns ~hists ~aborts ~fail =
  let per_txn x = if commits = 0 then 0. else x /. float_of_int commits in
  let pt k = per_txn (float_of_int (d k)) in
  let cp = critical_path committed in
  let cp_sum = List.fold_left (fun acc (_, v) -> acc +. v) 0. cp in
  if Float.abs (cp_sum -. mean_ns) > 1e-6 *. Float.max 1. mean_ns then
    fail
      (Printf.sprintf "critical path parts sum to %.1f ns, mean latency is %.1f ns"
         cp_sum mean_ns);
  [
    ("counter.rote_rounds_per_txn", pt "rote.rounds");
    ("counter.targets_per_increment", ratio (d "rote.targets") (d "rote.increments"));
    ("counter.submits_per_round", ratio (d "counter.submits") (d "counter.rounds"));
    ("counter.failed_waits", float_of_int (d "counter.failed_waits"));
    ("netsim.packets_per_txn", pt "net.packets");
    ("netsim.kbytes_per_txn", pt "net.bytes" /. 1024.);
    ("rpc.msgs_per_txn", per_txn (float_of_int (d "rpc.requests" + d "rpc.responses")));
    ("rpc.msgs_per_packet", ratio (d "rpc.burst_msgs") (d "rpc.bursts_sent"));
    ("rpc.timeouts_per_ktxn", 1000. *. pt "rpc.timeouts");
    ("sim.events_per_txn", pt "sim.events");
    ("sched.wakeups_per_txn", pt "sched.wakeups");
    ("crypto.sim_us_per_txn", pt "crypto.ns" /. 1e3);
    ("storage.wal_items_per_batch", ratio (d "wal.items") (d "wal.batches"));
    ("storage.clog_items_per_batch", ratio (d "clog.items") (d "clog.batches"));
    ("storage.ssd_writes_per_txn", pt "ssd.writes");
    ("storage.ssd_kbytes_written_per_txn", pt "ssd.bytes_written" /. 1024.);
    ("storage.block_reads_per_txn", pt "engine.block_reads");
    ( "storage.cache_hit_ratio",
      ratio (d "engine.cache_hits") (d "engine.cache_hits" + d "engine.cache_misses") );
    ("storage.flushes", float_of_int (d "engine.flushes"));
    ("storage.compactions", float_of_int (d "engine.compactions"));
    ("core.lock_waits_per_txn", pt "lock.waits");
    ("core.lock_timeouts", float_of_int (d "lock.timeouts"));
    ("core.distributed_share", ratio (d "node.distributed") (d "node.committed"));
    ("tee.transitions_per_txn", pt "tee.transitions");
    ("tee.syscalls_per_txn", pt "tee.syscalls");
    ( "tee.core_util",
      float_of_int (d "tee.compute_ns")
      /. float_of_int (config.Config.cores_per_node * w.nodes * w.window_ns) );
    ("memalloc.recycled_ratio", ratio (d "pool.recycled") (d "pool.allocations"));
  ]
  @ hists
  @ List.map (fun (k, v) -> (k, float_of_int v)) aborts
  @ List.map (fun (p, ns) -> ("cp." ^ p ^ "_us", ns /. 1e3)) cp
  @ crypto_timings () @ engine_timings () @ timer_timing ()

let run_txn w client rng ~check =
  let ops = next_txn w rng in
  if
    w.cc = Types.Optimistic
    && List.for_all (function Read _ -> true | Update _ -> false) ops
  then
    (* Under OCC an all-read transaction is declared read-only and takes
       the snapshot path, as the CLI does. *)
    let keys = List.map (function Read k | Update (k, _) -> k) ops in
    match Client.read_only client keys with
    | Ok kvs ->
        List.iter (fun (k, v) -> check k v) kvs;
        Ok ()
    | Error e -> Error e
  else
    Client.with_txn client (fun txn ->
        let rec go = function
          | [] -> Ok ()
          | Read k :: rest -> (
              match Client.get client txn k with
              | Ok v ->
                  check k v;
                  go rest
              | Error e -> Error e)
          | Update (k, v) :: rest -> (
              match Client.put client txn k v with
              | Ok () -> go rest
              | Error e -> Error e)
        in
        go ops)

(* Run the clients for the warmup and the measurement window on the
   freshly set-up cluster, drain, check, and return the window's JSON
   record. Runs in the main fiber. [rng] is this window's input stream. *)
let run_window w cluster config ~traced ~rng =
  let errors = ref [] in
  let fail m = errors := m :: !errors in
  let sim = Cluster.sim cluster in
  let attempts = ref 0 and commits = ref 0 and aborts = ref 0 in
  let failed_connects = ref 0 and bad_reads = ref 0 in
  let client_aborts = Hashtbl.create 8 in
  let lat = ref [] and committed = ref [] in
  let start = Sim.now sim in
  let measure_from = start + warmup_ns in
  let deadline = measure_from + w.window_ns in
  let latch = Latch.create clients in
  let check key v = if not (read_ok w key v) then incr bad_reads in
  for i = 0 to clients - 1 do
    let rng = Rng.split rng in
    let client_id = i + 1 in
    Sim.spawn sim (fun () ->
        (match Client.connect cluster ~client_id with
        | Error (`Auth_failed | `Cas_down) ->
            incr attempts;
            incr failed_connects
        | Ok client ->
            while Sim.now sim < deadline do
              let t0 = Sim.now sim in
              let counted = t0 >= measure_from in
              if counted then incr attempts;
              let outcome = run_txn w client rng ~check in
              let t1 = Sim.now sim in
              if counted then
                match outcome with
                | Ok () ->
                    incr commits;
                    lat := (t1 - t0) :: !lat;
                    if traced then committed := (client_id, t0, t1) :: !committed
                | Error e ->
                    incr aborts;
                    let r = Types.abort_reason_to_string e in
                    Hashtbl.replace client_aborts r
                      (1 + Option.value ~default:0 (Hashtbl.find_opt client_aborts r))
            done;
            Client.disconnect client);
        Latch.arrive latch)
  done;
  Sim.sleep sim warmup_ns;
  let before = snapshot cluster in
  if traced then Metrics.reset ();
  let mark, slices = cpu_slices () and alloc0 = Gc.allocated_bytes () in
  for _ = 1 to window_slices do
    Sim.sleep sim (w.window_ns / window_slices);
    mark ()
  done;
  let window_cpu = slices () and alloc = Gc.allocated_bytes () -. alloc0 in
  let counters = delta before (snapshot cluster) in
  let hists, cluster_aborts =
    if not traced then ([], [])
    else
      ( [ ("counter.stab_wait_p50_us", hist_us "stab.wait_ns" 50.);
          ("counter.stab_wait_p99_us", hist_us "stab.wait_ns" 99.);
          ("rpc.wait_p50_us", hist_us "rpc.wait_ns" 50.);
          ("rpc.wait_p99_us", hist_us "rpc.wait_ns" 99.);
          ("core.lock_wait_p99_us", hist_us "lock.wait_ns" 99.) ],
        node_aborts () )
  in
  Latch.wait (Sim.sched sim) latch;
  (* Leak-freedom: let at-most-once entries age out and sweeps run with no
     traffic, then demand empty residual state. *)
  Sim.sleep sim (config.Config.dedup_ttl_ns + (2 * config.sweep_interval_ns));
  (match Cluster.check_quiescent cluster with
  | Ok () -> ()
  | Error m -> fail ("not quiescent after drain: " ^ m));
  (if traced then
     match Cluster.history cluster with
     | None -> fail "history recording was off"
     | Some h -> (
         match Serializability.check h with
         | Serializability.Serializable -> ()
         | Serializability.Cycle _ -> fail "committed history is not serializable"));
  if !commits + !aborts + !failed_connects <> !attempts then
    fail
      (Printf.sprintf "accounting: %d commits + %d aborts + %d failed connects <> %d attempts"
         !commits !aborts !failed_connects !attempts);
  if !bad_reads > 0 then fail (Printf.sprintf "%d reads returned a wrong value" !bad_reads);
  if !commits = 0 then fail "no transaction committed in the window";
  let sorted = List.sort compare !lat in
  let mean_ns =
    if sorted = [] then 0.
    else float_of_int (List.fold_left ( + ) 0 sorted) /. float_of_int (List.length sorted)
  in
  let layers =
    if not traced then []
    else
      let d k = List.assoc k counters in
      let layer =
        layer_metrics w config ~d ~commits:!commits ~committed:(List.rev !committed)
          ~mean_ns ~hists ~aborts:cluster_aborts ~fail
      in
      [ ("layers", O (List.map (fun (k, v) -> (k, F v)) layer)) ]
  in
  let sim_section =
    O
      ([
         ("attempts", I !attempts);
         ("commits", I !commits);
         ("aborts", I !aborts);
         ("failed_connects", I !failed_connects);
         ("window_ms", I (w.window_ns / 1_000_000));
         ("latencies_ns", L (List.map (fun x -> I x) sorted));
       ]
      @ List.map
          (fun (r, c) -> ("client_abort." ^ r, I c))
          (List.sort compare (Hashtbl.fold (fun r c acc -> (r, c) :: acc) client_aborts [])))
  in
  let host_section =
    O
      [
        ("window_slices_s", json_slices window_cpu);
        ("alloc_bytes", F alloc);
        ( "peak_heap_mb",
          F (float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.) );
      ]
  in
  ( [ ("correct", B (!errors = []));
      ("errors", L (List.rev_map (fun e -> S e) !errors));
      ("sim", sim_section);
      ("host", host_section) ]
    @ layers,
    !errors = [] )

(* --- a run ---------------------------------------------------------------- *)

let print_json fields =
  let b = Buffer.create 4096 in
  render b (O fields);
  print_endline (Buffer.contents b)

(* Set up once, then run every window in a forked child, so each window
   starts from the same post-set-up state and is a pure function of its
   input seed. [`Run] measures the workload's windows, then replays them
   until [budget_s] has passed (host-time samples of identical work), then
   repeats the set-up for set-up timing. [`Plain] and [`Traced] run window
   0 only, untraced and traced. Prints one JSON line per window and a final
   one for the set-up. *)
let run w ~seed ~mode ~budget_s =
  let t_start = Unix.gettimeofday () in
  let traced = mode = `Traced in
  let errors = ref [] in
  let fail m = errors := m :: !errors in
  let profile =
    { Config.treaty_enc_stab with Config.trace = traced; metrics = traced }
  in
  let config =
    {
      (Config.with_profile Config.default profile) with
      Config.nodes = w.nodes;
      isolation = w.cc;
      record_history = traced;
      seed = sim_seed;
    }
  in
  let ident k replay =
    [ ("kind", S "window"); ("workload", S w.name); ("seed", I seed);
      ("sub_seed", I k); ("replay", I replay);
      ("sim_seed", I (Int64.to_int sim_seed)); ("traced", B traced) ]
  in
  let first_setup = ref None in
  let sim = Sim.create ~seed:sim_seed () in
  let mark, slices = cpu_slices () in
  Sim.run sim (fun () ->
      match setup w sim config ~fail ~mark with
      | None -> ()
      | Some cluster ->
          first_setup := Some (slices ());
          let window k replay =
            flush stdout;
            match Unix.fork () with
            | 0 ->
                let rng = Rng.create (Int64.of_int ((seed * 64) + k)) in
                let fields, ok = run_window w cluster config ~traced ~rng in
                print_json (ident k replay @ fields);
                flush stdout;
                Unix._exit (if ok then 0 else 1)
            | pid -> (
                match Unix.waitpid [] pid with
                | _, Unix.WEXITED (0 | 1) -> ()
                | _ -> fail (Printf.sprintf "window %d (replay %d) crashed" k replay))
          in
          let round replay =
            let t0 = Unix.gettimeofday () in
            for k = 0 to (if mode = `Run then w.windows else 1) - 1 do
              window k replay
            done;
            Unix.gettimeofday () -. t0
          in
          if mode <> `Run then ignore (round 0)
          else begin
            (* The measured round, then replay rounds while one more still
               fits in the budget. *)
            let last = ref (round 0) and replay = ref 1 in
            while Unix.gettimeofday () -. t_start +. !last < budget_s && !replay < 8 do
              last := round !replay;
              incr replay
            done
          end;
          Cluster.shutdown cluster);
  let setups =
    match !first_setup with
    | None ->
        fail "set-up did not complete";
        []
    | Some first when mode = `Run -> extra_setups w config ~fail ~first
    | Some first -> [ first ]
  in
  print_json
    [ ("kind", S "setup"); ("workload", S w.name);
      ("setup_slices_s", L (List.map json_slices setups));
      ("correct", B (!errors = []));
      ("errors", L (List.rev_map (fun e -> S e) !errors)) ];
  !errors = []

let () =
  match Array.to_list Sys.argv with
  | [ _; name; seed; mode; budget ] -> (
      let mode =
        match mode with
        | "run" -> `Run
        | "plain" -> `Plain
        | "traced" -> `Traced
        | m ->
            Printf.eprintf "unknown mode %S\n" m;
            exit 2
      in
      match List.find_opt (fun w -> w.name = name) workloads with
      | None ->
          Printf.eprintf "unknown workload %S\n" name;
          exit 2
      | Some w ->
          let ok =
            run w ~seed:(int_of_string seed) ~mode ~budget_s:(float_of_string budget)
          in
          exit (if ok then 0 else 1))
  | _ ->
      prerr_endline "usage: perf.exe WORKLOAD SEED run|plain|traced BUDGET_S";
      exit 2
