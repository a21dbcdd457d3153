(* The event-engine stress test: a 100-node cluster under a Zipfian YCSB
   workload over a million-key space. Nothing in the paper runs at this
   scale — the point is the simulator itself: with 100 enclaves, their NICs,
   RPC timeout timers and client terminals all live at once, the run is
   dominated by event-queue and scheduler churn, and the numbers reported
   are engine numbers: simulated events per wall-clock second, wall ns per
   event, and GC bytes allocated per committed transaction.

   The key space is NOT pre-loaded (a million puts would dwarf the
   measurement window); keys materialize on first update and reads of
   still-missing keys are legitimate misses. The Zipfian skew (theta 0.99)
   keeps the hot set small, so the workload commits at a healthy rate
   anyway. *)

open Treaty_core
module Sim = Treaty_sim.Sim
module W = Treaty_workload

let nodes = 100
let n_keys = 1_000_000

let run () =
  Common.section
    (Printf.sprintf "Scale: %d nodes, %dk-key Zipfian YCSB (event engine)"
       nodes (n_keys / 1000));
  let clients = if !Common.full_mode then 64 else 16 in
  let duration_ns =
    if !Common.full_mode then 1_000_000_000 else 200_000_000
  in
  let warmup_ns = if !Common.full_mode then 100_000_000 else 50_000_000 in
  let ycsb =
    {
      W.Ycsb.default with
      W.Ycsb.n_keys;
      distribution = `Zipfian 0.99;
      value_size = 100;
    }
  in
  let t0 = Unix.gettimeofday () in
  let r, events, sim_ns, alloc_bytes =
    Common.run_sim (fun sim ->
        let config =
          { (Common.base_config Config.treaty_enc_stab) with Config.nodes }
        in
        let cluster = Common.make_cluster sim config () in
        let a0 = Gc.allocated_bytes () in
        let r =
          W.Driver.run_clients cluster ~clients ~duration_ns ~warmup_ns
            ~txn:(W.Ycsb.txn ycsb) ()
        in
        let a1 = Gc.allocated_bytes () in
        Cluster.shutdown cluster;
        (r, Sim.events_fired sim, Sim.now sim, a1 -. a0))
  in
  let wall = Unix.gettimeofday () -. t0 in
  let committed = W.Stats.committed r.W.Driver.stats in
  let aborted = W.Stats.aborted r.W.Driver.stats in
  let alloc_per_txn =
    if committed > 0 then alloc_bytes /. float_of_int committed else 0.
  in
  let events_per_sec = float_of_int events /. wall in
  let ns_per_event = wall *. 1e9 /. float_of_int events in
  let sim_seconds = float_of_int sim_ns /. 1e9 in
  Printf.printf
    "  %d nodes, %d clients, %d keys: %d committed / %d aborted in %.2fs \
     sim\n%!"
    nodes clients n_keys committed aborted sim_seconds;
  Printf.printf
    "  engine: %d events, %.0f events/s wall, %.0f ns/event, %.0f alloc \
     B/txn, %.1fs wall\n%!"
    events events_per_sec ns_per_event alloc_per_txn wall;
  Common.write_bench ~bench:"scale" ~seed:Common.sim_seed
    [
      ("nodes", Int nodes);
      ("keys", Int n_keys);
      ("clients", Int clients);
      ("committed", Int committed);
      ("aborted", Int aborted);
      ("sim_seconds", Fixed (3, sim_seconds));
      ("events_fired", Int events);
      ("events_per_sec_wall", Fixed (0, events_per_sec));
      ("ns_per_event_wall", Fixed (1, ns_per_event));
      ("alloc_bytes_per_txn", Fixed (0, alloc_per_txn));
      ("wall_seconds", Fixed (2, wall));
    ]
