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
   anyway.

   The same workload also runs on 10 nodes, and both sizes report RPC
   messages and ROTE rounds per commit: with bounded protection groups a
   counter round reaches two peers at any size, so the 100-node figure
   should stay within a small factor of the 10-node one. *)

open Treaty_core
module Sim = Treaty_sim.Sim
module Erpc = Treaty_rpc.Erpc
module Rote = Treaty_counter.Rote
module Metrics = Treaty_obs.Metrics
module W = Treaty_workload

let sizes = [ 10; 100 ]
let n_keys = 1_000_000

(* The registry's per-node abort taxonomy ([n<id>.abort.<reason>]) summed
   by reason, as [core.abort.<reason>]. *)
let abort_reasons () =
  let totals = Hashtbl.create 8 in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ name; v ] -> (
          match String.split_on_char '.' name with
          | [ node; "abort"; reason ] when node <> "" && node.[0] = 'n' ->
              Hashtbl.replace totals reason
                (int_of_string v
                + Option.value ~default:0 (Hashtbl.find_opt totals reason))
          | _ -> ())
      | _ -> ())
    (String.split_on_char '\n' (Metrics.dump ()));
  Hashtbl.fold (fun r n acc -> ("core.abort." ^ r, n) :: acc) totals []
  |> List.sort compare

(* Node-endpoint RPC messages (requests + responses) and ROTE rounds, summed
   over the cluster's nodes, per node-side commit: numerator and
   denominator both cover the whole run, warmup included. *)
let per_commit cluster =
  let msgs = ref 0 and rounds = ref 0 in
  List.iter
    (fun id ->
      let n = Cluster.node cluster (id - 1) in
      let rs = Erpc.stats (Node.rpc n) in
      msgs := !msgs + rs.Erpc.requests_sent + rs.Erpc.responses_sent;
      rounds := !rounds + (Rote.stats (Node.rote n)).Rote.rounds)
    (Cluster.node_ids cluster);
  let commits = float_of_int (max 1 (Cluster.total_committed cluster)) in
  (float_of_int !msgs /. commits, float_of_int !rounds /. commits)

type row = {
  nodes : int;
  committed : int;
  aborted : int;
  aborts : (string * int) list;
  msgs_per_commit : float;
  rounds_per_commit : float;
  events : int;
  sim_seconds : float;
  alloc_per_txn : float;
  wall : float;
}

let run_size ~nodes ~clients ~duration_ns ~warmup_ns ycsb =
  Metrics.reset ();
  Metrics.enable ();
  let t0 = Unix.gettimeofday () in
  let r, (msgs_per_commit, rounds_per_commit), events, sim_ns, alloc_bytes =
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
        let pc = per_commit cluster in
        Cluster.shutdown cluster;
        (r, pc, Sim.events_fired sim, Sim.now sim, a1 -. a0))
  in
  let wall = Unix.gettimeofday () -. t0 in
  let aborts = abort_reasons () in
  Metrics.disable ();
  Metrics.reset ();
  let committed = W.Stats.committed r.W.Driver.stats in
  {
    nodes;
    committed;
    aborted = W.Stats.aborted r.W.Driver.stats;
    aborts;
    msgs_per_commit;
    rounds_per_commit;
    events;
    sim_seconds = float_of_int sim_ns /. 1e9;
    alloc_per_txn =
      (if committed > 0 then alloc_bytes /. float_of_int committed else 0.);
    wall;
  }

let run () =
  Common.section
    (Printf.sprintf "Scale: %s nodes, %dk-key Zipfian YCSB (event engine)"
       (String.concat "/" (List.map string_of_int sizes))
       (n_keys / 1000));
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
  let rows =
    List.map
      (fun nodes ->
        let row = run_size ~nodes ~clients ~duration_ns ~warmup_ns ycsb in
        Printf.printf
          "  %d nodes, %d clients, %d keys: %d committed / %d aborted in \
           %.2fs sim\n%!"
          nodes clients n_keys row.committed row.aborted row.sim_seconds;
        Printf.printf
          "  per commit: %.1f rpc msgs, %.2f rote rounds; aborts: %s\n%!"
          row.msgs_per_commit row.rounds_per_commit
          (String.concat ", "
             (List.map (fun (r, n) -> Printf.sprintf "%s=%d" r n) row.aborts));
        Printf.printf
          "  engine: %d events, %.0f events/s wall, %.0f ns/event, %.0f \
           alloc B/txn, %.1fs wall\n%!"
          row.events
          (float_of_int row.events /. row.wall)
          (row.wall *. 1e9 /. float_of_int row.events)
          row.alloc_per_txn row.wall;
        row)
      sizes
  in
  let size_row row : Common.json =
    Obj
      [
        ("nodes", Int row.nodes);
        ("committed", Int row.committed);
        ("aborted", Int row.aborted);
        ("node_aborts", Obj (List.map (fun (r, n) -> (r, Common.Int n)) row.aborts));
        ("rpc_msgs_per_commit", Fixed (1, row.msgs_per_commit));
        ("rote_rounds_per_commit", Fixed (2, row.rounds_per_commit));
        ("wall_seconds", Fixed (2, row.wall));
      ]
  in
  (* The top-level fields describe the largest run, the engine stress. *)
  let big = List.nth rows (List.length rows - 1) in
  Common.write_bench ~bench:"scale" ~seed:Common.sim_seed
    [
      ("nodes", Int big.nodes);
      ("keys", Int n_keys);
      ("clients", Int clients);
      ("committed", Int big.committed);
      ("aborted", Int big.aborted);
      ("sim_seconds", Fixed (3, big.sim_seconds));
      ("events_fired", Int big.events);
      ("events_per_sec_wall", Fixed (0, float_of_int big.events /. big.wall));
      ("ns_per_event_wall", Fixed (1, big.wall *. 1e9 /. float_of_int big.events));
      ("alloc_bytes_per_txn", Fixed (0, big.alloc_per_txn));
      ("wall_seconds", Fixed (2, big.wall));
      ("by_nodes", List (List.map size_row rows));
    ]
