(* The fault-injection harness itself: determinism of the schedule
   generator, same-seed reproducibility of whole runs, a fault-free
   leak-freedom baseline for the quiescence checker, and the 50-seed
   invariant sweep — the tier-1 gate for crash/partition/replay handling. *)

open Treaty_core
module Sim = Treaty_sim.Sim
module Chaos = Treaty_chaos.Chaos
module Schedule = Treaty_chaos.Schedule
module Rote = Treaty_counter.Rote

let schedule_deterministic () =
  let gen seed = Schedule.generate ~seed ~nodes:3 ~horizon_ns:600_000_000 in
  Alcotest.(check string) "same seed, same schedule"
    (Schedule.to_string (gen 11))
    (Schedule.to_string (gen 11));
  Alcotest.(check bool) "different seed, different schedule" true
    (Schedule.to_string (gen 11) <> Schedule.to_string (gen 12))

let run_reproducible () =
  (* A full run — workload, faults, recovery — replayed from the same seed
     must produce the identical schedule and outcome counts. This is what
     makes a FAIL line from the sweep a usable bug report. *)
  let run () =
    match Chaos.run_seed ~seed:7 () with
    | Ok r ->
        ( Schedule.to_string r.Chaos.schedule,
          (r.Chaos.committed, r.Chaos.aborted, r.Chaos.history_txs) )
    | Error m -> Alcotest.failf "seed 7: %s" m
  in
  let sched_a, counts_a = run () in
  let sched_b, counts_b = run () in
  Alcotest.(check string) "same fault schedule" sched_a sched_b;
  Alcotest.(check (triple int int int)) "same outcome counts" counts_a counts_b

let cc_modes_reproducible () =
  (* Determinism is per (seed, config): under either concurrency-control
     mode, replaying a traced seed must reproduce byte-identical trace
     JSON — the cc ablation may change outcomes but not determinism. *)
  let trace_of cc =
    let config = { Chaos.default_config with Chaos.cc; trace = true } in
    (match Chaos.run_seed ~config ~seed:7 () with
    | Ok _ -> ()
    | Error m ->
        Alcotest.failf "seed 7 (%s): %s"
          (match cc with
          | Types.Pessimistic -> "2pl"
          | Types.Optimistic -> "occ")
          m);
    Treaty_obs.Trace.export_string ()
  in
  let occ_a = trace_of Types.Optimistic in
  let occ_b = trace_of Types.Optimistic in
  Alcotest.(check bool) "occ trace byte-identical" true (occ_a = occ_b);
  let pess_a = trace_of Types.Pessimistic in
  let pess_b = trace_of Types.Pessimistic in
  Alcotest.(check bool) "2pl trace byte-identical" true (pess_a = pess_b)

let hundred_node_trace_identity () =
  (* The scale regime the event-engine rewrite targets: at 100 nodes the
     timer wheel's overflow heap, slot cascades and the network's same-tick
     delivery batches are all exercised orders of magnitude harder than in
     the 3-node runs above — and determinism must hold just the same: two
     runs from one seed produce byte-identical trace JSON. *)
  let trace_of () =
    let config =
      { Chaos.default_config with Chaos.nodes = 100; clients = 8; trace = true }
    in
    (match Chaos.run_seed ~config ~seed:5 () with
     | Ok r ->
         Alcotest.(check bool)
           "workload made progress" true
           (r.Chaos.committed > 0)
     | Error m -> Alcotest.failf "seed 5 (100 nodes): %s" m);
    Treaty_obs.Trace.export_string ()
  in
  let a = trace_of () in
  let b = trace_of () in
  Alcotest.(check int) "trace sizes equal" (String.length a) (String.length b);
  Alcotest.(check bool) "100-node traces byte-identical" true (a = b)

let quiescent_baseline () =
  (* Leak-freedom without any faults: after a quiet period covering the
     dedup TTL and a couple of sweeps, no node may retain at-most-once
     cache entries, locks or transaction contexts. Establishes that a
     chaos-run quiescence failure really is fault-handling residue. *)
  let sim = Sim.create () in
  Sim.run sim (fun () ->
      let cfg =
        {
          (Config.with_profile Config.default Config.treaty_enc_stab) with
          Config.dedup_ttl_ns = 200_000_000;
          sweep_interval_ns = 100_000_000;
        }
      in
      match Cluster.create sim cfg () with
      | Error m -> Alcotest.failf "bootstrap: %s" m
      | Ok cluster ->
          let c = Client.connect_exn cluster ~client_id:1 in
          for i = 1 to 6 do
            match
              Client.with_txn c ~coord:((i mod 3) + 1) (fun txn ->
                  match Client.put c txn (Printf.sprintf "base:k%d" i) "v" with
                  | Ok () -> Client.put c txn (Printf.sprintf "base:j%d" i) "w"
                  | Error e -> Error e)
            with
            | Ok () -> ()
            | Error e -> Alcotest.failf "txn %d: %s" i (Types.abort_reason_to_string e)
          done;
          Client.disconnect c;
          Sim.sleep sim 1_000_000_000;
          (match Cluster.check_quiescent cluster with
          | Ok () -> ()
          | Error m -> Alcotest.failf "residual state after quiet period: %s" m);
          Cluster.shutdown cluster)

let sweep_50_seeds () =
  let failures = ref [] in
  for seed = 1 to 50 do
    (* Every seed runs the shipped commit pipeline (epoch-batched
       stabilization, Clog group commit, burst-sealed eRPC, Bloom + verified
       block cache). Two independent axes split the sweep: 2PL vs OCC by
       seed parity (validation aborts racing crashes and partitions), and 3
       vs 4 nodes by the next bit (quorums and shard placement change with
       the cluster size), so every (cc, nodes) cell gets at least 12
       seeds. *)
    let config =
      {
        Chaos.default_config with
        Chaos.cc = (if seed mod 2 = 0 then Types.Pessimistic else Types.Optimistic);
        nodes = (if (seed / 2) mod 2 = 0 then 3 else 4);
      }
    in
    match Chaos.run_seed ~config ~seed () with
    | Ok _ -> ()
    | Error m -> failures := (seed, m) :: !failures
  done;
  match List.rev !failures with
  | [] -> ()
  | (seed, m) :: _ as fs ->
      Alcotest.failf "%d/50 seeds failed; first: seed %d: %s" (List.length fs)
        seed m

(* True when [sched] has two distinct nodes down at overlapping times that
   are both members of a third node's protection group: that owner has no
   ROTE quorum while both are down. *)
let starves_a_group (sched : Schedule.t) =
  let peers = List.init sched.nodes (fun i -> i + 1) in
  let crashes =
    List.filter_map
      (function
        | Schedule.Crash_restart { node; at_ns; down_ns } ->
            Some (node + 1, at_ns, at_ns + down_ns)
        | _ -> None)
      sched.faults
  in
  List.exists
    (fun (a, a0, a1) ->
      List.exists
        (fun (b, b0, b1) ->
          a < b && a0 < b1 && b0 < a1
          && List.exists
               (fun owner ->
                 let g = Rote.group ~self:owner ~peers in
                 owner <> a && owner <> b && List.mem a g && List.mem b g)
               peers)
        crashes)
    crashes

let sweep_6_nodes () =
  (* At 6 nodes each protection group (owner + two ring successors) is a
     proper subset of the cluster, so a crash takes out one or two thirds
     of some groups rather than a share of one cluster-wide group. Seeds
     41-52: 12 seeds, cc by parity as in the 50-seed sweep. Seeds 47 (OCC)
     and 48 (2PL) crash two members of one group at overlapping times;
     asserted below so the cell cannot silently lose that coverage. *)
  let seeds = List.init 12 (fun i -> 41 + i) in
  let config seed =
    {
      Chaos.default_config with
      Chaos.cc = (if seed mod 2 = 0 then Types.Pessimistic else Types.Optimistic);
      nodes = 6;
    }
  in
  List.iter
    (fun cc ->
      Alcotest.(check bool)
        "a schedule starves a group under each cc mode" true
        (List.exists
           (fun seed ->
             (config seed).Chaos.cc = cc
             && starves_a_group
                  (Schedule.generate ~seed ~nodes:6
                     ~horizon_ns:Chaos.default_config.Chaos.horizon_ns))
           seeds))
    [ Types.Pessimistic; Types.Optimistic ];
  let failures =
    List.filter_map
      (fun seed ->
        match Chaos.run_seed ~config:(config seed) ~seed () with
        | Ok _ -> None
        | Error m -> Some (seed, m))
      seeds
  in
  match failures with
  | [] -> ()
  | (seed, m) :: _ ->
      Alcotest.failf "%d/12 seeds failed; first: seed %d: %s"
        (List.length failures) seed m

let suite =
  [
    Alcotest.test_case "schedule generation is deterministic" `Quick
      schedule_deterministic;
    Alcotest.test_case "same seed reproduces the run" `Quick run_reproducible;
    Alcotest.test_case "cc modes are individually deterministic" `Quick
      cc_modes_reproducible;
    Alcotest.test_case "fault-free runs drain to zero residual state" `Quick
      quiescent_baseline;
    Alcotest.test_case "100-node same-seed traces are byte-identical" `Slow
      hundred_node_trace_identity;
    Alcotest.test_case "50-seed fault sweep holds all invariants" `Slow
      sweep_50_seeds;
    Alcotest.test_case "6-node sweep: faults inside protection groups" `Slow
      sweep_6_nodes;
  ]
