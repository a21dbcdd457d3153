(* Trusted counter service (ROTE) and the asynchronous stabilization
   client: quorum behaviour, monotonicity, batching, recovery queries. *)

module Sim = Treaty_sim.Sim
module Enclave = Treaty_tee.Enclave
module Net = Treaty_netsim.Net
module Erpc = Treaty_rpc.Erpc
module Rote = Treaty_counter.Rote
module CC = Treaty_counter.Counter_client

let mk_group ?(n = 3) sim net =
  List.init n (fun i ->
      let id = i + 1 in
      let enclave =
        Enclave.create sim ~mode:Enclave.Scone ~cost:Treaty_sim.Costmodel.default
          ~cores:4 ~node_id:id ~code_identity:"rote-test"
      in
      let pool = Treaty_memalloc.Mempool.create enclave in
      let rpc =
        Erpc.create sim ~net ~enclave ~pool
          ~config:(Erpc.default_config ~security:Treaty_rpc.Secure_msg.Plain)
          ~node_id:id ()
      in
      (rpc, Rote.create_replica rpc ~group:(List.init n (fun j -> j + 1)) ()))

let with_group ?n f =
  let sim = Sim.create () in
  let net = Net.create sim Treaty_sim.Costmodel.default in
  Sim.run sim (fun () -> f sim (mk_group ?n sim net))

let increment_and_query () =
  with_group (fun _sim group ->
      let _, r1 = List.hd group in
      (match Rote.increment r1 ~owner:1 ~log:"WAL" ~value:5 with
      | Ok () -> ()
      | Error `No_quorum -> Alcotest.fail "quorum available");
      List.iteri
        (fun i (_, r) ->
          Alcotest.(check int)
            (Printf.sprintf "replica %d holds the value" i)
            5
            (Rote.local_value r ~owner:1 ~log:"WAL"))
        group;
      match Rote.query r1 ~owner:1 ~log:"WAL" with
      | Ok 5 -> ()
      | Ok v -> Alcotest.failf "query returned %d" v
      | Error `No_quorum -> Alcotest.fail "query quorum")

let counters_are_namespaced () =
  with_group (fun _sim group ->
      let _, r1 = List.hd group in
      ignore (Rote.increment r1 ~owner:1 ~log:"A" ~value:3);
      ignore (Rote.increment r1 ~owner:1 ~log:"B" ~value:7);
      ignore (Rote.increment r1 ~owner:2 ~log:"A" ~value:11);
      Alcotest.(check int) "owner1/A" 3 (Rote.local_value r1 ~owner:1 ~log:"A");
      Alcotest.(check int) "owner1/B" 7 (Rote.local_value r1 ~owner:1 ~log:"B");
      Alcotest.(check int) "owner2/A" 11 (Rote.local_value r1 ~owner:2 ~log:"A"))

let survives_minority_crash () =
  with_group (fun _sim group ->
      let (_, r1), (rpc2, _), _ =
        match group with [ a; b; c ] -> (a, b, c) | _ -> assert false
      in
      ignore (Rote.increment r1 ~owner:1 ~log:"L" ~value:4);
      Erpc.shutdown rpc2;
      (match Rote.increment r1 ~owner:1 ~log:"L" ~value:5 with
      | Ok () -> ()
      | Error `No_quorum -> Alcotest.fail "2/3 should still be a quorum");
      match Rote.query r1 ~owner:1 ~log:"L" with
      | Ok 5 -> ()
      | _ -> Alcotest.fail "query after minority crash")

let no_quorum_fails () =
  with_group (fun _sim group ->
      let (_, r1), (rpc2, _), (rpc3, _) =
        match group with [ a; b; c ] -> (a, b, c) | _ -> assert false
      in
      Erpc.shutdown rpc2;
      Erpc.shutdown rpc3;
      match Rote.increment r1 ~owner:1 ~log:"L" ~value:1 with
      | Error `No_quorum -> ()
      | Ok () -> Alcotest.fail "1/3 is not a quorum")

let recovery_query_from_peers () =
  (* The owner crashes and loses its replica state; the group remembers. *)
  with_group (fun _sim group ->
      let (_, r1), (_, r2), _ =
        match group with [ a; b; c ] -> (a, b, c) | _ -> assert false
      in
      ignore (Rote.increment r1 ~owner:1 ~log:"WAL" ~value:42);
      (* A fresh replica (recovering node 1) queries the group through any
         member; here through replica 2's endpoint. *)
      match Rote.query r2 ~owner:1 ~log:"WAL" with
      | Ok 42 -> ()
      | Ok v -> Alcotest.failf "peers returned %d" v
      | Error `No_quorum -> Alcotest.fail "quorum")

let query_counts_only_values () =
  (* Member 2 is down and member 3 answers queries with bytes that do not
     decode to a value: only self's value is valid, short of the quorum of
     2, so the query must not report a trusted value. *)
  with_group (fun _sim group ->
      let (_, r1), (rpc2, _), (rpc3, _) =
        match group with [ a; b; c ] -> (a, b, c) | _ -> assert false
      in
      ignore (Rote.increment r1 ~owner:1 ~log:"WAL" ~value:9);
      Erpc.shutdown rpc2;
      Erpc.register rpc3 ~kind:Rote.kind_query (fun _meta _payload -> "bad");
      match Rote.query r1 ~owner:1 ~log:"WAL" with
      | Error `No_quorum -> ()
      | Ok v -> Alcotest.failf "query reported %d from one valid reply" v)

let ids n = List.init n (fun i -> i + 1)

let group_membership () =
  List.iter
    (fun n ->
      let peers = ids n in
      List.iter
        (fun self ->
          let g = Rote.group ~self ~peers in
          Alcotest.(check int)
            (Printf.sprintf "N=%d node %d: size" n self)
            (min n Rote.group_size) (List.length g);
          Alcotest.(check bool)
            (Printf.sprintf "N=%d node %d: contains self" n self)
            true (List.mem self g))
        peers)
    [ 1; 2; 3; 4; 5; 8; 32; 100 ];
  Alcotest.(check (list int)) "node 4 of 8" [ 4; 5; 6 ] (Rote.group ~self:4 ~peers:(ids 8));
  Alcotest.(check (list int)) "node N wraps" [ 1; 2; 8 ] (Rote.group ~self:8 ~peers:(ids 8));
  Alcotest.(check (list int)) "node N-1 wraps" [ 1; 7; 8 ] (Rote.group ~self:7 ~peers:(ids 8))

let group_keeps_peer_order () =
  let peers = [ 5; 2; 7; 1; 3 ] in
  (* Ring 1 2 3 5 7: node 5's successors are 7 and 1 (wrapping). *)
  Alcotest.(check (list int)) "order of peers" [ 5; 7; 1 ] (Rote.group ~self:5 ~peers);
  Alcotest.(check (list int)) "order of peers" [ 2; 1; 3 ] (Rote.group ~self:1 ~peers);
  List.iter
    (fun peers ->
      List.iter
        (fun self ->
          Alcotest.(check (list int)) "small cluster unchanged" peers
            (Rote.group ~self ~peers))
        peers)
    [ [ 1 ]; [ 2; 1 ]; [ 3; 1; 2 ]; [ 1; 2; 3 ] ]

let group_load_balanced () =
  (* Every node protects exactly min(N, 3) owners, itself included. *)
  List.iter
    (fun n ->
      let peers = ids n in
      let groups = List.map (fun self -> Rote.group ~self ~peers) peers in
      List.iter
        (fun m ->
          let count = List.length (List.filter (List.mem m) groups) in
          Alcotest.(check int)
            (Printf.sprintf "N=%d: node %d is in %d groups" n m count)
            (min n Rote.group_size) count)
        peers)
    [ 1; 2; 3; 4; 6; 10; 33 ]

let expect_stable what = function
  | Ok () -> ()
  | Error `Stability_timeout -> Alcotest.failf "%s: stability timeout" what

let client_batches_rounds () =
  with_group (fun sim group ->
      let _, r1 = List.hd group in
      let cc = CC.create r1 ~owner:1 in
      (* A burst of submits coalesces: far fewer rounds than submits. *)
      for c = 1 to 50 do
        CC.submit cc ~log:"WAL" ~counter:c
      done;
      expect_stable "watermark" (CC.wait_stable cc ~log:"WAL" ~counter:50);
      Alcotest.(check int) "stable watermark" 50 (CC.stable_value cc ~log:"WAL");
      let rounds = (CC.stats cc).CC.rounds_started in
      Alcotest.(check bool)
        (Printf.sprintf "batched (%d rounds for 50 submits)" rounds)
        true (rounds <= 5);
      (* wait_stable below the watermark returns immediately. *)
      let t0 = Sim.now sim in
      expect_stable "below watermark" (CC.wait_stable cc ~log:"WAL" ~counter:10);
      Alcotest.(check int) "no wait below watermark" t0 (Sim.now sim))

let client_wakes_waiters_in_order () =
  with_group (fun sim group ->
      let _, r1 = List.hd group in
      let cc = CC.create r1 ~owner:1 in
      let woken = ref [] in
      for c = 1 to 3 do
        Sim.spawn sim (fun () ->
            expect_stable "waiter" (CC.wait_stable cc ~log:"L" ~counter:c);
            woken := c :: !woken)
      done;
      Sim.sleep sim 100_000_000;
      Alcotest.(check int) "all waiters woken" 3 (List.length !woken);
      Alcotest.(check int) "watermark covers all" 3 (CC.stable_value cc ~log:"L"))

let multi_log_epoch_rounds () =
  (* The epoch pump drains every dirty log per round: submits spread over
     three logs cost barely more rounds than one log, and each log's stable
     watermark lands on its own highest submitted value. *)
  with_group (fun _sim group ->
      let _, r1 = List.hd group in
      let cc = CC.create r1 ~owner:1 in
      let logs = [ ("WAL", 30); ("MANIFEST", 7); ("Clog", 19) ] in
      List.iter
        (fun (log, hi) ->
          for c = 1 to hi do
            CC.submit cc ~log ~counter:c
          done)
        logs;
      List.iter
        (fun (log, hi) ->
          expect_stable log (CC.wait_stable cc ~log ~counter:hi);
          Alcotest.(check int)
            (log ^ " watermark") hi
            (CC.stable_value cc ~log))
        logs;
      let s = CC.stats cc in
      Alcotest.(check bool)
        (Printf.sprintf "cross-log batching (%d rounds)" s.CC.rounds_started)
        true
        (s.CC.rounds_started <= 5);
      let rs = Rote.stats r1 in
      Alcotest.(check bool)
        (Printf.sprintf "rounds carry multiple targets (%d targets / %d incs)"
           rs.Rote.targets rs.Rote.increments)
        true
        (rs.Rote.targets > rs.Rote.increments))

let abandoned_round_fails_waiters () =
  (* Quorum loss past the retry budget must fail pending waiters with
     [`Stability_timeout], not strand their fibers forever. *)
  with_group (fun sim group ->
      let (_, r1), (rpc2, _), (rpc3, _) =
        match group with [ a; b; c ] -> (a, b, c) | _ -> assert false
      in
      Erpc.shutdown rpc2;
      Erpc.shutdown rpc3;
      let cc = CC.create ~attempts:2 ~retry_backoff_ns:1_000_000 r1 ~owner:1 in
      let outcome = ref `Pending in
      Sim.spawn sim (fun () ->
          match CC.wait_stable cc ~log:"WAL" ~counter:1 with
          | Ok () -> outcome := `Stable
          | Error `Stability_timeout -> outcome := `Failed);
      Sim.sleep sim 500_000_000;
      (match !outcome with
      | `Failed -> ()
      | `Stable -> Alcotest.fail "stabilized without a quorum"
      | `Pending -> Alcotest.fail "waiter hung on the abandoned round");
      Alcotest.(check int) "failure counted" 1 (CC.stats cc).CC.failed_waits;
      Alcotest.(check int) "nothing stable" 0 (CC.stable_value cc ~log:"WAL"))

let suite =
  [
    Alcotest.test_case "increment + quorum query" `Quick increment_and_query;
    Alcotest.test_case "counters namespaced by (owner, log)" `Quick counters_are_namespaced;
    Alcotest.test_case "survives minority crash" `Quick survives_minority_crash;
    Alcotest.test_case "no quorum -> unavailable" `Quick no_quorum_fails;
    Alcotest.test_case "recovery queries the group" `Quick recovery_query_from_peers;
    Alcotest.test_case "query quorum counts only values" `Quick query_counts_only_values;
    Alcotest.test_case "group: size, self, wrap-around" `Quick group_membership;
    Alcotest.test_case "group: peer order, small clusters" `Quick group_keeps_peer_order;
    Alcotest.test_case "group: every node in min(N,3) groups" `Quick group_load_balanced;
    Alcotest.test_case "stabilization batches rounds" `Quick client_batches_rounds;
    Alcotest.test_case "waiters woken at watermark" `Quick client_wakes_waiters_in_order;
    Alcotest.test_case "epoch rounds span all logs" `Quick multi_log_epoch_rounds;
    Alcotest.test_case "abandoned round fails waiters" `Quick abandoned_round_fails_waiters;
  ]
