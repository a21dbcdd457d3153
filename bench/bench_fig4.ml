(* Figure 4: throughput slowdown of Treaty's 2PC protocol alone — no
   underlying storage — under YCSB 50R/50W (10 ops/tx, 1000 B values),
   normalized to a native, non-secure 2PC.

   Systems: Native 2PC (baseline), Native w/ Enc, Secure (SCONE) w/o Enc,
   Secure (SCONE) w/ Enc. Paper: minimal encryption overhead natively;
   1.8x for SCONE without encryption; 2x for SCONE with encryption. *)

open Treaty_core
module W = Treaty_workload
module Enclave = Treaty_tee.Enclave

let profiles =
  let secure = { Config.ds_rocksdb with Config.tee = Enclave.Scone } in
  [
    ("Native 2PC", Config.ds_rocksdb);
    ("Native w/ Enc", { Config.ds_rocksdb with Config.encryption = true });
    ("Secure w/o Enc", secure);
    ("Secure w/ Enc", { secure with Config.encryption = true });
  ]

(* The protocol alone: an in-memory engine with no group commit and no
   commit-stability waits. *)
let no_storage c =
  {
    c with
    Config.engine =
      {
        c.Config.engine with
        Treaty_storage.Engine.in_memory = true;
        group_commit = false;
        wait_commit_stable = false;
      };
  }

let run () =
  Common.section "Figure 4: 2PC protocol in isolation (no storage)";
  (* Wide keyspace: the protocol benchmark must be CPU-bound, not
     lock-bound. *)
  let ycsb = { W.Ycsb.default with W.Ycsb.read_fraction = 0.5; n_keys = 50_000 } in
  let clients = if !Common.full_mode then 300 else 120 in
  Printf.printf "  YCSB 50R/50W, %d ops/tx, %dB values, %d clients, 3 nodes\n%!"
    ycsb.W.Ycsb.ops_per_txn ycsb.W.Ycsb.value_size clients;
  Common.print_table
    (List.map
       (fun (label, profile) ->
         ( label,
           Common.run_sim (fun sim ->
               snd (Common.ycsb_run sim profile ~ycsb ~clients ~config:no_storage))
         ))
       profiles);
  Common.expected
    "Native w/ Enc ~1.0-1.1x, Secure w/o Enc ~1.8x, Secure w/ Enc ~2.0x"
