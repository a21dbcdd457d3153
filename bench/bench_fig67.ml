(* Figures 6 and 7: single-node transactions (one Treaty node), pessimistic
   (Fig. 6) and optimistic (Fig. 7) concurrency control, under TPC-C (10W)
   and YCSB (20%R and 80%R; 10 ops/tx, 1000 B values, uniform, 10k keys).

   Six systems: RocksDB (plain native engine), Native Treaty, Native Treaty
   w/ Enc, Treaty w/o Enc (SCONE), Treaty w/ Enc, Treaty w/ Enc w/ Stab.

   Paper (Fig. 6, pessimistic): Native Treaty ~= RocksDB; encryption adds
   little natively; SCONE w/o Enc ~1.6x, w/ Enc ~2x, w/ Stab ~2.1x on TPC-C;
   on YCSB the full system lands at ~3.2x-3.5x. (Fig. 7, optimistic): the
   full system is ~5x (TPC-C) and ~4x (YCSB) slower than RocksDB;
   stabilization costs ~10% latency but little throughput. *)

open Treaty_core
module W = Treaty_workload

let systems =
  [
    ("RocksDB", Config.ds_rocksdb);
    ("Native Treaty", Config.native_treaty);
    ("Native Treaty w/ Enc", Config.native_treaty_enc);
    ("Treaty w/o Enc", Config.treaty_no_enc);
    ("Treaty w/ Enc", Config.treaty_enc);
    ("Treaty w/ Enc w/ Stab", Config.treaty_enc_stab);
  ]

let single_node c = { c with Config.nodes = 1 }

(* Single-node runs execute every transaction through the read-write path:
   no read-only fast path under OCC either. *)
let ycsb_single sim profile ~isolation ~read_fraction ~clients =
  let ycsb = { W.Ycsb.default with W.Ycsb.read_fraction } in
  snd
    (Common.ycsb_run ~isolation ~ro_fast_path:false ~config:single_node sim
       profile ~ycsb ~clients)

let tpcc_single sim profile ~isolation ~clients =
  Common.tpcc_run ~isolation ~config:single_node sim profile
    ~tpcc:(W.Tpcc.config ~warehouses:10 ())
    ~seed:13L ~clients

let run_table ~isolation ~workloads =
  List.iter
    (fun (wl_label, runner) ->
      Common.subsection wl_label;
      Common.print_table
        (List.map
           (fun (name, profile) ->
             (name, Common.run_sim (fun sim -> runner sim profile ~isolation)))
           systems))
    workloads

let workloads () =
  let clients = if !Common.full_mode then 32 else 24 in
  [
    ("TPC-C (10 warehouses)", fun sim p ~isolation -> tpcc_single sim p ~isolation ~clients);
    ( "YCSB write-heavy (20% reads)",
      fun sim p ~isolation -> ycsb_single sim p ~isolation ~read_fraction:0.2 ~clients );
    ( "YCSB read-heavy (80% reads)",
      fun sim p ~isolation -> ycsb_single sim p ~isolation ~read_fraction:0.8 ~clients );
  ]

let run_fig6 () =
  Common.section "Figure 6: single-node pessimistic transactions";
  run_table ~isolation:Types.Pessimistic ~workloads:(workloads ());
  Common.expected
    "Native ~= RocksDB; SCONE w/o Enc ~1.6x, w/ Enc ~2x, w/ Stab ~2.1x (TPC-C); ~2.7-3.5x (YCSB)"

let run_fig7 () =
  Common.section "Figure 7: single-node optimistic transactions";
  run_table ~isolation:Types.Optimistic ~workloads:(workloads ());
  Common.expected
    "full system ~5x (TPC-C) and ~4x (YCSB) slower than RocksDB; Stab ~10%% latency, little throughput"
