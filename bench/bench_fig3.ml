(* Figure 3: distributed transactions under TPC-C with 10 warehouses (heavy
   W-W conflicts) and 100 warehouses (low conflict), 3 nodes.

   Paper: 10W — Treaty 8x-11x slower than DS-RocksDB (780 tps); DS-RocksDB
   and the non-Stab Treaty variants saturate at 10 clients, the Stab variant
   scales to 16 because lock-free stabilization windows admit more requests.
   100W — overheads drop to 4x-6x (DS-RocksDB at 1200 tps); saturation moves
   from 60 to 84 clients for the Stab variant.

   The warehouse count is the contention knob, which is what the figure is
   about; per-warehouse table sizes are simulation-scaled (DESIGN.md §2). *)

open Treaty_core
module W = Treaty_workload

let systems =
  [
    ("DS-RocksDB", Config.ds_rocksdb, Types.Pessimistic);
    ("Treaty w/o Enc", Config.treaty_no_enc, Types.Pessimistic);
    ("Treaty w/ Enc", Config.treaty_enc, Types.Pessimistic);
    ("Treaty w/ Enc w/ Stab", Config.treaty_enc_stab, Types.Pessimistic);
    (* cc ablation rider: TPC-C transactions are all read-write, so this
       isolates OCC validation cost under contention (no ro fast path). *)
    ("Treaty w/ Stab OCC", Config.treaty_enc_stab, Types.Optimistic);
  ]

let run_warehouses ~label ~tpcc ~clients =
  Common.subsection label;
  Common.print_table
    (List.map
       (fun (name, profile, isolation) ->
         ( name,
           Common.run_sim (fun sim ->
               Common.tpcc_run ~isolation sim profile ~tpcc ~seed:11L ~clients)
         ))
       systems)

let run () =
  Common.section "Figure 3: distributed transactions, TPC-C";
  run_warehouses ~label:"10 warehouses (high contention)"
    ~tpcc:(W.Tpcc.config ~warehouses:10 ())
    ~clients:(if !Common.full_mode then 16 else 12);
  Common.expected "Treaty 8x-11x slower than DS-RocksDB (~780 tps)";
  let big =
    let c = W.Tpcc.config ~warehouses:100 () in
    (* Simulation-scaled per-warehouse tables; contention comes from the
       warehouse count. *)
    { c with W.Tpcc.items = 100; customers_per_district = 20 }
  in
  run_warehouses ~label:"100 warehouses (low contention)" ~tpcc:big
    ~clients:(if !Common.full_mode then 84 else 48);
  Common.expected "overheads drop to 4x-6x (DS-RocksDB ~1200 tps)"
