(* Shared plumbing for the figure/table benchmarks. *)

open Treaty_core
module Sim = Treaty_sim.Sim
module W = Treaty_workload

let full_mode = ref false
(* Quick mode scales client counts and windows down so the whole suite runs
   in minutes; --full uses the paper's parameters. *)

let scale_clients n = if !full_mode then n else max 4 (n / 4)
let duration_ns () = if !full_mode then 1_000_000_000 else 300_000_000
let warmup_ns () = if !full_mode then 200_000_000 else 60_000_000

let section title =
  Printf.printf "\n=== %s ===\n%!" title

let subsection title = Printf.printf "\n--- %s ---\n%!" title

(* Seed of every cluster simulation the figure benches run. *)
let sim_seed = 0xBE7CBE7CL

(* Run [f] as the main fiber of a fresh simulation and return its result. *)
let run_sim ?(seed = sim_seed) f =
  let sim = Sim.create ~seed () in
  let result = Sim.ivar () in
  Sim.run sim (fun () -> Sim.fill result (f sim));
  match Treaty_sched.Scheduler.Ivar.peek result with
  | Some r -> r
  | None -> failwith "bench: the simulation ended before its main fiber"

let cores () = if !full_mode then 8 else 2

let base_config profile =
  let c =
    Config.with_profile { Config.default with Config.record_history = false } profile
  in
  { c with Config.cores_per_node = cores () }

let make_cluster sim config ?route () =
  match Cluster.create sim config ?route () with
  | Ok c -> c
  | Error m -> failwith ("cluster bootstrap failed: " ^ m)

(* Run one YCSB configuration on a fresh cluster with the given profile.
   [isolation] selects the concurrency-control mode; under OCC all-read
   transactions are declared read-only and take the snapshot fast path, as
   the CLI does, unless [ro_fast_path] says otherwise. [config] adjusts the
   cluster configuration last. Returns the shut-down cluster (its node
   stats stay readable) with the driver result. *)
let ycsb_run ?(isolation = Types.Pessimistic)
    ?(ro_fast_path = isolation = Types.Optimistic) ?(config = Fun.id) sim
    profile ~ycsb ~clients =
  let config = config { (base_config profile) with Config.isolation } in
  let cluster = make_cluster sim config () in
  W.Driver.load cluster ~seed:7L (W.Ycsb.load ycsb);
  let r =
    W.Driver.run_clients cluster ~clients ~duration_ns:(duration_ns ())
      ~warmup_ns:(warmup_ns ()) ~txn:(W.Ycsb.txn ~ro_fast_path ycsb) ()
  in
  Cluster.shutdown cluster;
  (cluster, r)

(* Run TPC-C on a fresh cluster sharded by warehouse, configured as
   {!ycsb_run} does; [seed] seeds the loader's RNG. *)
let tpcc_run ?(isolation = Types.Pessimistic) ?(config = Fun.id) sim profile
    ~tpcc ~seed ~clients =
  let config = config { (base_config profile) with Config.isolation } in
  let nodes = config.Config.nodes in
  let cluster = make_cluster sim config ~route:(W.Tpcc.route tpcc ~nodes) () in
  W.Driver.load cluster ~seed (W.Tpcc.load tpcc);
  let r =
    W.Driver.run_clients cluster ~clients ~duration_ns:(duration_ns ())
      ~warmup_ns:(warmup_ns ()) ~txn:(W.Tpcc.txn tpcc ~nodes) ()
  in
  Cluster.shutdown cluster;
  r

(* --- BENCH_*.json --------------------------------------------------------- *)

type json =
  | Int of int
  | Fixed of int * float  (** decimals, value *)
  | Str of string
  | List of json list
  | Obj of (string * json) list

(* Objects nested in a list or another object print on one line; the
   top-level object and lists print one element per line. *)
let rec json_to_buffer b ~indent = function
  | Int n -> Buffer.add_string b (string_of_int n)
  | Fixed (d, x) -> Printf.bprintf b "%.*f" d x
  | Str s -> Printf.bprintf b "%S" s
  | List items ->
      let pad = String.make (indent + 2) ' ' in
      Buffer.add_string b "[\n";
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string b ",\n";
          Buffer.add_string b pad;
          json_to_buffer b ~indent:(indent + 2) v)
        items;
      Printf.bprintf b "\n%s]" (String.make indent ' ')
  | Obj fields ->
      Buffer.add_string b "{ ";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ", ";
          Printf.bprintf b "%S: " k;
          json_to_buffer b ~indent v)
        fields;
      Buffer.add_string b " }"

(* Write BENCH_<bench>.json: the bench name, the mode, the seed of the
   simulation the rows come from, then [fields]. *)
let write_bench ~bench ~seed fields =
  let fields =
    ("bench", Str bench)
    :: ("mode", Str (if !full_mode then "full" else "quick"))
    :: ("seed", Int (Int64.to_int seed))
    :: fields
  in
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b "  %S: " k;
      json_to_buffer b ~indent:2 v)
    fields;
  Buffer.add_string b "\n}\n";
  let file = Printf.sprintf "BENCH_%s.json" bench in
  let oc = open_out file in
  output_string oc (Buffer.contents b);
  close_out oc;
  Printf.printf "  wrote %s\n%!" file

(* One row per system, with its slowdown relative to the first row. *)
let print_table results =
  let baseline_tps = W.Driver.tps (snd (List.hd results)) in
  List.iter
    (fun (label, r) ->
      let tps = W.Driver.tps r in
      Printf.printf
        "  %-24s %10.1f tps   slowdown %5.2fx   lat %6.2f ms (p99 %7.2f)\n%!"
        label tps
        (if tps > 0.0 then baseline_tps /. tps else nan)
        (W.Driver.mean_ms r) (W.Driver.p99_ms r))
    results

let expected fmt = Printf.printf ("  paper:    " ^^ fmt ^^ "\n%!")
