(** Closed-loop benchmark driver.

    Mirrors the paper's setup: N client terminals on separate machines
    (client-NIC endpoints), each running transactions back-to-back against
    the cluster. A run has a warmup window (not recorded) and a measurement
    window; throughput is committed transactions over the measurement
    window, latency is per-transaction. *)

type result = {
  stats : Stats.t;
  duration_ns : int;
  clients : int;
}

exception Load_failure of string
(** Raised by {!load_batches} when a populate transaction aborts: the
    database is not in a usable state and the harness should stop. *)

val load_batches :
  Treaty_core.Client.t -> batch:int -> (string * string) Seq.t -> unit
(** Put every pair, [batch] pairs per transaction, in order. Each pair is
    produced once, when its turn comes. Raises {!Load_failure} if a batch
    aborts. *)

val load :
  Treaty_core.Cluster.t ->
  seed:int64 ->
  (Treaty_core.Client.t -> Treaty_sim.Rng.t -> unit) ->
  unit
(** [load cluster ~seed populate] runs [populate] (e.g. {!Ycsb.load} or
    {!Tpcc.load}) through one loader client with an RNG made from [seed],
    then disconnects it. Must run in a fiber, before the measured clients
    start. *)

val run_clients :
  Treaty_core.Cluster.t ->
  clients:int ->
  duration_ns:int ->
  ?warmup_ns:int ->
  ?first_client_id:int ->
  txn:
    (Treaty_core.Client.t ->
    client_index:int ->
    Treaty_sim.Rng.t ->
    unit Treaty_core.Types.txn_result) ->
  unit ->
  result
(** Spawn [clients] closed-loop terminals and run until the window closes.
    [txn] executes one transaction (retries are the workload's business; an
    [Error] counts as an abort). Must run in a fiber. *)

val tps : result -> float
val mean_ms : result -> float
val p99_ms : result -> float
