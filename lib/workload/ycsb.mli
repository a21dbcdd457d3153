(** YCSB workload generator, configured as the paper does (§VIII).

    Default shape: 10 operations per transaction, 1000 B values, 10 k unique
    keys, uniform distribution; read fraction per experiment (50%R for the
    2PC microbenchmark, 20%R write-heavy and 80%R read-heavy for Figures 5–7;
    zipfian available for contention studies). *)

type config = {
  read_fraction : float;
  ops_per_txn : int;
  value_size : int;
  n_keys : int;
  distribution : [ `Uniform | `Zipfian of float ];
}

val default : config
(** 50%R, 10 ops/tx, 1000 B, 10 k keys, uniform. *)

(** 80%R. *)
val read_heavy : config

(** 20%R. *)
val write_heavy : config

type op = Read of string | Update of string * string

val key_of_index : int -> string

val load : config -> Treaty_core.Client.t -> Treaty_sim.Rng.t -> unit
(** Populate the key space through one loader client: batches of 100 keys
    in index order, one random [value_size]-byte value per key drawn from
    the given RNG. Raises {!Driver.Load_failure} if a batch aborts. *)

type generator

val generator : config -> Treaty_sim.Rng.t -> generator

val next_txn : generator -> op list
(** One transaction's operation list. *)

val txn :
  ?ro_fast_path:bool ->
  config ->
  (Treaty_core.Client.t ->
  client_index:int ->
  Treaty_sim.Rng.t ->
  unit Treaty_core.Types.txn_result)
(** A transaction function for {!Driver.run_clients}. Each [client_index]
    gets its own generator, created from that client's RNG on its first
    transaction. With [ro_fast_path] (default off), an all-read transaction
    is declared read-only up front and executed through
    {!Treaty_core.Client.read_only}: zero locks, no 2PC, one snapshot round
    per owning shard. *)
