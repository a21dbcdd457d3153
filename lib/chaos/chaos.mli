(** Fault-injection harness: run a seeded {!Schedule} against a live cluster
    under a mixed bank-transfer / key-value workload, then check the
    system-level invariants the paper promises:

    - {b serializability} — the committed history's conflict graph is acyclic
      ({!Treaty_core.Serializability});
    - {b durability} — every client-acked commit is readable after all
      crashes have been recovered;
    - {b atomicity} — bank-transfer conservation: the sum over all accounts
      never changes;
    - {b leak-freedom} — once traffic stops and sweeps/TTLs run, every node's
      residual protocol state drains to zero
      ({!Treaty_core.Cluster.check_quiescent}).

    Everything is driven by simulated time from a single seed, so a failing
    seed reproduces exactly. *)

type config = {
  nodes : int;
  clients : int;
  horizon_ns : int;  (** Length of the fault + workload window. *)
  accounts : int;  (** Bank accounts, spread across shards. *)
  initial_balance : int;
  keys_per_client : int;  (** Private keys per client for the kv workload. *)
  drain_ns : int;  (** Post-schedule settle time before invariant checks. *)
  cc : Treaty_core.Types.isolation;
      (** Concurrency-control mode for the whole cluster:
          [Pessimistic] (2PL, the default) or [Optimistic]
          (OCC — lock-free reads validated at prepare). The same fault
          schedules and invariants apply under either mode. *)
  trace : bool;
      (** Record a {!Treaty_obs.Trace} of the whole run (reset at cluster
          creation, frozen when {!run_seed} returns — the caller exports it).
          Traces are a pure function of the seed: same seed, byte-identical
          JSON. *)
}

val default_config : config

type report = {
  schedule : Schedule.t;
  committed : int;  (** Client-acked commits across the workload. *)
  aborted : int;
  history_txs : int;  (** Transactions fed to the serializability checker. *)
}

val pp_report : Format.formatter -> report -> unit

val run_seed : ?config:config -> seed:int -> unit -> (report, string) result
(** Build the schedule for [seed], run it, check every invariant. [Error]
    carries the failed invariant plus the schedule rendering, enough to
    replay the exact run. Creates and drives its own simulation — call from
    plain code, not from inside [Sim.run]. *)
