(** Distributed trusted counter service (§VI; after ROTE).

    SGX's hardware monotonic counters are too slow (~250 ms), wear out, and
    are private per CPU — so Treaty adopts a ROTE-style protection group:
    counter state is replicated in the enclaves of the group's nodes, and an
    increment runs an echo-broadcast with a final confirmation:

    1. the sender enclave (SE) broadcasts the counter update;
    2. each receiver enclave (RE) stores it in protected memory and echoes;
    3. on a quorum of echoes the SE starts a second round;
    4. each RE checks the value matches what it stored and (N)ACKs;
    5. on a quorum of ACKs the SE seals its state; the value is durable
       against the crash of any minority of the group.

    Each node owns one protection group of {!group_size} members (itself
    and its two ring successors, {!group}); its counters are replicated
    only there, so a round costs two peer calls at any cluster size.

    Counters are named by (owner node, log name) — one per authenticated log
    file. A counter value is *trusted* once incremented through the group:
    recovery asks the group ({!query}) and compares log tails against it. *)

type replica

val group_size : int
(** Members of a protection group: ROTE's n = u + 2f + 1 with u = 0 and
    f = 1, so the quorum [|group|/2 + 1] is u + f + 1 = 2. One crashed
    member leaves the owner's rounds live; two make them fail with
    [`No_quorum] (unavailable, never unsafe). *)

val group : self:int -> peers:int list -> int list
(** The protection group of node [self] in a cluster of node ids [peers]
    ([self] included): [self] and its two successors on the ring of ids
    sorted ascending, wrapping around. Members keep their order in
    [peers], so with [List.length peers <= group_size] the result is
    [peers] itself. Raises [Invalid_argument] if [self] is not in
    [peers]. *)

val kind_echo1 : int
val kind_echo2 : int
val kind_query : int
(** RPC handler kinds registered on each group member's endpoint. *)

type stats = {
  mutable increments : int;
      (** Confirmed-or-failed increment attempts (an epoch batch counts 1). *)
  mutable rounds : int;  (** Broadcast rounds run (2 per successful increment). *)
  mutable quorum_failures : int;
  mutable queries : int;
  mutable targets : int;
      (** Total (log, value) targets carried across all increments —
          [targets / increments] is the epoch-batching factor. *)
}

val create_replica :
  Treaty_rpc.Erpc.t ->
  group:int list ->
  ?persist:(string -> unit) ->
  ?restore:(unit -> string list) ->
  unit ->
  replica
(** Join the protection group [group] (node ids, self included), registering
    the counter RPC handlers on this node's endpoint. [persist] receives the
    sealed counter state after each confirmed increment; [restore] returns
    previously persisted blobs, oldest first — the newest one that unseals
    under this enclave's identity re-seeds the replica (ROTE step 5: a
    restarting SE resumes from its sealed state, so a crashed node's own
    counters survive even when the peers that ack'd them are down too).
    Restored state can only be stale-or-equal, never ahead, so the group
    [query] max stays correct; rolling the sealed file back is caught by any
    live peer holding a higher value. *)

val stats : replica -> stats
val sim : replica -> Treaty_sim.Sim.t

val increment :
  replica -> owner:int -> log:string -> value:int -> (unit, [ `No_quorum ]) result
(** Run the echo-broadcast to make [value] the trusted value of
    [(owner, log)]. Values must be submitted in increasing order; a larger
    value subsumes smaller ones. Blocks the calling fiber for the protocol
    rounds (~2 ms); fails if a quorum of the group is unreachable. *)

val increment_batch :
  replica ->
  owner:int ->
  targets:(string * int) list ->
  (unit, [ `No_quorum ]) result
(** Epoch-batched increment: one echo-broadcast (two rounds) carries one
    target value per log, so stabilizing WAL + MANIFEST + Clog costs the
    same as stabilizing one of them. Receivers treat the batch
    all-or-nothing: the second-round ack confirms every target, and on
    [Ok ()] all targets are trusted. [targets = \[\]] is a no-op. *)

val local_value : replica -> owner:int -> log:string -> int
(** This replica's in-enclave view (0 if unknown). *)

val query :
  replica -> owner:int -> log:string -> (int, [ `No_quorum ]) result
(** Quorum read for recovery: the highest value any quorum member holds.
    Only replies that decode to a value count toward the quorum (self
    included). *)
