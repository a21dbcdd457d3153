(** Treaty's secure message layout (§VII-A).

    On the wire a secure message is

    {v IV (12 B) | pad (4 B) | enc( metadata (80 B) | data ) | MAC (16 B) v}

    Metadata carries the coordinator node id, the transaction id
    (monotonically incremented at the coordinator) and the operation id —
    the unique triple that gives at-most-once execution — plus RPC plumbing
    (source node, handler kind, response flag, request id). Only metadata and
    data are encrypted; if the IV or MAC is altered the integrity check
    fails. Plain mode (the native baselines) sends the same metadata
    unencrypted with no IV/MAC. *)

type meta = {
  coord : int;  (** Coordinator node id (8 B on the wire). *)
  tx_seq : int;  (** Tx id, monotonic per coordinator (8 B). *)
  op_id : int;  (** Operation id, unique within the Tx (8 B). *)
  src : int;  (** Sending node. *)
  kind : int;  (** Request-handler selector. *)
  is_response : bool;
  req_id : int;  (** RPC-level id matching a response to its request. *)
}

val meta_size : int
(** 80 bytes, as in the paper. *)

val at_most_once_key : meta -> int * int * int
(** The (coord, tx, op) triple that must never execute twice. *)

type security = Plain | Secure of Treaty_crypto.Aead.key

val encode :
  security -> iv_gen:Treaty_crypto.Aead.Iv_gen.t -> meta -> string -> string
(** Wire-encode metadata and payload data. *)

val decode :
  security -> string -> (meta * string, [ `Tampered | `Malformed ]) result
(** [`Tampered] is a MAC mismatch — the signature of an adversary on the
    wire; [`Malformed] a structurally invalid message. A plain-mode decoder
    applied to a secure message (or vice versa) is [`Malformed]. *)

val wire_size : security -> data_len:int -> int
(** Size of the encoded message for a payload of [data_len] bytes. *)

(** Packet envelope format v3: burst-level AEAD.

    A whole eRPC burst becomes ONE sealed packet —

    {v 0x03 | IV (12 B) | count (4 B) | len_i (4 B each)
       | enc( meta_0|data_0 | ... ) | MAC (16 B) v}

    — one IV, one ChaCha20 keystream pass and one Poly1305 tag per packet instead
    of per sub-message. The version byte, IV, count and the sub-message
    length table form the AAD of the packet-level AEAD: tampering with any
    framing length or body byte fails the single MAC and rejects the whole
    packet as [`Tampered]. Plain mode uses the same framing without IV/MAC.

    Encoding writes through a cursor into a caller-provided (mempool-backed)
    buffer and seals in place; decoding verifies once, decrypts in place
    and hands out per-message views. *)
module Burst : sig
  val version : int
  (** Leading packet byte: [3], the ChaCha20-Poly1305 seal. Endpoints
      reject the retired envelopes: v1 (leading [1], per-message seals) and
      v2 (leading [2], the same framing under ChaCha20 + truncated
      HMAC-SHA256). *)

  val wire_size : security -> data_lens:int list -> int
  (** Exact packet size for a burst whose payloads have the given sizes. *)

  val encode_into :
    security ->
    iv_gen:Treaty_crypto.Aead.Iv_gen.t ->
    Bytes.t ->
    (meta * string) list ->
    int
  (** Frame, encrypt and MAC the burst into [buf] starting at offset 0
      (which must hold at least [wire_size] bytes); returns the bytes
      written. *)

  val decode :
    security ->
    string ->
    ((meta * string) list, [ `Tampered | `Malformed ]) result
  (** One verification and one decryption for the whole packet; [`Tampered]
      on any MAC failure (including a framing-length flip), [`Malformed] on
      structural damage (version byte, truncation). *)
end
