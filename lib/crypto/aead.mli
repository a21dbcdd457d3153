(** Authenticated encryption with associated data.

    ChaCha20-Poly1305 as RFC 8439 §2.8 composes it: the Poly1305 one-time
    key is ChaCha20 block 0 under (key, IV), the payload is encrypted from
    block 1, and the tag covers [aad | pad16 | ct | pad16 | le64 len(aad) |
    le64 len(ct)]. Its sizes are the ones Treaty's message layout prescribes
    (§VII-A): a 12-byte IV and a 16-byte MAC. Tampering with the IV, the
    associated data, the ciphertext or the MAC makes {!open_} return
    [Error `Mac_mismatch].

    A (key, IV) pair must never seal two messages: that leaks the XOR of
    the plaintexts and lets an observer forge Poly1305 tags. {!Iv_gen}
    hands out the IVs. *)

type key

val iv_size : int
(** 12 bytes. *)

val mac_size : int
(** 16 bytes. *)

val overhead : int
(** [iv_size + mac_size]: bytes added by {!seal_packed}. *)

val key_of_string : string -> key
(** Derive a 256-bit AEAD key from arbitrary key material (SHA-256 under a
    fixed label). *)

val key_of_raw : string -> key
(** Use a 32-byte string as the key as is (the RFC 8439 test vectors). *)

val seal : key -> iv:string -> ?aad:string -> string -> string * string
(** [seal k ~iv ~aad pt] is [(ciphertext, mac)]. The IV must be unique per
    key; use {!Iv_gen}. *)

val open_ :
  key ->
  iv:string ->
  ?aad:string ->
  mac:string ->
  string ->
  (string, [ `Mac_mismatch ]) result

val seal_packed : key -> iv:string -> ?aad:string -> string -> string
(** [iv || ciphertext || mac] as one string. *)

val open_packed :
  key -> ?aad:string -> string -> (string, [ `Mac_mismatch | `Truncated ]) result

(** {2 Descriptors}

    A {!seal_packed} blob's descriptor is [iv | mac | le32 ciphertext
    length], 32 bytes. Because {!Iv_gen} never repeats an
    IV under a key, it names one sealing: another validly sealed blob, even
    of the same plaintext, has another descriptor, and the same descriptor
    over other bytes fails {!open_packed}. Storage keeps it in the enclave
    in place of a hash of the blob. *)

val packed_descriptor : string -> string option
(** The descriptor of a packed blob; [None] if it is shorter than
    {!overhead}. *)

val descriptor_matches : string -> string -> bool
(** [descriptor_matches packed d]: [packed] is at least {!overhead} long
    and its descriptor is [d]. The IV and MAC bytes are compared in time
    independent of where they differ, without building the descriptor. *)

(** {2 In-place region operations}

    The zero-copy wire path seals and opens whole packet regions inside a
    mempool-backed buffer: one keystream pass and one MAC per packet, no
    intermediate strings. The tag transcript matches {!seal}/{!open_}
    exactly, so region-sealed and string-sealed messages interverify. *)

val xor_region : key -> iv:string -> Bytes.t -> off:int -> len:int -> unit
(** Encrypt (or decrypt — it is an involution) [buf.[off .. off+len)] in
    place. *)

val tag_region :
  key ->
  iv:string ->
  Bytes.t ->
  aad_off:int ->
  aad_len:int ->
  ct_off:int ->
  ct_len:int ->
  string
(** 16-byte Poly1305 tag over the AAD region and the ciphertext region of
    one buffer, under the one-time key for [iv] (the {!seal} transcript). *)

val check_region :
  key ->
  iv:string ->
  Bytes.t ->
  aad_off:int ->
  aad_len:int ->
  ct_off:int ->
  ct_len:int ->
  mac:string ->
  bool
(** Timing-safe verification of {!tag_region}. *)

(** Deterministic IV generator. An IV is [node id (4 B) | counter (5 B) |
    incarnation (3 B)], so it is unique across the nodes sharing a key and
    across the lives of one node's enclave. *)
module Iv_gen : sig
  type t

  val make : node_id:int -> incarnation:int -> t
  (** [incarnation] (below 2{^24}) must differ between two generators with
      the same [node_id] that seal under the same key — a restarted enclave
      takes a fresh one, since its counter starts again at 0. *)

  val create : node_id:int -> t
  (** [make ~node_id ~incarnation:0]: for a generator that is the only one
      ever made for [node_id] under its key. *)

  val next : t -> string
  (** A fresh, unique 12-byte IV. *)

  val next_into : t -> Bytes.t -> int -> unit
  (** [next_into t buf off] writes the next IV at [buf.[off .. off+12)]
      without allocating — the hot path stamps IVs directly into the packet
      buffer. *)
end
