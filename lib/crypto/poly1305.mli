(** Poly1305 one-time authenticator (RFC 8439 §2.5), pure OCaml.

    The MAC half of the {!Aead} construction. A key authenticates exactly
    one message: {!Aead} derives a fresh one per (key, IV) from ChaCha20
    block 0. Everything outside [lib/crypto] goes through {!Aead}. *)

val key_size : int
(** 32 bytes: [r] (clamped) then [s]. *)

val tag_size : int
(** 16 bytes. *)

type t
(** An in-progress MAC. One-shot: after {!finish} it must not be fed
    again. *)

val init : string -> t
(** Start a MAC under a 32-byte one-time key. *)

val update : t -> Bytes.t -> int -> int -> unit
(** [update t buf off len] absorbs [buf.[off .. off+len)]. Whole 16-byte
    blocks are read straight from [buf]. *)

val update_string : t -> string -> unit

val pad16 : t -> unit
(** Zero-pad what has been absorbed so far to a 16-byte boundary (the
    [pad16] of the RFC 8439 §2.8 AEAD transcript); a no-op on a boundary. *)

val finish : t -> string
(** The 16-byte tag. A trailing partial block is padded as RFC 8439 §2.5
    prescribes (a 0x01 byte, then zeros). *)

val mac : key:string -> string -> string
(** One-shot tag of a whole message. *)
