(** ChaCha20 stream cipher (RFC 8439).

    The cipher of the {!Aead} construction, which also takes the Poly1305
    one-time key from block 0. Pure OCaml, from scratch. *)

val key_size : int
(** 32 bytes. *)

val nonce_size : int
(** 12 bytes. *)

val xor : key:string -> nonce:string -> ?counter:int -> string -> string
(** [xor ~key ~nonce msg] encrypts (or, being an involution, decrypts) [msg]
    with the keystream starting at block [counter] (default 1, per RFC 8439
    AEAD usage). *)

val xor_into :
  key:string -> nonce:string -> ?counter:int -> Bytes.t -> off:int -> len:int -> unit
(** In-place variant: applies the keystream to [buf.[off .. off+len)] with no
    intermediate copies. One keystream pass over a whole packet region is how
    the burst-level wire path avoids a per-sub-message cipher setup. *)

val block : key:string -> nonce:string -> counter:int -> string
(** One raw 64-byte keystream block: {!Aead}'s Poly1305 key source, and
    the RFC test vectors. *)
