(** HMAC-SHA256 (RFC 2104).

    A key can be preprocessed into a {!t} whose inner/outer pad states are
    computed once; each subsequent MAC then costs only the message blocks
    plus one extra compression. The authenticated logs MAC millions of small
    entries with the same key, so this matters. *)

type t

val create : string -> t
(** Preprocess a key of any length. *)

val mac : t -> string -> string
(** 32-byte tag over a message. *)

val mac_parts : t -> string list -> string
(** Tag over the concatenation of the parts, without building it. *)

val mac_bytes : t -> bytes -> int -> int -> string

val verify : t -> string -> tag:string -> bool
(** Constant-shape comparison of a full 32-byte tag. *)

val equal_tags : string -> string -> bool
(** Timing-safe equality on raw tags (any equal length). *)
