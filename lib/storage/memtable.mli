(** Treaty's MemTable (§V-B, §VII-D).

    SPEICHER's design, adapted: the skip list of keys — with each key's
    version number, a pointer to its value and the value's 32-byte binding
    ({!Sec.bind}: the sealed value's AEAD descriptor with encryption, its
    SHA-256 in auth-only mode) — stays inside the enclave, while the
    (encrypted) values live in untrusted host memory. Reading a value
    fetches it from host memory, checks it against the in-enclave binding
    and decrypts it, so tampering with host memory, or swapping one sealed
    value for another, is detected. The ablation flag [values_in_enclave]
    instead keeps values in the EPC (no encryption needed, but paging
    pressure; bound by SHA-256) — the design the paper rejects.

    Enclave/host byte accounting flows into {!Treaty_tee.Enclave}, which is
    what makes large MemTables cause simulated EPC paging. *)

type t

type lookup = Found of int * string  (** (seq, value) *) | Deleted of int | Not_found

val create : ?values_in_enclave:bool -> Sec.t -> t

val add : t -> key:string -> seq:int -> Op.t -> unit
(** Insert a version; charges value protection (binding + encryption). *)

val get : t -> key:string -> max_seq:int -> lookup
(** Freshest version visible at [max_seq]. Charges fetch + integrity check;
    raises {!Sec.Integrity_violation} if host memory was tampered with. *)

val entries : t -> int
val approx_bytes : t -> int
(** Enclave + host bytes held — the flush trigger. *)

val to_sorted : t -> (string * int * Op.t) list
(** Decrypt/verify everything, in internal-key order — the flush path. *)

val range : t -> lo:string -> hi:string -> max_seq:int -> (string * int * Op.t) list
(** All versions with [lo <= key <= hi] and [seq <= max_seq], decrypted and
    verified, in internal-key order. *)

val release : t -> unit
(** Return the memory accounting to the enclave (after a flush). *)

val host_tamper : t -> unit
(** Adversary hook (tests): flip a byte of the host-memory value region. *)

val host_swap : t -> string -> string -> unit
(** Adversary hook (tests): [host_swap t k1 k2] swaps the host-memory bytes
    of the freshest values of [k1] and [k2], each a validly sealed blob.
    Raises [Invalid_argument] if a key is absent or the lengths differ. *)
