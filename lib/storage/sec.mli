(** Per-node storage security context.

    Bundles the knobs that distinguish the paper's baselines — whether
    persistent data is authenticated (hashes/MACs) and whether it is
    encrypted — with the enclave that pays the corresponding simulated
    costs and the key material. All storage modules (logs, SSTables,
    MemTable values) protect and check data through this one interface, so
    a mode switch reconfigures the whole engine consistently:

    - DS-RocksDB / Native Treaty w/o Enc: [auth = false], [enc = None]
    - Treaty w/o Enc: [auth = true], [enc = None] (integrity, no secrecy)
    - Treaty w/ Enc: [auth = true], [enc = Some key]

    A blob in untrusted memory or on disk is bound by a 32-byte value the
    enclave keeps ({!bind}). With [enc] the blob is sealed under a fresh IV,
    so its Poly1305 tag already authenticates it: the binding is the
    blob's AEAD descriptor [iv (12) | tag (16) | le32 ciphertext length
    (4)] ({!Treaty_crypto.Aead.packed_descriptor}), which {!open_bound}
    compares in constant time before the AEAD checks the tag over the
    bytes. A different validly sealed blob — another value, or a re-seal
    of the same one — carries another IV and fails the comparison. In
    auth-only mode the binding is SHA-256 ({!digest}), which also stays
    for data that is never sealed. The simulated cost is SPEICHER's hash
    either way: {!bind} and {!open_bound} charge what {!digest} and
    {!check_digest} charge. *)

exception Integrity_violation of string
(** Raised when an integrity or freshness check on untrusted data fails —
    the detection event Treaty's guarantees are about. *)

type t

val create :
  enclave:Treaty_tee.Enclave.t ->
  auth:bool ->
  enc:Treaty_crypto.Aead.key option ->
  unit ->
  t

val enclave : t -> Treaty_tee.Enclave.t
val auth : t -> bool
val encrypted : t -> bool

val protect : t -> string -> string
(** Encrypt a value/block for untrusted memory or disk ([enc] mode), or pass
    it through. Charges simulated crypto time. *)

val unprotect : t -> what:string -> string -> string
(** Inverse of {!protect}. Raises {!Integrity_violation} naming [what] if
    the AEAD check fails or the blob is shorter than
    {!Treaty_crypto.Aead.overhead}. *)

val bind : t -> string -> string
(** The binding of a {!protect}ed blob: its descriptor in [enc] mode, its
    SHA-256 in auth-only mode, [""] when [auth] is off. Charged as
    {!digest}. *)

val open_bound : t -> what:string -> binding:string -> string -> string
(** [open_bound t ~what ~binding stored] checks [stored] against the
    [binding] {!bind} returned for it, then {!unprotect}s it. Raises
    {!Integrity_violation} naming [what] on any mismatch. Charged as
    {!check_digest} followed by {!unprotect}. *)

val cover : t -> string -> string
(** What a MAC must cover to authenticate a {!protect}ed blob: its
    descriptor in [enc] mode (the tag covers the rest and is checked when
    the blob is opened), the blob itself otherwise. Uncharged. Raises
    {!Integrity_violation} if a sealed blob is too short to be one. *)

val digest : t -> string -> string
(** 32-byte SHA-256 in [auth] mode (charged), [""] otherwise. For data
    that is never sealed. *)

val check_digest : t -> what:string -> data:string -> expected:string -> unit
(** Raises {!Integrity_violation} naming [what] on mismatch. No-op when
    [auth] is off. *)

val mac_key : t -> string -> Treaty_crypto.Hmac.t
(** Keyed MAC context for a named log chain (derived per log). *)
