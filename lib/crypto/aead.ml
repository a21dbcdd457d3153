type key = string (* the 32-byte ChaCha20 key *)

let iv_size = 12
let mac_size = 16
let overhead = iv_size + mac_size

let key_of_string material = Sha256.digest_string ("treaty-aead-enc:" ^ material)

let key_of_raw raw =
  if String.length raw <> Chacha20.key_size then
    invalid_arg "Aead.key_of_raw: key size";
  raw

let check_iv iv = if String.length iv <> iv_size then invalid_arg "Aead: iv size"

(* RFC 8439 §2.8: the Poly1305 one-time key is the first 32 bytes of
   ChaCha20 block 0 under (key, iv); the payload is encrypted from block 1.
   The tag covers aad | pad16 | ct | pad16 | le64 |aad| | le64 |ct|. *)
let tag key ~iv aad ~aad_off ~aad_len ct ~ct_off ~ct_len =
  check_iv iv;
  let otk =
    String.sub (Chacha20.block ~key ~nonce:iv ~counter:0) 0 Poly1305.key_size
  in
  let p = Poly1305.init otk in
  Poly1305.update p aad aad_off aad_len;
  Poly1305.pad16 p;
  Poly1305.update p ct ct_off ct_len;
  Poly1305.pad16 p;
  let lens = Bytes.create 16 in
  Bytes.set_int64_le lens 0 (Int64.of_int aad_len);
  Bytes.set_int64_le lens 8 (Int64.of_int ct_len);
  Poly1305.update p lens 0 16;
  Poly1305.finish p

(* [mac] is 16 bytes equal to [s.[off .. off+16)], compared in time
   independent of where they differ. *)
let tag_matches mac s off =
  String.length mac = mac_size
  && begin
       let acc = ref 0 in
       for i = 0 to mac_size - 1 do
         acc := !acc lor (Char.code mac.[i] lxor Char.code s.[off + i])
       done;
       !acc = 0
     end

let bytes = Bytes.unsafe_of_string

let seal key ~iv ?(aad = "") pt =
  check_iv iv;
  Taint.register pt;
  let ct = Chacha20.xor ~key ~nonce:iv pt in
  let n = String.length ct in
  ( ct,
    tag key ~iv (bytes aad) ~aad_off:0 ~aad_len:(String.length aad) (bytes ct)
      ~ct_off:0 ~ct_len:n )

let open_ key ~iv ?(aad = "") ~mac ct =
  if
    String.length iv = iv_size
    && tag_matches mac
         (tag key ~iv (bytes aad) ~aad_off:0 ~aad_len:(String.length aad)
            (bytes ct) ~ct_off:0 ~ct_len:(String.length ct))
         0
  then Ok (Chacha20.xor ~key ~nonce:iv ct)
  else Error `Mac_mismatch

(* [iv | ct | mac] built in one buffer: encrypt in place, tag the region. *)
let seal_packed key ~iv ?(aad = "") pt =
  check_iv iv;
  Taint.register pt;
  let n = String.length pt in
  let b = Bytes.create (overhead + n) in
  Bytes.blit_string iv 0 b 0 iv_size;
  Bytes.blit_string pt 0 b iv_size n;
  Chacha20.xor_into ~key ~nonce:iv b ~off:iv_size ~len:n;
  let mac =
    tag key ~iv (bytes aad) ~aad_off:0 ~aad_len:(String.length aad) b
      ~ct_off:iv_size ~ct_len:n
  in
  Bytes.blit_string mac 0 b (iv_size + n) mac_size;
  Bytes.unsafe_to_string b

let open_packed key ?(aad = "") packed =
  let total = String.length packed in
  if total < overhead then Error `Truncated
  else begin
    let iv = String.sub packed 0 iv_size in
    let n = total - overhead in
    let expected =
      tag key ~iv (bytes aad) ~aad_off:0 ~aad_len:(String.length aad)
        (bytes packed) ~ct_off:iv_size ~ct_len:n
    in
    if tag_matches expected packed (iv_size + n) then begin
      let pt = Bytes.sub (bytes packed) iv_size n in
      Chacha20.xor_into ~key ~nonce:iv pt ~off:0 ~len:n;
      Ok (Bytes.unsafe_to_string pt)
    end
    else Error `Mac_mismatch
  end

(* [iv | tag | le32 |ct|] of [iv | ct | tag]. *)
let descriptor_size = overhead + 4

let packed_descriptor packed =
  let n = String.length packed - overhead in
  if n < 0 then None
  else begin
    let d = Bytes.create descriptor_size in
    Bytes.blit_string packed 0 d 0 iv_size;
    Bytes.blit_string packed (iv_size + n) d iv_size mac_size;
    Bytes.set_int32_le d overhead (Int32.of_int n);
    Some (Bytes.unsafe_to_string d)
  end

let descriptor_matches packed d =
  let n = String.length packed - overhead in
  n >= 0
  && String.length d = descriptor_size
  && Int32.equal (String.get_int32_le d overhead) (Int32.of_int n)
  && begin
       let acc = ref 0 in
       for i = 0 to iv_size - 1 do
         acc := !acc lor (Char.code d.[i] lxor Char.code packed.[i])
       done;
       for i = 0 to mac_size - 1 do
         acc :=
           !acc lor (Char.code d.[iv_size + i] lxor Char.code packed.[iv_size + n + i])
       done;
       !acc = 0
     end

let xor_region key ~iv buf ~off ~len =
  check_iv iv;
  Chacha20.xor_into ~key ~nonce:iv buf ~off ~len

let tag_region key ~iv buf ~aad_off ~aad_len ~ct_off ~ct_len =
  (* Same transcript as {!seal}, so a region-sealed message verifies
     against a string-sealed one and vice versa. Both regions are absorbed
     straight from the packet buffer. *)
  tag key ~iv buf ~aad_off ~aad_len buf ~ct_off ~ct_len

let check_region key ~iv buf ~aad_off ~aad_len ~ct_off ~ct_len ~mac =
  String.length iv = iv_size
  && tag_matches mac (tag_region key ~iv buf ~aad_off ~aad_len ~ct_off ~ct_len) 0

module Iv_gen = struct
  (* IV = node id (4 B) | counter (5 B) | incarnation (3 B), little-endian.
     The node id keeps nodes sharing the network key apart; the incarnation
     keeps a restarted enclave, whose counter starts again at 0, off the IVs
     its earlier lives used under the same key. *)
  type t = {
    node_id : int;
    incarnation : int;
    mutable counter : int;
    scratch : Bytes.t;
  }

  let counter_limit = 1 lsl 40
  let incarnation_limit = 1 lsl 24

  let make ~node_id ~incarnation =
    if node_id < 0 || node_id > 0xffffffff then
      invalid_arg "Iv_gen.make: node id";
    if incarnation < 0 || incarnation >= incarnation_limit then
      invalid_arg "Iv_gen.make: incarnation";
    { node_id; incarnation; counter = 0; scratch = Bytes.create iv_size }

  let create ~node_id = make ~node_id ~incarnation:0

  let put buf off v n =
    for i = 0 to n - 1 do
      Bytes.unsafe_set buf (off + i) (Char.unsafe_chr ((v lsr (8 * i)) land 0xff))
    done

  let next_into t buf off =
    if off < 0 || off + iv_size > Bytes.length buf then
      invalid_arg "Iv_gen.next_into: out of bounds";
    t.counter <- t.counter + 1;
    (* Wrapping would revisit an IV; no run comes near 2^40 seals. *)
    if t.counter >= counter_limit then invalid_arg "Iv_gen: counter exhausted";
    put buf off t.node_id 4;
    put buf (off + 4) t.counter 5;
    put buf (off + 9) t.incarnation 3

  let next t =
    next_into t t.scratch 0;
    (* One fresh string per IV (callers hold on to it). *)
    Bytes.to_string t.scratch
end
