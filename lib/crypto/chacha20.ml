let key_size = 32
let nonce_size = 12
let mask = 0xffffffff

(* 32-bit words live in native ints. The block function keeps the 16 state
   words in let-bound locals threaded through a tail-recursive double round,
   so they stay in registers (or spill slots) instead of a bounds-checked
   array. Only the low 32 bits of a word are meaningful: additions and
   rotations leave junk above them, which is harmless to the additions and
   XORs that follow (native-int arithmetic is exact mod 2^63), so the one
   mask per step sits on the rotation's input, and the stores truncate. *)

let[@inline] rotl x n =
  let x = x land mask in
  (x lsl n) lor (x lsr (32 - n))

(* Little-endian 32-bit loads and stores through the compiler primitives, so
   the int32 never gets boxed. *)
external get32_ne : Bytes.t -> int -> int32 = "%caml_bytes_get32"
external set32_ne : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32"
external swap32 : int32 -> int32 = "%bswap_int32"

let[@inline] get32 b off =
  let v = get32_ne b off in
  Int32.to_int (if Sys.big_endian then swap32 v else v) land mask

(* [Int32.of_int] keeps the low 32 bits. *)
let[@inline] set32 b off v =
  let v = Int32.of_int v in
  set32_ne b off (if Sys.big_endian then swap32 v else v)

let[@inline] le32 s off = get32 (Bytes.unsafe_of_string s) off

(* [n] double rounds over the state; the final (pre-feed-forward) words
   land in [ks]. *)
let rec rounds n x0 x1 x2 x3 x4 x5 x6 x7 x8 x9 x10 x11 x12 x13 x14 x15 ks =
  if n = 0 then begin
    set32 ks 0 x0; set32 ks 4 x1; set32 ks 8 x2; set32 ks 12 x3;
    set32 ks 16 x4; set32 ks 20 x5; set32 ks 24 x6; set32 ks 28 x7;
    set32 ks 32 x8; set32 ks 36 x9; set32 ks 40 x10; set32 ks 44 x11;
    set32 ks 48 x12; set32 ks 52 x13; set32 ks 56 x14; set32 ks 60 x15
  end
  else begin
    (* column round *)
    let x0 = x0 + x4 in let x12 = rotl (x12 lxor x0) 16 in
    let x8 = x8 + x12 in let x4 = rotl (x4 lxor x8) 12 in
    let x0 = x0 + x4 in let x12 = rotl (x12 lxor x0) 8 in
    let x8 = x8 + x12 in let x4 = rotl (x4 lxor x8) 7 in
    let x1 = x1 + x5 in let x13 = rotl (x13 lxor x1) 16 in
    let x9 = x9 + x13 in let x5 = rotl (x5 lxor x9) 12 in
    let x1 = x1 + x5 in let x13 = rotl (x13 lxor x1) 8 in
    let x9 = x9 + x13 in let x5 = rotl (x5 lxor x9) 7 in
    let x2 = x2 + x6 in let x14 = rotl (x14 lxor x2) 16 in
    let x10 = x10 + x14 in let x6 = rotl (x6 lxor x10) 12 in
    let x2 = x2 + x6 in let x14 = rotl (x14 lxor x2) 8 in
    let x10 = x10 + x14 in let x6 = rotl (x6 lxor x10) 7 in
    let x3 = x3 + x7 in let x15 = rotl (x15 lxor x3) 16 in
    let x11 = x11 + x15 in let x7 = rotl (x7 lxor x11) 12 in
    let x3 = x3 + x7 in let x15 = rotl (x15 lxor x3) 8 in
    let x11 = x11 + x15 in let x7 = rotl (x7 lxor x11) 7 in
    (* diagonal round *)
    let x0 = x0 + x5 in let x15 = rotl (x15 lxor x0) 16 in
    let x10 = x10 + x15 in let x5 = rotl (x5 lxor x10) 12 in
    let x0 = x0 + x5 in let x15 = rotl (x15 lxor x0) 8 in
    let x10 = x10 + x15 in let x5 = rotl (x5 lxor x10) 7 in
    let x1 = x1 + x6 in let x12 = rotl (x12 lxor x1) 16 in
    let x11 = x11 + x12 in let x6 = rotl (x6 lxor x11) 12 in
    let x1 = x1 + x6 in let x12 = rotl (x12 lxor x1) 8 in
    let x11 = x11 + x12 in let x6 = rotl (x6 lxor x11) 7 in
    let x2 = x2 + x7 in let x13 = rotl (x13 lxor x2) 16 in
    let x8 = x8 + x13 in let x7 = rotl (x7 lxor x8) 12 in
    let x2 = x2 + x7 in let x13 = rotl (x13 lxor x2) 8 in
    let x8 = x8 + x13 in let x7 = rotl (x7 lxor x8) 7 in
    let x3 = x3 + x4 in let x14 = rotl (x14 lxor x3) 16 in
    let x9 = x9 + x14 in let x4 = rotl (x4 lxor x9) 12 in
    let x3 = x3 + x4 in let x14 = rotl (x14 lxor x3) 8 in
    let x9 = x9 + x14 in let x4 = rotl (x4 lxor x9) 7 in
    rounds (n - 1) x0 x1 x2 x3 x4 x5 x6 x7 x8 x9 x10 x11 x12 x13 x14 x15 ks
  end

let[@inline] add ks i v = set32 ks (4 * i) (get32 ks (4 * i) + v)

let xor_into ~key ~nonce ?(counter = 1) buf ~off ~len =
  if String.length key <> key_size then invalid_arg "Chacha20: key size";
  if String.length nonce <> nonce_size then invalid_arg "Chacha20: nonce size";
  if off < 0 || len < 0 || off + len > Bytes.length buf then
    invalid_arg "Chacha20.xor_into: region out of bounds";
  let k0 = le32 key 0 and k1 = le32 key 4 and k2 = le32 key 8
  and k3 = le32 key 12 and k4 = le32 key 16 and k5 = le32 key 20
  and k6 = le32 key 24 and k7 = le32 key 28 in
  let n0 = le32 nonce 0 and n1 = le32 nonce 4 and n2 = le32 nonce 8 in
  let ks = Bytes.create 64 in
  let rec go pos ctr =
    if pos < len then begin
      let c = ctr land mask in
      rounds 10 0x61707865 0x3320646e 0x79622d32 0x6b206574 k0 k1 k2 k3 k4 k5
        k6 k7 c n0 n1 n2 ks;
      (* Feed-forward: keystream word [i] is round output [i] plus input
         word [i]. A full block then XORs word-wise into [buf]; the tail
         block byte-wise. *)
      add ks 0 0x61707865; add ks 1 0x3320646e; add ks 2 0x79622d32;
      add ks 3 0x6b206574; add ks 4 k0; add ks 5 k1; add ks 6 k2; add ks 7 k3;
      add ks 8 k4; add ks 9 k5; add ks 10 k6; add ks 11 k7; add ks 12 c;
      add ks 13 n0; add ks 14 n1; add ks 15 n2;
      let o = off + pos in
      if len - pos >= 64 then
        for i = 0 to 15 do
          let j = o + (4 * i) in
          set32 buf j (get32 buf j lxor get32 ks (4 * i))
        done
      else
        for i = 0 to len - pos - 1 do
          Bytes.unsafe_set buf (o + i)
            (Char.unsafe_chr
               (Char.code (Bytes.unsafe_get buf (o + i))
               lxor Char.code (Bytes.unsafe_get ks i)))
        done;
      go (pos + 64) (ctr + 1)
    end
  in
  go 0 counter

let xor ~key ~nonce ?(counter = 1) msg =
  let out = Bytes.of_string msg in
  xor_into ~key ~nonce ~counter out ~off:0 ~len:(Bytes.length out);
  Bytes.unsafe_to_string out

let block ~key ~nonce ~counter =
  let out = Bytes.make 64 '\000' in
  xor_into ~key ~nonce ~counter out ~off:0 ~len:64;
  Bytes.unsafe_to_string out
