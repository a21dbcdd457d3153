(* Poly1305, RFC 8439 §2.5, with the accumulator and [r] in five 26-bit
   limbs on native ints (the "donna-32" layout). A 26 x 29-bit product is
   below 2^56 and a five-term sum below 2^59, so every intermediate fits a
   63-bit OCaml int with no carry handling inside the multiply. *)

let key_size = 32
let tag_size = 16
let m26 = 0x3ffffff
let mask32 = 0xffffffff

external get32_ne : Bytes.t -> int -> int32 = "%caml_bytes_get32"
external swap32 : int32 -> int32 = "%bswap_int32"

(* Little-endian 32-bit load without boxing the int32. *)
let[@inline] le32 b off =
  let v = get32_ne b off in
  Int32.to_int (if Sys.big_endian then swap32 v else v) land mask32

type t = {
  r0 : int;
  r1 : int;
  r2 : int;
  r3 : int;
  r4 : int;
  s1 : int; (* 5 * r1 .. 5 * r4: 2^130 = 5 (mod p) folds the high limbs *)
  s2 : int;
  s3 : int;
  s4 : int;
  pad : string; (* s, added at the end *)
  mutable h0 : int;
  mutable h1 : int;
  mutable h2 : int;
  mutable h3 : int;
  mutable h4 : int;
  buf : Bytes.t; (* a partial block awaiting more input *)
  mutable buf_len : int;
}

let init key =
  if String.length key <> key_size then invalid_arg "Poly1305.init: key size";
  let k = Bytes.unsafe_of_string key in
  (* Clamp r while splitting it into limbs. *)
  let r0 = le32 k 0 land 0x3ffffff
  and r1 = (le32 k 3 lsr 2) land 0x3ffff03
  and r2 = (le32 k 6 lsr 4) land 0x3ffc0ff
  and r3 = (le32 k 9 lsr 6) land 0x3f03fff
  and r4 = (le32 k 12 lsr 8) land 0x00fffff in
  {
    r0;
    r1;
    r2;
    r3;
    r4;
    s1 = r1 * 5;
    s2 = r2 * 5;
    s3 = r3 * 5;
    s4 = r4 * 5;
    pad = String.sub key 16 16;
    h0 = 0;
    h1 = 0;
    h2 = 0;
    h3 = 0;
    h4 = 0;
    buf = Bytes.create 16;
    buf_len = 0;
  }

(* h = (h + block) * r mod p over the whole blocks of [b.[off .. stop)],
   with the accumulator limbs as let-bound arguments of a tail call.
   [hibit] is the 2^128 bit of each block: set for whole message blocks,
   clear for a final block that [finish] already padded with 0x01. *)
let rec blocks t b off stop hibit h0 h1 h2 h3 h4 =
  if off >= stop then begin
    t.h0 <- h0;
    t.h1 <- h1;
    t.h2 <- h2;
    t.h3 <- h3;
    t.h4 <- h4
  end
  else begin
    let h0 = h0 + (le32 b off land m26)
    and h1 = h1 + ((le32 b (off + 3) lsr 2) land m26)
    and h2 = h2 + ((le32 b (off + 6) lsr 4) land m26)
    and h3 = h3 + ((le32 b (off + 9) lsr 6) land m26)
    and h4 = h4 + ((le32 b (off + 12) lsr 8) lor hibit) in
    let r0 = t.r0 and r1 = t.r1 and r2 = t.r2 and r3 = t.r3 and r4 = t.r4 in
    let s1 = t.s1 and s2 = t.s2 and s3 = t.s3 and s4 = t.s4 in
    let d0 = (h0 * r0) + (h1 * s4) + (h2 * s3) + (h3 * s2) + (h4 * s1) in
    let d1 = (h0 * r1) + (h1 * r0) + (h2 * s4) + (h3 * s3) + (h4 * s2) in
    let d2 = (h0 * r2) + (h1 * r1) + (h2 * r0) + (h3 * s4) + (h4 * s3) in
    let d3 = (h0 * r3) + (h1 * r2) + (h2 * r1) + (h3 * r0) + (h4 * s4) in
    let d4 = (h0 * r4) + (h1 * r3) + (h2 * r2) + (h3 * r1) + (h4 * r0) in
    let d1 = d1 + (d0 lsr 26) in
    let d2 = d2 + (d1 lsr 26) in
    let d3 = d3 + (d2 lsr 26) in
    let d4 = d4 + (d3 lsr 26) in
    let h0 = (d0 land m26) + ((d4 lsr 26) * 5) in
    let h1 = (d1 land m26) + (h0 lsr 26) in
    blocks t b (off + 16) stop hibit (h0 land m26) h1 (d2 land m26)
      (d3 land m26) (d4 land m26)
  end

let[@inline] absorb t b off stop hibit =
  blocks t b off stop hibit t.h0 t.h1 t.h2 t.h3 t.h4

let full_block = 1 lsl 24

let update t src off len =
  if off < 0 || len < 0 || off + len > Bytes.length src then
    invalid_arg "Poly1305.update";
  let off = ref off and len = ref len in
  if t.buf_len > 0 then begin
    let take = min !len (16 - t.buf_len) in
    Bytes.blit src !off t.buf t.buf_len take;
    t.buf_len <- t.buf_len + take;
    off := !off + take;
    len := !len - take;
    if t.buf_len = 16 then begin
      absorb t t.buf 0 16 full_block;
      t.buf_len <- 0
    end
  end;
  let whole = !len land lnot 15 in
  if whole > 0 then absorb t src !off (!off + whole) full_block;
  let rest = !len - whole in
  if rest > 0 then begin
    Bytes.blit src (!off + whole) t.buf 0 rest;
    t.buf_len <- rest
  end

let update_string t s = update t (Bytes.unsafe_of_string s) 0 (String.length s)

let pad16 t =
  if t.buf_len > 0 then begin
    Bytes.fill t.buf t.buf_len (16 - t.buf_len) '\000';
    absorb t t.buf 0 16 full_block;
    t.buf_len <- 0
  end

let finish t =
  if t.buf_len > 0 then begin
    Bytes.set t.buf t.buf_len '\001';
    Bytes.fill t.buf (t.buf_len + 1) (15 - t.buf_len) '\000';
    absorb t t.buf 0 16 0;
    t.buf_len <- 0
  end;
  (* Carry fully, then reduce h mod p = 2^130 - 5 with one conditional
     subtraction: g = h + 5 - 2^130 is non-negative iff h >= p. *)
  let h0 = t.h0 and h1 = t.h1 and h2 = t.h2 and h3 = t.h3 and h4 = t.h4 in
  let h2 = h2 + (h1 lsr 26) and h1 = h1 land m26 in
  let h3 = h3 + (h2 lsr 26) and h2 = h2 land m26 in
  let h4 = h4 + (h3 lsr 26) and h3 = h3 land m26 in
  let h0 = h0 + ((h4 lsr 26) * 5) and h4 = h4 land m26 in
  let h1 = h1 + (h0 lsr 26) and h0 = h0 land m26 in
  let g0 = h0 + 5 in
  let g1 = h1 + (g0 lsr 26) and g0 = g0 land m26 in
  let g2 = h2 + (g1 lsr 26) and g1 = g1 land m26 in
  let g3 = h3 + (g2 lsr 26) and g2 = g2 land m26 in
  let g4 = h4 + (g3 lsr 26) - (1 lsl 26) and g3 = g3 land m26 in
  let keep_h = g4 asr 62 (* all ones iff g4 < 0, i.e. h < p *) in
  let[@inline] pick h g = h land keep_h lor (g land lnot keep_h) in
  let h0 = pick h0 g0 and h1 = pick h1 g1 and h2 = pick h2 g2
  and h3 = pick h3 g3 and h4 = pick h4 g4 in
  (* tag = (h + s) mod 2^128, as four little-endian words. *)
  let pad = Bytes.unsafe_of_string t.pad in
  let out = Bytes.create tag_size in
  let[@inline] word i v carry =
    let f = v + le32 pad (4 * i) + carry in
    Bytes.set_int32_le out (4 * i) (Int32.of_int (f land mask32));
    f lsr 32
  in
  let c = word 0 (h0 + ((h1 land 0x3f) lsl 26)) 0 in
  let c = word 1 ((h1 lsr 6) + ((h2 land 0xfff) lsl 20)) c in
  let c = word 2 ((h2 lsr 12) + ((h3 land 0x3ffff) lsl 14)) c in
  ignore (word 3 ((h3 lsr 18) + (h4 lsl 8)) c);
  Bytes.unsafe_to_string out

let mac ~key msg =
  let t = init key in
  update_string t msg;
  finish t
