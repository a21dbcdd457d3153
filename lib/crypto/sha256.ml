(* SHA-256, FIPS 180-4. 32-bit words are kept in OCaml ints masked to 32
   bits; on a 64-bit platform this is exact. *)

let digest_size = 32

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

type ctx = {
  h : int array; (* 8 state words *)
  buf : bytes; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int; (* total bytes absorbed *)
  w : int array; (* message schedule scratch *)
}

let init () =
  {
    h =
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
        0x9b05688c; 0x1f83d9ab; 0x5be0cd19;
      |];
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0;
    w = Array.make 64 0;
  }

(* The message schedule is scratch that every [compress] rewrites in full
   before reading, so a copy shares it instead of allocating its own — an
   HMAC copies two contexts per tag. *)
let copy c =
  {
    h = Array.copy c.h;
    buf = Bytes.copy c.buf;
    buf_len = c.buf_len;
    total = c.total;
    w = c.w;
  }

let mask = 0xffffffff

(* Rotation of a clean 32-bit word. It leaves junk above bit 31: every
   caller XORs rotations together and masks after the next addition, which
   only the low 32 bits feed. *)
let[@inline] rotr x n = (x lsr n) lor (x lsl (32 - n))

external get32_ne : Bytes.t -> int -> int32 = "%caml_bytes_get32"
external swap32 : int32 -> int32 = "%bswap_int32"

(* Big-endian 32-bit load without boxing the int32. *)
let[@inline] be32 b off =
  let v = get32_ne b off in
  Int32.to_int (if Sys.big_endian then v else swap32 v) land mask

let[@inline] sigma0 a = rotr a 2 lxor rotr a 13 lxor rotr a 22
let[@inline] sigma1 e = rotr e 6 lxor rotr e 11 lxor rotr e 25
let[@inline] ch e f g = e land f lxor (lnot e land g)
let[@inline] maj a b c = a land b lxor (a land c) lxor (b land c)

(* Round constant plus schedule word; [i < 64] by construction. *)
let[@inline] kw w i = Array.unsafe_get k i + Array.unsafe_get w i

(* The 64 rounds, eight per call, with the working variables a..h as
   let-bound arguments of a tail call so they stay in registers. Unrolling
   by eight renames the variables instead of shifting them every round. The
   last step adds them into the chaining state [st]. *)
let rec rounds i a b c d e f g h w st =
  if i = 64 then begin
    Array.unsafe_set st 0 ((Array.unsafe_get st 0 + a) land mask);
    Array.unsafe_set st 1 ((Array.unsafe_get st 1 + b) land mask);
    Array.unsafe_set st 2 ((Array.unsafe_get st 2 + c) land mask);
    Array.unsafe_set st 3 ((Array.unsafe_get st 3 + d) land mask);
    Array.unsafe_set st 4 ((Array.unsafe_get st 4 + e) land mask);
    Array.unsafe_set st 5 ((Array.unsafe_get st 5 + f) land mask);
    Array.unsafe_set st 6 ((Array.unsafe_get st 6 + g) land mask);
    Array.unsafe_set st 7 ((Array.unsafe_get st 7 + h) land mask)
  end
  else begin
    let t1 = h + sigma1 e + ch e f g + kw w (i + 0) in
    let d = (d + t1) land mask in
    let h = (t1 + sigma0 a + maj a b c) land mask in
    let t1 = g + sigma1 d + ch d e f + kw w (i + 1) in
    let c = (c + t1) land mask in
    let g = (t1 + sigma0 h + maj h a b) land mask in
    let t1 = f + sigma1 c + ch c d e + kw w (i + 2) in
    let b = (b + t1) land mask in
    let f = (t1 + sigma0 g + maj g h a) land mask in
    let t1 = e + sigma1 b + ch b c d + kw w (i + 3) in
    let a = (a + t1) land mask in
    let e = (t1 + sigma0 f + maj f g h) land mask in
    let t1 = d + sigma1 a + ch a b c + kw w (i + 4) in
    let h = (h + t1) land mask in
    let d = (t1 + sigma0 e + maj e f g) land mask in
    let t1 = c + sigma1 h + ch h a b + kw w (i + 5) in
    let g = (g + t1) land mask in
    let c = (t1 + sigma0 d + maj d e f) land mask in
    let t1 = b + sigma1 g + ch g h a + kw w (i + 6) in
    let f = (f + t1) land mask in
    let b = (t1 + sigma0 c + maj c d e) land mask in
    let t1 = a + sigma1 f + ch f g h + kw w (i + 7) in
    let e = (e + t1) land mask in
    let a = (t1 + sigma0 b + maj b c d) land mask in
    rounds (i + 8) a b c d e f g h w st
  end

(* [block.[off .. off+64)] is in bounds: [update] checks its region and
   only hands whole blocks here. *)
let compress ctx block off =
  let w = ctx.w in
  for i = 0 to 15 do
    Array.unsafe_set w i (be32 block (off + (i * 4)))
  done;
  for i = 16 to 63 do
    let w15 = Array.unsafe_get w (i - 15) and w2 = Array.unsafe_get w (i - 2) in
    let s0 = rotr w15 7 lxor rotr w15 18 lxor (w15 lsr 3) in
    let s1 = rotr w2 17 lxor rotr w2 19 lxor (w2 lsr 10) in
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16) + s0 + Array.unsafe_get w (i - 7) + s1)
      land mask)
  done;
  let h = ctx.h in
  rounds 0 (Array.unsafe_get h 0) (Array.unsafe_get h 1) (Array.unsafe_get h 2)
    (Array.unsafe_get h 3) (Array.unsafe_get h 4) (Array.unsafe_get h 5)
    (Array.unsafe_get h 6) (Array.unsafe_get h 7) w h

let update ctx src off len =
  if off < 0 || len < 0 || off + len > Bytes.length src then
    invalid_arg "Sha256.update";
  ctx.total <- ctx.total + len;
  let pos = ref off and remaining = ref len in
  (* Top up a partial block first. *)
  if ctx.buf_len > 0 then begin
    let take = min !remaining (64 - ctx.buf_len) in
    Bytes.blit src !pos ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while !remaining >= 64 do
    compress ctx src !pos;
    pos := !pos + 64;
    remaining := !remaining - 64
  done;
  if !remaining > 0 then begin
    Bytes.blit src !pos ctx.buf 0 !remaining;
    ctx.buf_len <- !remaining
  end

let update_string ctx s = update ctx (Bytes.unsafe_of_string s) 0 (String.length s)

let finalize ctx =
  let bit_len = ctx.total * 8 in
  (* Padding: 0x80, zeros, 8-byte big-endian bit length. *)
  let pad_len =
    let rem = (ctx.total + 1 + 8) mod 64 in
    if rem = 0 then 1 else 1 + (64 - rem)
  in
  let pad = Bytes.make (pad_len + 8) '\000' in
  Bytes.set pad 0 '\x80';
  for i = 0 to 7 do
    Bytes.set pad
      (pad_len + i)
      (Char.chr ((bit_len lsr (8 * (7 - i))) land 0xff))
  done;
  (* Bypass the [total] accounting while absorbing padding. *)
  let saved = ctx.total in
  update ctx pad 0 (Bytes.length pad);
  ctx.total <- saved;
  assert (ctx.buf_len = 0);
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    let v = ctx.h.(i) in
    Bytes.set out (i * 4) (Char.chr ((v lsr 24) land 0xff));
    Bytes.set out ((i * 4) + 1) (Char.chr ((v lsr 16) land 0xff));
    Bytes.set out ((i * 4) + 2) (Char.chr ((v lsr 8) land 0xff));
    Bytes.set out ((i * 4) + 3) (Char.chr (v land 0xff))
  done;
  Bytes.unsafe_to_string out

let digest_bytes b =
  let ctx = init () in
  update ctx b 0 (Bytes.length b);
  finalize ctx

let digest_string s = digest_bytes (Bytes.unsafe_of_string s)

let to_hex s =
  let out = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string out (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents out
