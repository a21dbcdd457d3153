(* Crypto substrate: standard test vectors plus property-based roundtrips
   and tamper detection. *)

open Treaty_crypto

let check_hex msg expected got = Alcotest.(check string) msg expected (Sha256.to_hex got)

let sha256_vectors () =
  (* FIPS 180-4 / NIST examples. *)
  check_hex "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.digest_string "");
  check_hex "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.digest_string "abc");
  check_hex "448-bit"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.digest_string "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  check_hex "million a's"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.digest_string (String.make 1_000_000 'a'))

let sha256_incremental () =
  (* Chunked absorption must agree with one-shot hashing at every split. *)
  let data = String.init 1000 (fun i -> Char.chr (i mod 256)) in
  let oneshot = Sha256.digest_string data in
  List.iter
    (fun split ->
      let ctx = Sha256.init () in
      Sha256.update_string ctx (String.sub data 0 split);
      Sha256.update_string ctx (String.sub data split (String.length data - split));
      Alcotest.(check string)
        (Printf.sprintf "split at %d" split)
        (Sha256.to_hex oneshot)
        (Sha256.to_hex (Sha256.finalize ctx)))
    [ 0; 1; 55; 56; 63; 64; 65; 127; 128; 500; 999; 1000 ]

let sha256_copy () =
  let ctx = Sha256.init () in
  Sha256.update_string ctx "shared prefix|";
  let ctx2 = Sha256.copy ctx in
  Sha256.update_string ctx "left";
  Sha256.update_string ctx2 "right";
  Alcotest.(check string) "copy diverges left"
    (Sha256.to_hex (Sha256.digest_string "shared prefix|left"))
    (Sha256.to_hex (Sha256.finalize ctx));
  Alcotest.(check string) "copy diverges right"
    (Sha256.to_hex (Sha256.digest_string "shared prefix|right"))
    (Sha256.to_hex (Sha256.finalize ctx2))

let hmac_vectors () =
  (* RFC 4231 test cases 1, 2 and 7 (long key). *)
  let h1 = Hmac.create (String.make 20 '\x0b') in
  check_hex "rfc4231 tc1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hmac.mac h1 "Hi There");
  let h2 = Hmac.create "Jefe" in
  check_hex "rfc4231 tc2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hmac.mac h2 "what do ya want for nothing?");
  let h7 = Hmac.create (String.make 131 '\xaa') in
  check_hex "rfc4231 tc7 (key > block)"
    "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
    (Hmac.mac h7
       "This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.")

let hmac_parts () =
  let h = Hmac.create "key" in
  Alcotest.(check string) "mac_parts = mac of concat"
    (Sha256.to_hex (Hmac.mac h "abcdef"))
    (Sha256.to_hex (Hmac.mac_parts h [ "ab"; "cd"; "ef" ]))

let hmac_equal_tags () =
  Alcotest.(check bool) "equal" true (Hmac.equal_tags "same-tag" "same-tag");
  Alcotest.(check bool) "different" false (Hmac.equal_tags "same-tag" "SAME-tag");
  Alcotest.(check bool) "length mismatch" false (Hmac.equal_tags "a" "ab")

let chacha20_rfc_block () =
  (* RFC 8439 §2.3.2: first keystream block. *)
  let key = String.init 32 Char.chr in
  let nonce = "\x00\x00\x00\x09\x00\x00\x00\x4a\x00\x00\x00\x00" in
  let block = Chacha20.block ~key ~nonce ~counter:1 in
  Alcotest.(check string) "keystream prefix"
    "10f1e7e4d13b5915500fdd1fa32071c4"
    (Sha256.to_hex (String.sub block 0 16))

let chacha20_rfc_encrypt () =
  (* RFC 8439 §2.4.2 "Ladies and Gentlemen..." *)
  let key = String.init 32 Char.chr in
  let nonce = "\x00\x00\x00\x00\x00\x00\x00\x4a\x00\x00\x00\x00" in
  let plaintext =
    "Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it."
  in
  let ct = Chacha20.xor ~key ~nonce ~counter:1 plaintext in
  Alcotest.(check string) "first ct bytes"
    "6e2e359a2568f98041ba0728dd0d6981"
    (Sha256.to_hex (String.sub ct 0 16));
  Alcotest.(check string) "decrypt roundtrip" plaintext
    (Chacha20.xor ~key ~nonce ~counter:1 ct)

let aead_tamper_every_byte () =
  let key = Aead.key_of_string "k" in
  let iv = String.make 12 'i' in
  let packed = Aead.seal_packed key ~iv ~aad:"hdr" "secret payload" in
  for i = 0 to String.length packed - 1 do
    let b = Bytes.of_string packed in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x80));
    match Aead.open_packed key ~aad:"hdr" (Bytes.to_string b) with
    | Error `Mac_mismatch -> ()
    | Error `Truncated -> ()
    | Ok _ -> Alcotest.failf "tampering byte %d went undetected" i
  done

let aead_wrong_aad () =
  let key = Aead.key_of_string "k" in
  let iv = String.make 12 'i' in
  let packed = Aead.seal_packed key ~iv ~aad:"aad1" "data" in
  (match Aead.open_packed key ~aad:"aad2" packed with
  | Error `Mac_mismatch -> ()
  | _ -> Alcotest.fail "wrong AAD accepted");
  match Aead.open_packed (Aead.key_of_string "other") ~aad:"aad1" packed with
  | Error `Mac_mismatch -> ()
  | _ -> Alcotest.fail "wrong key accepted"

let iv_gen_unique () =
  let g = Aead.Iv_gen.create ~node_id:7 in
  let seen = Hashtbl.create 1000 in
  for _ = 1 to 1000 do
    let iv = Aead.Iv_gen.next g in
    Alcotest.(check int) "iv size" 12 (String.length iv);
    Alcotest.(check bool) "fresh iv" false (Hashtbl.mem seen iv);
    Hashtbl.replace seen iv ()
  done;
  let g2 = Aead.Iv_gen.create ~node_id:8 in
  Alcotest.(check bool) "distinct nodes disjoint" false
    (Hashtbl.mem seen (Aead.Iv_gen.next g2))

let region_primitives () =
  (* The zero-copy wire path is built on in-place region variants of the
     string crypto; each must agree byte-for-byte with its string twin. *)
  let key = String.init 32 Char.chr and nonce = String.make 12 'n' in
  let pt = String.init 777 (fun i -> Char.chr (i * 7 mod 256)) in
  let b = Bytes.make 1000 '\xee' in
  Bytes.blit_string pt 0 b 100 (String.length pt);
  Chacha20.xor_into ~key ~nonce b ~off:100 ~len:(String.length pt);
  Alcotest.(check string) "xor_into = xor on the region"
    (Chacha20.xor ~key ~nonce pt)
    (Bytes.sub_string b 100 (String.length pt));
  Alcotest.(check char) "byte before region untouched" '\xee' (Bytes.get b 99);
  Alcotest.(check char) "byte after region untouched" '\xee'
    (Bytes.get b (100 + String.length pt));
  let key = String.make 32 'p' in
  let p = Poly1305.init key in
  Poly1305.update_string p "ab";
  Poly1305.update p (Bytes.of_string "_cdef_") 1 4;
  Alcotest.(check string) "poly1305 regions = mac of concat"
    (Sha256.to_hex (Poly1305.mac ~key "abcdef"))
    (Sha256.to_hex (Poly1305.finish p))

let aead_region_interverifies () =
  (* A message sealed through the region API must open through the string
     API (and vice versa): same IV transcript, same tag. *)
  let key = Aead.key_of_string "k" in
  let iv = String.make 12 'i' in
  let aad = "header" and pt = "the payload" in
  let packed = Aead.seal_packed key ~iv ~aad pt in
  (* packed = iv | ct | mac *)
  let ct_len = String.length pt in
  let b = Bytes.create (String.length aad + ct_len) in
  Bytes.blit_string aad 0 b 0 (String.length aad);
  Bytes.blit_string packed 12 b (String.length aad) ct_len;
  let tag =
    Aead.tag_region key ~iv b ~aad_off:0 ~aad_len:(String.length aad)
      ~ct_off:(String.length aad) ~ct_len
  in
  Alcotest.(check string) "region tag = packed tag"
    (String.sub packed (12 + ct_len) 16)
    tag;
  Alcotest.(check bool) "check_region accepts" true
    (Aead.check_region key ~iv b ~aad_off:0 ~aad_len:(String.length aad)
       ~ct_off:(String.length aad) ~ct_len ~mac:tag);
  Aead.xor_region key ~iv b ~off:(String.length aad) ~len:ct_len;
  Alcotest.(check string) "region decrypt recovers plaintext" pt
    (Bytes.sub_string b (String.length aad) ct_len)

let iv_gen_next_into () =
  let g1 = Aead.Iv_gen.create ~node_id:7 in
  let g2 = Aead.Iv_gen.create ~node_id:7 in
  let b = Bytes.make 20 '\x00' in
  for i = 1 to 100 do
    let iv = Aead.Iv_gen.next g1 in
    Aead.Iv_gen.next_into g2 b 4;
    Alcotest.(check string)
      (Printf.sprintf "next_into = next (step %d)" i)
      iv
      (Bytes.sub_string b 4 12)
  done

let keys_derivation () =
  let m = Keys.master_of_secret "s" in
  Alcotest.(check bool) "labels differ" true (Keys.derive m "a" <> Keys.derive m "b");
  Alcotest.(check string) "deterministic" (Keys.derive m "a") (Keys.derive m "a");
  let m2 = Keys.master_of_secret "s2" in
  Alcotest.(check bool) "masters differ" true (Keys.derive m "a" <> Keys.derive m2 "a");
  Alcotest.(check bool) "client tokens distinct" true
    (Keys.client_token m ~client_id:1 <> Keys.client_token m ~client_id:2)

(* --- reference implementations ------------------------------------------

   Straightforward models the optimized kernels are checked against: the
   array-state ChaCha20 block and ref-variable SHA-256 compression the
   library used before its register-resident cores, and Poly1305 over naive
   arbitrary-precision integers, written from RFC 8439 §2.5.1. *)

module Ref_chacha20 = struct
  let mask = 0xffffffff
  let rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask

  let quarter st a b c d =
    st.(a) <- (st.(a) + st.(b)) land mask;
    st.(d) <- rotl (st.(d) lxor st.(a)) 16;
    st.(c) <- (st.(c) + st.(d)) land mask;
    st.(b) <- rotl (st.(b) lxor st.(c)) 12;
    st.(a) <- (st.(a) + st.(b)) land mask;
    st.(d) <- rotl (st.(d) lxor st.(a)) 8;
    st.(c) <- (st.(c) + st.(d)) land mask;
    st.(b) <- rotl (st.(b) lxor st.(c)) 7

  let le32 s off =
    Char.code s.[off]
    lor (Char.code s.[off + 1] lsl 8)
    lor (Char.code s.[off + 2] lsl 16)
    lor (Char.code s.[off + 3] lsl 24)

  let block ~key ~nonce ~counter =
    let st =
      Array.init 16 (fun i ->
          if i < 4 then [| 0x61707865; 0x3320646e; 0x79622d32; 0x6b206574 |].(i)
          else if i < 12 then le32 key (4 * (i - 4))
          else if i = 12 then counter land mask
          else le32 nonce (4 * (i - 13)))
    in
    let w = Array.copy st in
    for _ = 1 to 10 do
      quarter w 0 4 8 12;
      quarter w 1 5 9 13;
      quarter w 2 6 10 14;
      quarter w 3 7 11 15;
      quarter w 0 5 10 15;
      quarter w 1 6 11 12;
      quarter w 2 7 8 13;
      quarter w 3 4 9 14
    done;
    String.init 64 (fun i ->
        Char.chr ((((w.(i / 4) + st.(i / 4)) land mask) lsr (8 * (i mod 4))) land 0xff))

  let xor ~key ~nonce ~counter msg =
    let ks =
      String.concat ""
        (List.init
           ((String.length msg + 63) / 64)
           (fun i -> block ~key ~nonce ~counter:(counter + i)))
    in
    String.mapi (fun i c -> Char.chr (Char.code c lxor Char.code ks.[i])) msg
end

module Ref_sha256 = struct
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

  let mask = 0xffffffff
  let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask

  let digest msg =
    let h =
      [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
         0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]
    in
    let len = String.length msg in
    let padded_len = (len + 9 + 63) / 64 * 64 in
    let m = Bytes.make padded_len '\000' in
    Bytes.blit_string msg 0 m 0 len;
    Bytes.set m len '\x80';
    for i = 0 to 7 do
      Bytes.set m (padded_len - 1 - i) (Char.chr (((len * 8) lsr (8 * i)) land 0xff))
    done;
    let w = Array.make 64 0 in
    for blk = 0 to (padded_len / 64) - 1 do
      for i = 0 to 15 do
        let j = (blk * 64) + (4 * i) in
        w.(i) <-
          (Char.code (Bytes.get m j) lsl 24)
          lor (Char.code (Bytes.get m (j + 1)) lsl 16)
          lor (Char.code (Bytes.get m (j + 2)) lsl 8)
          lor Char.code (Bytes.get m (j + 3))
      done;
      for i = 16 to 63 do
        let w15 = w.(i - 15) and w2 = w.(i - 2) in
        let s0 = rotr w15 7 lxor rotr w15 18 lxor (w15 lsr 3) in
        let s1 = rotr w2 17 lxor rotr w2 19 lxor (w2 lsr 10) in
        w.(i) <- (w.(i - 16) + s0 + w.(i - 7) + s1) land mask
      done;
      let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3)
      and e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
      for i = 0 to 63 do
        let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
        let ch = !e land !f lxor (lnot !e land !g) in
        let t1 = (!hh + s1 + ch + k.(i) + w.(i)) land mask in
        let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
        let maj = !a land !b lxor (!a land !c) lxor (!b land !c) in
        let t2 = (s0 + maj) land mask in
        hh := !g;
        g := !f;
        f := !e;
        e := (!d + t1) land mask;
        d := !c;
        c := !b;
        b := !a;
        a := (t1 + t2) land mask
      done;
      List.iteri
        (fun i v -> h.(i) <- (h.(i) + v) land mask)
        [ !a; !b; !c; !d; !e; !f; !g; !hh ]
    done;
    String.init 32 (fun i -> Char.chr ((h.(i / 4) lsr (8 * (3 - (i mod 4)))) land 0xff))
end

(* Non-negative integers as little-endian base-256 digit arrays. *)
module Big = struct
  let digit a i = if i < Array.length a then a.(i) else 0

  (* Drop high zero digits so sizes track magnitudes. *)
  let trim a =
    let n = ref (Array.length a) in
    while !n > 1 && a.(!n - 1) = 0 do
      decr n
    done;
    Array.sub a 0 !n

  let of_bytes s = Array.init (String.length s) (fun i -> Char.code s.[i])

  let add a b =
    let n = max (Array.length a) (Array.length b) + 1 in
    let r = Array.make n 0 and carry = ref 0 in
    for i = 0 to n - 1 do
      let x = digit a i + digit b i + !carry in
      r.(i) <- x land 0xff;
      carry := x lsr 8
    done;
    trim r

  let mul a b =
    let r = Array.make (Array.length a + Array.length b + 1) 0 in
    Array.iteri
      (fun i x ->
        let carry = ref 0 in
        Array.iteri
          (fun j y ->
            let t = r.(i + j) + (x * y) + !carry in
            r.(i + j) <- t land 0xff;
            carry := t lsr 8)
          b;
        let k = ref (i + Array.length b) in
        while !carry > 0 do
          let t = r.(!k) + !carry in
          r.(!k) <- t land 0xff;
          carry := t lsr 8;
          incr k
        done)
      a;
    trim r

  let compare a b =
    let rec go i =
      if i < 0 then 0
      else
        let c = Int.compare (digit a i) (digit b i) in
        if c <> 0 then c else go (i - 1)
    in
    go (max (Array.length a) (Array.length b) - 1)

  (* [a - b] for [a >= b]. *)
  let sub a b =
    let r = Array.make (Array.length a) 0 and borrow = ref 0 in
    for i = 0 to Array.length a - 1 do
      let x = digit a i - digit b i - !borrow in
      r.(i) <- (x + 0x100) land 0xff;
      borrow := if x < 0 then 1 else 0
    done;
    trim r

  (* Schoolbook binary long division, keeping only the remainder. *)
  let rem a m =
    let r = ref [| 0 |] in
    for bit = (8 * Array.length a) - 1 downto 0 do
      r := add !r !r;
      if (digit a (bit / 8) lsr (bit mod 8)) land 1 = 1 then r := add !r [| 1 |];
      if compare !r m >= 0 then r := sub !r m
    done;
    !r
end

let ref_poly1305 ~key msg =
  let r =
    Big.of_bytes
      (String.mapi
         (fun i c ->
           Char.chr
             (Char.code c
             land
             match i with
             | 3 | 7 | 11 | 15 -> 0x0f
             | 4 | 8 | 12 -> 0xfc
             | _ -> 0xff))
         (String.sub key 0 16))
  in
  let s = Big.of_bytes (String.sub key 16 16) in
  (* p = 2^130 - 5 *)
  let p =
    Array.init 17 (fun i -> if i = 0 then 0xfb else if i = 16 then 0x03 else 0xff)
  in
  let acc = ref [| 0 |] in
  let blocks = (String.length msg + 15) / 16 in
  for i = 0 to blocks - 1 do
    let chunk = String.sub msg (16 * i) (min 16 (String.length msg - (16 * i))) in
    let n = Big.of_bytes (chunk ^ "\x01") in
    acc := Big.rem (Big.mul r (Big.add !acc n)) p
  done;
  let t = Big.add !acc s in
  String.init 16 (fun i -> Char.chr (Big.digit t i))

let le64 n = String.init 8 (fun i -> Char.chr ((n lsr (8 * i)) land 0xff))
let pad16 s = String.make ((16 - (String.length s mod 16)) mod 16) '\000'

(* RFC 8439 §2.8 AEAD composed from the reference pieces. *)
let ref_seal ~key ~iv ~aad pt =
  let otk = String.sub (Ref_chacha20.block ~key ~nonce:iv ~counter:0) 0 32 in
  let ct = Ref_chacha20.xor ~key ~nonce:iv ~counter:1 pt in
  let mac_data =
    String.concat ""
      [ aad; pad16 aad; ct; pad16 ct; le64 (String.length aad); le64 (String.length ct) ]
  in
  (ct, ref_poly1305 ~key:otk mac_data)

let of_hex h =
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let poly1305_rfc_vector () =
  (* RFC 8439 §2.5.2. *)
  let key = of_hex "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b" in
  let msg = "Cryptographic Forum Research Group" in
  Alcotest.(check string) "reference tag" "a8061dc1305136c6c22b8baf0c0127a9"
    (Sha256.to_hex (ref_poly1305 ~key msg));
  Alcotest.(check string) "tag" "a8061dc1305136c6c22b8baf0c0127a9"
    (Sha256.to_hex (Poly1305.mac ~key msg))

let aead_rfc_vector () =
  (* RFC 8439 §2.8.2. *)
  let key = String.init 32 (fun i -> Char.chr (0x80 + i)) in
  let iv = of_hex "070000004041424344454647" in
  let aad = of_hex "50515253c0c1c2c3c4c5c6c7" in
  let pt =
    "Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it."
  in
  let ct, mac = Aead.seal (Aead.key_of_raw key) ~iv ~aad pt in
  Alcotest.(check string) "ciphertext prefix" "d31a8d34648e60db7b86afbc53ef7ec2"
    (Sha256.to_hex (String.sub ct 0 16));
  Alcotest.(check string) "tag" "1ae10b594f09e26a7e902ecbd0600691" (Sha256.to_hex mac)

let chacha20_matches_reference () =
  let key = String.init 32 (fun i -> Char.chr (((i * 29) + 3) land 0xff)) in
  let nonce = String.init 12 (fun i -> Char.chr ((i * 7) + 1)) in
  for len = 0 to 300 do
    let pt = String.init len (fun i -> Char.chr (((i * 13) + len) land 0xff)) in
    List.iter
      (fun counter ->
        Alcotest.(check string)
          (Printf.sprintf "len %d counter %d" len counter)
          (Sha256.to_hex (Ref_chacha20.xor ~key ~nonce ~counter pt))
          (Sha256.to_hex (Chacha20.xor ~key ~nonce ~counter pt)))
      [ 0; 1; 0xfffffffe ]
  done

let prop_poly1305_reference =
  QCheck.Test.make ~name:"poly1305 matches the bignum reference" ~count:200
    QCheck.(pair (string_of_size (Gen.return 32)) (string_of_size Gen.(0 -- 300)))
    (fun (key, msg) ->
      let expected = ref_poly1305 ~key msg in
      let split = String.length msg / 3 in
      (* One-shot and split updates that straddle block boundaries. *)
      let t = Poly1305.init key in
      Poly1305.update_string t (String.sub msg 0 split);
      Poly1305.update_string t (String.sub msg split (String.length msg - split));
      Poly1305.mac ~key msg = expected && Poly1305.finish t = expected)

let prop_sha256_reference =
  QCheck.Test.make ~name:"sha256 matches the reference compression" ~count:200
    QCheck.(pair (string_of_size Gen.(0 -- 300)) small_nat)
    (fun (msg, cut) ->
      let cut = if msg = "" then 0 else cut mod String.length msg in
      let ctx = Sha256.init () in
      Sha256.update_string ctx (String.sub msg 0 cut);
      let copy = Sha256.copy ctx in
      Sha256.update_string ctx (String.sub msg cut (String.length msg - cut));
      Sha256.update_string copy (String.sub msg cut (String.length msg - cut));
      let expected = Ref_sha256.digest msg in
      Sha256.digest_string msg = expected
      && Sha256.finalize ctx = expected
      && Sha256.finalize copy = expected)

let prop_seal_is_rfc8439 =
  QCheck.Test.make ~name:"aead seal is the RFC 8439 composition" ~count:100
    QCheck.(
      triple (string_of_size (Gen.return 32)) (string_of_size Gen.(0 -- 40))
        (string_of_size Gen.(0 -- 300)))
    (fun (key, aad, pt) ->
      let iv = String.sub (Sha256.digest_string key) 0 12 in
      Aead.seal (Aead.key_of_raw key) ~iv ~aad pt = ref_seal ~key ~iv ~aad pt)

let aead_rejects_every_bit_flip () =
  (* One flipped bit anywhere in the IV, the AAD, the ciphertext or the tag
     fails the open. *)
  let key = Aead.key_of_string "flip" in
  let iv = "iv-0123456ab" and aad = "header-17-bytes!!" in
  let ct, mac = Aead.seal key ~iv ~aad "a payload of 37 bytes, one bit at a t" in
  let flips s =
    List.init (8 * String.length s) (fun bit ->
        let b = Bytes.of_string s in
        Bytes.set b (bit / 8)
          (Char.chr (Char.code (Bytes.get b (bit / 8)) lxor (1 lsl (bit mod 8))));
        Bytes.to_string b)
  in
  let rejects what l =
    List.iteri
      (fun bit (iv, aad, mac, ct) ->
        match Aead.open_ key ~iv ~aad ~mac ct with
        | Error `Mac_mismatch -> ()
        | Ok _ -> Alcotest.failf "flipped %s bit %d accepted" what bit)
      l
  in
  Alcotest.(check bool) "untouched opens" true
    (Result.is_ok (Aead.open_ key ~iv ~aad ~mac ct));
  rejects "iv" (List.map (fun iv -> (iv, aad, mac, ct)) (flips iv));
  rejects "aad" (List.map (fun aad -> (iv, aad, mac, ct)) (flips aad));
  rejects "ciphertext" (List.map (fun ct -> (iv, aad, mac, ct)) (flips ct));
  rejects "tag" (List.map (fun mac -> (iv, aad, mac, ct)) (flips mac))

let iv_gen_incarnations_disjoint () =
  (* A restarted enclave (same node id, counter back at 0) must not revisit
     the IVs of its earlier lives. *)
  let seen = Hashtbl.create 3000 in
  List.iter
    (fun incarnation ->
      let g = Aead.Iv_gen.make ~node_id:7 ~incarnation in
      for _ = 1 to 1000 do
        let iv = Aead.Iv_gen.next g in
        Alcotest.(check bool) "fresh across incarnations" false (Hashtbl.mem seen iv);
        Hashtbl.replace seen iv ()
      done)
    [ 0; 1; 0xffffff ];
  Alcotest.check_raises "incarnation fits 3 bytes"
    (Invalid_argument "Iv_gen.make: incarnation") (fun () ->
      ignore (Aead.Iv_gen.make ~node_id:7 ~incarnation:0x1000000))

(* --- properties --- *)

let prop_aead_roundtrip =
  QCheck.Test.make ~name:"aead roundtrip" ~count:200
    QCheck.(pair (string_of_size Gen.(0 -- 2048)) small_string)
    (fun (pt, aad) ->
      let key = Aead.key_of_string "prop" in
      let iv = String.make 12 'x' in
      let packed = Aead.seal_packed key ~iv ~aad pt in
      Aead.open_packed key ~aad packed = Ok pt)

let prop_chacha_involution =
  QCheck.Test.make ~name:"chacha20 xor is an involution" ~count:200
    (QCheck.string_of_size QCheck.Gen.(0 -- 4096))
    (fun pt ->
      let key = String.make 32 'k' and nonce = String.make 12 'n' in
      Chacha20.xor ~key ~nonce (Chacha20.xor ~key ~nonce pt) = pt)

let prop_sha_distinct =
  QCheck.Test.make ~name:"sha256 distinguishes distinct inputs" ~count:200
    QCheck.(pair small_string small_string)
    (fun (a, b) -> a = b || Sha256.digest_string a <> Sha256.digest_string b)

let suite =
  [
    Alcotest.test_case "sha256 vectors" `Quick sha256_vectors;
    Alcotest.test_case "sha256 incremental" `Quick sha256_incremental;
    Alcotest.test_case "sha256 state copy" `Quick sha256_copy;
    Alcotest.test_case "hmac rfc4231 vectors" `Quick hmac_vectors;
    Alcotest.test_case "hmac parts" `Quick hmac_parts;
    Alcotest.test_case "hmac tag comparison" `Quick hmac_equal_tags;
    Alcotest.test_case "chacha20 rfc block" `Quick chacha20_rfc_block;
    Alcotest.test_case "chacha20 rfc encrypt" `Quick chacha20_rfc_encrypt;
    Alcotest.test_case "aead detects any bit flip" `Quick aead_tamper_every_byte;
    Alcotest.test_case "aead wrong aad/key" `Quick aead_wrong_aad;
    Alcotest.test_case "iv generator uniqueness" `Quick iv_gen_unique;
    Alcotest.test_case "region crypto primitives" `Quick region_primitives;
    Alcotest.test_case "aead region/string interverify" `Quick
      aead_region_interverifies;
    Alcotest.test_case "iv_gen next_into = next" `Quick iv_gen_next_into;
    Alcotest.test_case "key derivation" `Quick keys_derivation;
    Alcotest.test_case "poly1305 rfc vector" `Quick poly1305_rfc_vector;
    Alcotest.test_case "aead rfc 8439 vector" `Quick aead_rfc_vector;
    Alcotest.test_case "chacha20 matches the reference" `Quick
      chacha20_matches_reference;
    Alcotest.test_case "aead rejects every bit flip" `Quick
      aead_rejects_every_bit_flip;
    Alcotest.test_case "iv generator incarnations disjoint" `Quick
      iv_gen_incarnations_disjoint;
    QCheck_alcotest.to_alcotest prop_poly1305_reference;
    QCheck_alcotest.to_alcotest prop_sha256_reference;
    QCheck_alcotest.to_alcotest prop_seal_is_rfc8439;
    QCheck_alcotest.to_alcotest prop_aead_roundtrip;
    QCheck_alcotest.to_alcotest prop_chacha_involution;
    QCheck_alcotest.to_alcotest prop_sha_distinct;
  ]
