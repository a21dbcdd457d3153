type t = { inner : Sha256.ctx; outer : Sha256.ctx }

let block_size = 64

let create key =
  let key =
    if String.length key > block_size then Sha256.digest_string key else key
  in
  let ipad = Bytes.make block_size '\x36' and opad = Bytes.make block_size '\x5c' in
  String.iteri
    (fun i c ->
      Bytes.set ipad i (Char.chr (Char.code c lxor 0x36));
      Bytes.set opad i (Char.chr (Char.code c lxor 0x5c)))
    key;
  let inner = Sha256.init () and outer = Sha256.init () in
  Sha256.update inner ipad 0 block_size;
  Sha256.update outer opad 0 block_size;
  { inner; outer }

let finish t inner_ctx =
  let inner_digest = Sha256.finalize inner_ctx in
  let outer_ctx = Sha256.copy t.outer in
  Sha256.update_string outer_ctx inner_digest;
  Sha256.finalize outer_ctx

let mac t msg =
  let ctx = Sha256.copy t.inner in
  Sha256.update_string ctx msg;
  finish t ctx

let mac_parts t parts =
  let ctx = Sha256.copy t.inner in
  List.iter (Sha256.update_string ctx) parts;
  finish t ctx

let mac_bytes t buf off len =
  let ctx = Sha256.copy t.inner in
  Sha256.update ctx buf off len;
  finish t ctx

let equal_tags a b =
  String.length a = String.length b
  && begin
       let acc = ref 0 in
       String.iteri (fun i c -> acc := !acc lor (Char.code c lxor Char.code b.[i])) a;
       !acc = 0
     end

let verify t msg ~tag = equal_tags (mac t msg) tag
