module Enclave = Treaty_tee.Enclave

type value_ref = {
  slot : int;
  stored_len : int;
  binding : string;
      (* Sec.bind of the sealed value; SHA-256 of the plaintext when values
         stay in the enclave. *)
  tombstone : bool;
}

type lookup = Found of int * string | Deleted of int | Not_found

type t = {
  sec : Sec.t;
  sl : value_ref Skiplist.t;
  host : Buffer.t;
  values_in_enclave : bool;
  mutable enclave_bytes : int;
  mutable host_bytes : int;
  mutable released : bool;
}

(* Per-entry enclave footprint: key bytes + seq + value pointer + binding. *)
let entry_overhead key = String.length key + 8 + 16 + 32

let create ?(values_in_enclave = false) sec =
  {
    sec;
    sl = Skiplist.create ();
    host = Buffer.create 4096;
    values_in_enclave;
    enclave_bytes = 0;
    host_bytes = 0;
    released = false;
  }

let charge_alloc t ~enclave_part ~value_part =
  let e = Sec.enclave t.sec in
  t.enclave_bytes <- t.enclave_bytes + enclave_part;
  Enclave.alloc_enclave e enclave_part;
  if t.values_in_enclave then begin
    t.enclave_bytes <- t.enclave_bytes + value_part;
    Enclave.alloc_enclave e value_part
  end
  else begin
    t.host_bytes <- t.host_bytes + value_part;
    Enclave.alloc_host e value_part
  end

let add t ~key ~seq op =
  let plain = match op with Op.Put v -> v | Op.Delete -> "" in
  let tombstone = op = Op.Delete in
  (* Values headed for untrusted host memory are protected; in the
     all-in-enclave ablation they stay plaintext inside the EPC. *)
  let stored = if t.values_in_enclave then plain else Sec.protect t.sec plain in
  (* TreatySan boundary: in the default layout this buffer lands in
     untrusted host memory (in the all-in-enclave ablation it stays in the
     EPC, so plaintext there is fine). *)
  if not t.values_in_enclave then
    Treaty_crypto.Taint.check ~what:"memtable host write" stored;
  let binding =
    if t.values_in_enclave then Sec.digest t.sec stored else Sec.bind t.sec stored
  in
  let slot = Buffer.length t.host in
  Buffer.add_string t.host stored;
  charge_alloc t ~enclave_part:(entry_overhead key) ~value_part:(String.length stored);
  Skiplist.insert t.sl ~key ~seq
    { slot; stored_len = String.length stored; binding; tombstone }

let what = "memtable value"

let fetch t vref =
  let stored = Buffer.sub t.host vref.slot vref.stored_len in
  if t.values_in_enclave then begin
    Sec.check_digest t.sec ~what ~data:stored ~expected:vref.binding;
    stored
  end
  else Sec.open_bound t.sec ~what ~binding:vref.binding stored

let get t ~key ~max_seq =
  match Skiplist.find t.sl ~key ~max_seq with
  | None -> Not_found
  | Some (seq, vref) ->
      if vref.tombstone then Deleted seq else Found (seq, fetch t vref)

let entries t = Skiplist.length t.sl
let approx_bytes t = t.enclave_bytes + t.host_bytes

let to_sorted t =
  Skiplist.fold t.sl ~init:[] ~f:(fun acc ~key ~seq vref ->
      let op = if vref.tombstone then Op.Delete else Op.Put (fetch t vref) in
      (key, seq, op) :: acc)
  |> List.rev

let range t ~lo ~hi ~max_seq =
  Skiplist.fold_range t.sl ~lo ~hi ~init:[] ~f:(fun acc ~key ~seq vref ->
      if seq > max_seq then acc
      else
        let op = if vref.tombstone then Op.Delete else Op.Put (fetch t vref) in
        (key, seq, op) :: acc)
  |> List.rev

let release t =
  if not t.released then begin
    t.released <- true;
    let e = Sec.enclave t.sec in
    Enclave.free_enclave e t.enclave_bytes;
    Enclave.free_host e t.host_bytes
  end

let rewrite_host t f =
  let contents = Bytes.of_string (Buffer.contents t.host) in
  f contents;
  Buffer.clear t.host;
  Buffer.add_bytes t.host contents

let host_tamper t =
  if Buffer.length t.host > 0 then
    rewrite_host t (fun contents ->
        let i = Bytes.length contents / 2 in
        Bytes.set contents i (Char.chr (Char.code (Bytes.get contents i) lxor 0x01)))

let host_swap t k1 k2 =
  let freshest key =
    match Skiplist.find t.sl ~key ~max_seq:max_int with
    | Some (_, vref) -> vref
    | None -> invalid_arg ("Memtable.host_swap: no key " ^ key)
  in
  let a = freshest k1 and b = freshest k2 in
  if a.stored_len <> b.stored_len then invalid_arg "Memtable.host_swap: lengths differ";
  rewrite_host t (fun contents ->
      let va = Bytes.sub contents a.slot a.stored_len in
      Bytes.blit contents b.slot contents a.slot b.stored_len;
      Bytes.blit va 0 contents b.slot a.stored_len)
