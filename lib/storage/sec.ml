module Enclave = Treaty_tee.Enclave
module Aead = Treaty_crypto.Aead

exception Integrity_violation of string

type t = {
  enclave : Enclave.t;
  auth : bool;
  enc : Aead.key option;
  mac_root : Treaty_crypto.Hmac.t;
}

let create ~enclave ~auth ~enc () =
  let node = Enclave.node_id enclave in
  {
    enclave;
    auth;
    enc;
    mac_root =
      Treaty_crypto.Hmac.create
        (Treaty_crypto.Sha256.digest_string (Printf.sprintf "log-mac-root:%d" node));
  }

let enclave t = t.enclave
let auth t = t.auth
let encrypted t = Option.is_some t.enc

let protect t data =
  match t.enc with
  | None -> data
  | Some key ->
      Enclave.charge_crypto t.enclave ~bytes:(String.length data);
      Aead.seal_packed key
        ~iv:(Aead.Iv_gen.next (Enclave.iv_gen t.enclave))
        data

let unprotect t ~what data =
  match t.enc with
  | None -> data
  | Some key -> (
      Enclave.charge_crypto t.enclave ~bytes:(String.length data);
      match Aead.open_packed key data with
      | Ok pt -> pt
      | Error (`Mac_mismatch | `Truncated) -> raise (Integrity_violation what))

let digest t data =
  if not t.auth then ""
  else begin
    Enclave.charge_hash t.enclave ~bytes:(String.length data);
    Treaty_crypto.Sha256.digest_string data
  end

let check_digest t ~what ~data ~expected =
  if t.auth then begin
    Enclave.charge_hash t.enclave ~bytes:(String.length data);
    if not
         (Treaty_crypto.Hmac.equal_tags
            (Treaty_crypto.Sha256.digest_string data)
            expected)
    then raise (Integrity_violation what)
  end

let bind t stored =
  if not t.auth then ""
  else if not (encrypted t) then digest t stored
  else begin
    (* Charged as the hash SPEICHER computes, which the model reproduces. *)
    Enclave.charge_hash t.enclave ~bytes:(String.length stored);
    match Aead.packed_descriptor stored with
    | Some d -> d
    | None -> invalid_arg "Sec.bind: not a sealed blob"
  end

let open_bound t ~what ~binding stored =
  if t.auth then
    if not (encrypted t) then check_digest t ~what ~data:stored ~expected:binding
    else begin
      Enclave.charge_hash t.enclave ~bytes:(String.length stored);
      if not (Aead.descriptor_matches stored binding) then
        raise (Integrity_violation what)
    end;
  unprotect t ~what stored

let cover t stored =
  if not (encrypted t) then stored
  else
    match Aead.packed_descriptor stored with
    | Some d -> d
    | None -> raise (Integrity_violation "sealed blob too short")

let mac_key t name = Treaty_crypto.Hmac.create (Treaty_crypto.Hmac.mac t.mac_root name)
