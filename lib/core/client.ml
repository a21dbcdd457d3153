module Sim = Treaty_sim.Sim
module Enclave = Treaty_tee.Enclave
module Erpc = Treaty_rpc.Erpc
module Secure_msg = Treaty_rpc.Secure_msg
module Mempool = Treaty_memalloc.Mempool
module Net = Treaty_netsim.Net
module Keys = Treaty_crypto.Keys
module Wire = Treaty_util.Wire

type t = {
  sim : Sim.t;
  rpc : Erpc.t;
  client_id : int;
  token : string;
  nodes : int array;
  route : string -> int;
      (* The cluster's shard map: read-only transactions are routed straight
         to the owning node instead of through a 2PC coordinator. *)
  mutable rr : int;
}

(* How long a client waits for a node's reply to one request. *)
let op_timeout_ns = 400_000_000

type txn = { t_coord : int; t_seq : int }

let client_id t = t.client_id
let coordinator txn = txn.t_coord
let tx_seq txn = txn.t_seq

(* Decode the status byte that leads a node reply, with the node's own
   table. An unknown transaction is gone coordinator-side (already rolled
   back or aborted, or lost to a restart): a failure, not the application's
   own rollback. A truncated reply or an unknown code is a failure too. *)
let reply_status r =
  match Wire.r8 r with
  | code -> (
      match Node.status_of_code code with
      | Some Node.St_ok -> Ok ()
      | Some Node.St_lock_timeout ->
          Error Types.Lock_timeout (* tx auto-aborted coordinator-side *)
      | Some Node.St_unknown_tx | None -> Error Types.Participant_failed
      | Some Node.St_conflict -> Error Types.Validation_failed
      | Some Node.St_unauth -> Error Types.Unauthenticated)
  | exception Wire.Malformed _ -> Error Types.Participant_failed

let register_with t node =
  let b = Buffer.create 64 in
  Wire.w64 b t.client_id;
  Wire.wstr b t.token;
  match Erpc.call t.rpc ~dst:node ~kind:Node.k_client_register (Buffer.contents b) with
  | Ok reply -> String.length reply = 1 && reply_status (Wire.reader reply) = Ok ()
  | Error (`Timeout | `Tampered) -> false

let connect cluster ~client_id =
  let sim = Cluster.sim cluster in
  let config = Cluster.config cluster in
  match Cluster.client_token cluster ~client_id with
  | Error `Cas_down -> Error `Cas_down
  | Ok token ->
      let enclave =
        (* Clients run on their own trusted machines, outside SGX. A client
           id may connect more than once; each connect is a new launch. *)
        Enclave.create ~incarnation:(Cluster.next_incarnation cluster) sim
          ~mode:Enclave.Native ~cost:config.cost ~cores:4
          ~node_id:(1000 + client_id) ~code_identity:"treaty-client"
      in
      let pool = Mempool.create enclave in
      let security =
        if config.profile.encryption then
          Secure_msg.Secure (Keys.network_key (Cluster.master cluster))
        else Secure_msg.Plain
      in
      let rpc =
        Erpc.create sim ~net:(Cluster.net cluster) ~enclave ~pool
          ~config:
            {
              (Erpc.default_config ~security) with
              Erpc.timeout_ns = op_timeout_ns;
            }
          ~node_id:(1000 + client_id) ~net_config:Net.client_config ()
      in
      let t =
        {
          sim;
          rpc;
          client_id;
          token;
          nodes = Array.of_list (Cluster.node_ids cluster);
          route = (fun key -> Cluster.route_key cluster key);
          rr = client_id;
        }
      in
      let all_registered = Array.for_all (register_with t) t.nodes in
      if all_registered then Ok t
      else begin
        Erpc.shutdown rpc;
        Error `Auth_failed
      end

exception Connect_failed of string

let connect_exn cluster ~client_id =
  match connect cluster ~client_id with
  | Ok t -> t
  | Error `Auth_failed -> raise (Connect_failed "client authentication failed")
  | Error `Cas_down -> raise (Connect_failed "CAS down")

let pick_coord t =
  t.rr <- t.rr + 1;
  t.nodes.(t.rr mod Array.length t.nodes)

let rec begin_attempt t ~retry coord =
  let b = Buffer.create 8 in
  Wire.w64 b t.client_id;
  match
    Erpc.call t.rpc ~dst:coord ~kind:Node.k_client_begin
      ~timeout_ns:op_timeout_ns (Buffer.contents b)
  with
  | Error (`Timeout | `Tampered) -> Error Types.Participant_failed
  | Ok reply -> (
      let r = Wire.reader reply in
      match reply_status r with
      | Ok () -> Ok { t_coord = coord; t_seq = Wire.r64 r }
      | Error Types.Unauthenticated ->
          (* A restarted node has an empty client registry: re-register
             (re-presenting the CAS token) and retry once. *)
          if retry && register_with t coord then
            begin_attempt t ~retry:false coord
          else Error Types.Unauthenticated
      | Error _ -> Error Types.Participant_failed)

let begin_txn t ?coord () =
  let coord = Option.value coord ~default:(pick_coord t) in
  begin_attempt t ~retry:true coord

let send_op t txn op =
  let b = Buffer.create 64 in
  Wire.w64 b t.client_id;
  Wire.w64 b txn.t_seq;
  (match op with
  | `Get key ->
      Wire.w8 b 0;
      Wire.wstr b key
  | `Put (key, value) ->
      Wire.w8 b 1;
      Wire.wstr b key;
      Wire.wstr b value
  | `Del key ->
      Wire.w8 b 2;
      Wire.wstr b key);
  match
    Erpc.call t.rpc ~dst:txn.t_coord ~kind:Node.k_client_op
      ~timeout_ns:op_timeout_ns (Buffer.contents b)
  with
  | Error (`Timeout | `Tampered) -> Error Types.Participant_failed
  | Ok reply -> (
      let r = Wire.reader reply in
      match reply_status r with
      | Ok () ->
          let value = if Wire.r8 r = 1 then Some (Wire.rstr r) else None in
          Ok value
      | Error e -> Error e)

let get t txn key = send_op t txn (`Get key)

let scan t txn ~lo ~hi =
  let b = Buffer.create 64 in
  Wire.w64 b t.client_id;
  Wire.w64 b txn.t_seq;
  Wire.wstr b lo;
  Wire.wstr b hi;
  match
    Erpc.call t.rpc ~dst:txn.t_coord ~kind:Node.k_client_scan
      ~timeout_ns:op_timeout_ns (Buffer.contents b)
  with
  | Error (`Timeout | `Tampered) -> Error Types.Participant_failed
  | Ok reply -> (
      let r = Wire.reader reply in
      match reply_status r with
      | Ok () -> (
          match
            Wire.rlist r (fun r ->
                let k = Wire.rstr r in
                let v = Wire.rstr r in
                (k, v))
          with
          | kvs -> Ok kvs
          | exception Wire.Malformed _ -> Error Types.Participant_failed)
      | Error e -> Error e)

let put t txn key value =
  match send_op t txn (`Put (key, value)) with
  | Ok _ -> Ok ()
  | Error e -> Error e

let delete t txn key =
  match send_op t txn (`Del key) with Ok _ -> Ok () | Error e -> Error e

let commit t txn =
  let b = Buffer.create 16 in
  Wire.w64 b t.client_id;
  Wire.w64 b txn.t_seq;
  match
    Erpc.call t.rpc ~dst:txn.t_coord ~kind:Node.k_client_commit
      ~timeout_ns:op_timeout_ns (Buffer.contents b)
  with
  | Error (`Timeout | `Tampered) -> Error Types.Participant_failed
  | Ok reply -> (
      let r = Wire.reader reply in
      match reply_status r with
      | Ok () -> Ok ()
      | Error Types.Lock_timeout -> (
          (* Aborted at commit: a reason byte refines the status. *)
          match Wire.r8 r with
          | code -> Error (Node.abort_of_code code)
          | exception Wire.Malformed _ -> Error Types.Participant_failed)
      | Error e -> Error e)

let rollback t txn =
  let b = Buffer.create 16 in
  Wire.w64 b t.client_id;
  Wire.w64 b txn.t_seq;
  ignore
    (Erpc.call t.rpc ~dst:txn.t_coord ~kind:Node.k_client_abort
       ~timeout_ns:op_timeout_ns (Buffer.contents b))

(* Zero-RPC read-only fast path: declare the read set up front, group the
   keys by owning node and ship each group as ONE RPC answered from a
   retained MVCC snapshot — no begin/commit round, no locks, no
   stabilization waits. Each per-owner batch is its own serializable
   read-only transaction (a consistent prefix of that shard); a multi-shard
   call therefore gets per-shard snapshot consistency, not one global
   snapshot — callers that need cross-shard atomicity use {!with_txn}. *)
let read_only t keys =
  let groups = Hashtbl.create 4 in
  let owners_rev = ref [] in
  List.iter
    (fun key ->
      let owner = t.route key in
      match Hashtbl.find_opt groups owner with
      | Some batch -> batch := key :: !batch
      | None ->
          Hashtbl.add groups owner (ref [ key ]);
          owners_rev := owner :: !owners_rev)
    keys;
  let results = Hashtbl.create 16 in
  let rec fetch ~retry owner batch =
    let b = Buffer.create 64 in
    Wire.w64 b t.client_id;
    Wire.wlist b Wire.wstr batch;
    match
      Erpc.call t.rpc ~dst:owner ~kind:Node.k_client_ro
        ~timeout_ns:op_timeout_ns (Buffer.contents b)
    with
    | Error (`Timeout | `Tampered) -> Error Types.Participant_failed
    | Ok reply -> (
        let r = Wire.reader reply in
        match reply_status r with
        | Ok () -> (
            match
              Wire.rlist r (fun r ->
                  if Wire.r8 r = 1 then Some (Wire.rstr r) else None)
            with
            | exception Wire.Malformed _ -> Error Types.Participant_failed
            | values when List.length values = List.length batch ->
                List.iter2
                  (fun key v -> Hashtbl.replace results key v)
                  batch values;
                Ok ()
            | _short -> Error Types.Participant_failed)
        | Error Types.Lock_timeout ->
            (* The owner's stability guard timed out: the read set stayed
               under in-flight writes for the whole lock-timeout budget. *)
            Error Types.Lock_timeout
        | Error Types.Unauthenticated ->
            (* Restarted node with an empty client registry: re-present the
               CAS token and retry once, as begin_txn does. *)
            if retry && register_with t owner then
              fetch ~retry:false owner batch
            else Error Types.Unauthenticated
        | Error _ -> Error Types.Participant_failed)
  in
  let rec go = function
    | [] ->
        Ok
          (List.map
             (fun key ->
               (key, Option.join (Hashtbl.find_opt results key)))
             keys)
    | owner :: rest -> (
        match fetch ~retry:true owner (List.rev !(Hashtbl.find groups owner)) with
        | Ok () -> go rest
        | Error e -> Error e)
  in
  go (List.rev !owners_rev)

let disconnect t = Erpc.shutdown t.rpc

let with_txn t ?coord body =
  match begin_txn t ?coord () with
  | Error e -> Error e
  | Ok txn -> (
      match body txn with
      | Ok v -> (
          match commit t txn with Ok () -> Ok v | Error e -> Error e)
      | Error e ->
          rollback t txn;
          Error e)
