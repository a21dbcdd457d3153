module Rng = Treaty_sim.Rng
module Client = Treaty_core.Client
module Types = Treaty_core.Types

type config = {
  warehouses : int;
  districts_per_warehouse : int;
  customers_per_district : int;
  items : int;
  remote_item_pct : int;
  remote_customer_pct : int;
}

let config ?(warehouses = 10) () =
  {
    warehouses;
    districts_per_warehouse = 10;
    customers_per_district = 60;
    items = 400;
    remote_item_pct = 1;
    remote_customer_pct = 15;
  }

(* --- schema records (marshalled as values) ----------------------------- *)

type warehouse = { w_name : string; w_tax : float; mutable w_ytd : float }

type district = {
  d_name : string;
  d_tax : float;
  mutable d_ytd : float;
  mutable d_next_o_id : int;
}

type customer = {
  c_last : string;
  c_credit : string;
  c_discount : float;
  mutable c_balance : float;
  mutable c_ytd_payment : float;
  mutable c_payment_cnt : int;
  mutable c_delivery_cnt : int;
}

type item = { i_name : string; i_price : float }

type stock = {
  mutable s_quantity : int;
  mutable s_ytd : int;
  mutable s_order_cnt : int;
  mutable s_remote_cnt : int;
}

type order = {
  o_c_id : int;
  o_entry_d : int;
  mutable o_carrier_id : int option;
  o_ol_cnt : int;
}

type order_line = {
  ol_i_id : int;
  ol_supply_w_id : int;
  ol_quantity : int;
  ol_amount : float;
  mutable ol_delivery_d : int option;
}

let ser v = Marshal.to_string v []
let deser (s : string) : 'a = Marshal.from_string s 0

(* --- key mapping -------------------------------------------------------- *)

let k_warehouse w = Printf.sprintf "w:%d" w
let k_district w d = Printf.sprintf "d:%d:%d" w d
let k_customer w d c = Printf.sprintf "c:%d:%d:%d" w d c
let k_item w i = Printf.sprintf "i:%d:%d" w i
let k_stock w i = Printf.sprintf "s:%d:%d" w i
let k_order w d o = Printf.sprintf "o:%d:%d:%d" w d o
let k_order_line w d o n = Printf.sprintf "ol:%d:%d:%d:%d" w d o n
let k_no_first w d = Printf.sprintf "no_first:%d:%d" w d
let k_customer_last_order w d c = Printf.sprintf "c_last_o:%d:%d:%d" w d c
let k_customer_index w d last = Printf.sprintf "cidx:%d:%d:%s" w d last
let k_history w d c ts = Printf.sprintf "h:%d:%d:%d:%d" w d c ts

(* Every TPC-C key embeds its warehouse right after the first ':'. *)
let warehouse_of_key key =
  match String.index_opt key ':' with
  | None -> 0
  | Some i -> (
      let rest = String.sub key (i + 1) (String.length key - i - 1) in
      match String.index_opt rest ':' with
      | None -> ( try int_of_string rest with _ -> 0)
      | Some j -> ( try int_of_string (String.sub rest 0 j) with _ -> 0))

let route _config ~nodes key = (warehouse_of_key key - 1 + nodes) mod nodes
let home_node config ~nodes ~warehouse =
  route config ~nodes (k_warehouse warehouse)

(* --- load ---------------------------------------------------------------- *)

let last_names =
  [| "BAR"; "OUGHT"; "ABLE"; "PRI"; "PRES"; "ESE"; "ANTI"; "CALLY"; "ATION"; "EING" |]

let last_name_of i =
  (* Standard TPC-C syllable construction. *)
  last_names.(i / 100 mod 10) ^ last_names.(i / 10 mod 10) ^ last_names.(i mod 10)

let load config client rng =
  for w = 1 to config.warehouses do
    let puts = ref [] in
    let add k v = puts := (k, v) :: !puts in
    add (k_warehouse w)
      (ser { w_name = Printf.sprintf "wh-%d" w; w_tax = 0.05; w_ytd = 300000.0 });
    for i = 1 to config.items do
      add (k_item w i)
        (ser { i_name = Printf.sprintf "item-%d" i; i_price = 1.0 +. float_of_int (i mod 100) });
      add (k_stock w i)
        (ser { s_quantity = 50 + Rng.int rng 50; s_ytd = 0; s_order_cnt = 0; s_remote_cnt = 0 })
    done;
    for d = 1 to config.districts_per_warehouse do
      add (k_district w d)
        (ser { d_name = Printf.sprintf "d-%d" d; d_tax = 0.05; d_ytd = 30000.0; d_next_o_id = 1 });
      add (k_no_first w d) (ser 1);
      let index : (string, int list) Hashtbl.t = Hashtbl.create 16 in
      for c = 1 to config.customers_per_district do
        let c_last = last_name_of (c - 1) in
        add (k_customer w d c)
          (ser
             {
               c_last;
               c_credit = (if Rng.int rng 10 = 0 then "BC" else "GC");
               c_discount = 0.1;
               c_balance = -10.0;
               c_ytd_payment = 10.0;
               c_payment_cnt = 1;
               c_delivery_cnt = 0;
             });
        Hashtbl.replace index c_last
          (c :: Option.value ~default:[] (Hashtbl.find_opt index c_last))
      done;
      Hashtbl.iter (fun last cs -> add (k_customer_index w d last) (ser (List.sort compare cs))) index
    done;
    (* Moderate transactions bound buffer sizes. *)
    Driver.load_batches client ~batch:200 (List.to_seq (List.rev !puts))
  done

(* --- transaction profiles ------------------------------------------------ *)

type txn_kind = New_order | Payment | Order_status | Delivery | Stock_level

let kind_name = function
  | New_order -> "NewOrder"
  | Payment -> "Payment"
  | Order_status -> "OrderStatus"
  | Delivery -> "Delivery"
  | Stock_level -> "StockLevel"

let pick_kind rng =
  let r = Rng.int rng 100 in
  if r < 45 then New_order
  else if r < 88 then Payment
  else if r < 92 then Order_status
  else if r < 96 then Delivery
  else Stock_level

let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e

let get_rec client txn key : ('a, Types.abort_reason) result =
  match Client.get client txn key with
  | Ok (Some v) -> Ok (deser v)
  | Ok None -> Error Types.Integrity (* load invariant: record must exist *)
  | Error e -> Error e

let put_rec client txn key v =
  match Client.put client txn key (ser v) with Ok () -> Ok () | Error e -> Error e

(* NURand-ish customer selection: skewed towards a hot subset. *)
let pick_customer config rng =
  let n = config.customers_per_district in
  let a = Rng.int rng n and b = Rng.int rng n in
  1 + min a b

let pick_district config rng = 1 + Rng.int rng config.districts_per_warehouse

let new_order config client rng ~home txn =
  let d = pick_district config rng in
  let c = pick_customer config rng in
  let ol_cnt = 5 + Rng.int rng 11 in
  (* 1% of NewOrders roll back on an invalid item (spec 2.4.1.4). *)
  let rollback = Rng.int rng 100 = 0 in
  let* _w = (get_rec client txn (k_warehouse home) : (warehouse, _) result) in
  let* district = (get_rec client txn (k_district home d) : (district, _) result) in
  let o_id = district.d_next_o_id in
  let* () =
    put_rec client txn (k_district home d) { district with d_next_o_id = o_id + 1 }
  in
  let rec lines n total =
    if n > ol_cnt then Ok total
    else begin
      let remote = Rng.int rng 100 < config.remote_item_pct && config.warehouses > 1 in
      let supply_w =
        if remote then begin
          let rec other () =
            let w = 1 + Rng.int rng config.warehouses in
            if w = home then other () else w
          in
          other ()
        end
        else home
      in
      let i_id =
        if rollback && n = ol_cnt then config.items + 1 (* unused item *)
        else 1 + Rng.int rng config.items
      in
      if i_id > config.items then Error Types.Rolled_back
      else
        let* item = (get_rec client txn (k_item home i_id) : (item, _) result) in
        let* stock = (get_rec client txn (k_stock supply_w i_id) : (stock, _) result) in
        let qty = 1 + Rng.int rng 10 in
        let s_quantity =
          if stock.s_quantity >= qty + 10 then stock.s_quantity - qty
          else stock.s_quantity - qty + 91
        in
        let* () =
          put_rec client txn (k_stock supply_w i_id)
            {
              s_quantity;
              s_ytd = stock.s_ytd + qty;
              s_order_cnt = stock.s_order_cnt + 1;
              s_remote_cnt = (stock.s_remote_cnt + if remote then 1 else 0);
            }
        in
        let amount = float_of_int qty *. item.i_price in
        let* () =
          put_rec client txn
            (k_order_line home d o_id n)
            {
              ol_i_id = i_id;
              ol_supply_w_id = supply_w;
              ol_quantity = qty;
              ol_amount = amount;
              ol_delivery_d = None;
            }
        in
        lines (n + 1) (total +. amount)
    end
  in
  let* _total = lines 1 0.0 in
  let* () =
    put_rec client txn (k_order home d o_id)
      { o_c_id = c; o_entry_d = 0; o_carrier_id = None; o_ol_cnt = ol_cnt }
  in
  let* () = put_rec client txn (k_customer_last_order home d c) o_id in
  Ok ()

let payment config client rng ~home txn =
  let d = pick_district config rng in
  let amount = 1.0 +. Rng.float rng 4999.0 in
  (* 15% of payments are for a customer of a remote warehouse (2.5.1.2). *)
  let c_w, c_d =
    if Rng.int rng 100 < config.remote_customer_pct && config.warehouses > 1 then begin
      let rec other () =
        let w = 1 + Rng.int rng config.warehouses in
        if w = home then other () else w
      in
      (other (), pick_district config rng)
    end
    else (home, d)
  in
  let* w = (get_rec client txn (k_warehouse home) : (warehouse, _) result) in
  let* () = put_rec client txn (k_warehouse home) { w with w_ytd = w.w_ytd +. amount } in
  let* district = (get_rec client txn (k_district home d) : (district, _) result) in
  let* () =
    put_rec client txn (k_district home d)
      { district with d_ytd = district.d_ytd +. amount }
  in
  (* 60% select customer by last name through the index (2.5.1.2). *)
  let* c_id =
    if Rng.int rng 100 < 60 then begin
      let last = last_name_of (Rng.int rng config.customers_per_district) in
      match Client.get client txn (k_customer_index c_w c_d last) with
      | Ok (Some v) -> (
          let ids : int list = deser v in
          match ids with
          | [] -> Ok (pick_customer config rng)
          | _ -> Ok (List.nth ids (List.length ids / 2)) (* median, per spec *))
      | Ok None -> Ok (pick_customer config rng)
      | Error e -> Error e
    end
    else Ok (pick_customer config rng)
  in
  let* cust = (get_rec client txn (k_customer c_w c_d c_id) : (customer, _) result) in
  let* () =
    put_rec client txn (k_customer c_w c_d c_id)
      {
        cust with
        c_balance = cust.c_balance -. amount;
        c_ytd_payment = cust.c_ytd_payment +. amount;
        c_payment_cnt = cust.c_payment_cnt + 1;
      }
  in
  let* () =
    put_rec client txn
      (k_history home d c_id (Rng.int rng max_int))
      (amount, home, d, c_w, c_d)
  in
  Ok ()

let order_status config client rng ~home txn =
  let d = pick_district config rng in
  let c = pick_customer config rng in
  let* _cust = (get_rec client txn (k_customer home d c) : (customer, _) result) in
  match Client.get client txn (k_customer_last_order home d c) with
  | Ok None -> Ok () (* no order yet *)
  | Error e -> Error e
  | Ok (Some v) ->
      let o_id : int = deser v in
      let* order = (get_rec client txn (k_order home d o_id) : (order, _) result) in
      let rec read_lines n =
        if n > order.o_ol_cnt then Ok ()
        else
          match Client.get client txn (k_order_line home d o_id n) with
          | Ok _ -> read_lines (n + 1)
          | Error e -> Error e
      in
      read_lines 1

let delivery config client rng ~home txn =
  ignore rng;
  let carrier = 1 + Rng.int rng 10 in
  let rec districts d =
    if d > config.districts_per_warehouse then Ok ()
    else
      let* first = (get_rec client txn (k_no_first home d) : (int, _) result) in
      let* district = (get_rec client txn (k_district home d) : (district, _) result) in
      if first >= district.d_next_o_id then districts (d + 1) (* nothing undelivered *)
      else
        let o_id = first in
        let* order = (get_rec client txn (k_order home d o_id) : (order, _) result) in
        let* () =
          put_rec client txn (k_order home d o_id)
            { order with o_carrier_id = Some carrier }
        in
        let rec sum_lines n total =
          if n > order.o_ol_cnt then Ok total
          else
            let* ol =
              (get_rec client txn (k_order_line home d o_id n) : (order_line, _) result)
            in
            let* () =
              put_rec client txn (k_order_line home d o_id n)
                { ol with ol_delivery_d = Some 1 }
            in
            sum_lines (n + 1) (total +. ol.ol_amount)
        in
        let* total = sum_lines 1 0.0 in
        let* cust =
          (get_rec client txn (k_customer home d order.o_c_id) : (customer, _) result)
        in
        let* () =
          put_rec client txn (k_customer home d order.o_c_id)
            {
              cust with
              c_balance = cust.c_balance +. total;
              c_delivery_cnt = cust.c_delivery_cnt + 1;
            }
        in
        let* () = put_rec client txn (k_no_first home d) (o_id + 1) in
        districts (d + 1)
  in
  districts 1

let stock_level config client rng ~home txn =
  let d = pick_district config rng in
  let threshold = 10 + Rng.int rng 11 in
  let* district = (get_rec client txn (k_district home d) : (district, _) result) in
  let next = district.d_next_o_id in
  let lo = max 1 (next - 20) in
  let seen = Hashtbl.create 64 in
  let low = ref 0 in
  let rec orders o =
    if o >= next then Ok ()
    else
      match Client.get client txn (k_order home d o) with
      | Error e -> Error e
      | Ok None -> orders (o + 1)
      | Ok (Some v) ->
          let order : order = deser v in
          let rec lines n =
            if n > order.o_ol_cnt then Ok ()
            else
              match Client.get client txn (k_order_line home d o n) with
              | Error e -> Error e
              | Ok None -> lines (n + 1)
              | Ok (Some lv) ->
                  let ol : order_line = deser lv in
                  if not (Hashtbl.mem seen ol.ol_i_id) then begin
                    Hashtbl.replace seen ol.ol_i_id ();
                    match Client.get client txn (k_stock home ol.ol_i_id) with
                    | Error e -> Error e
                    | Ok None -> lines (n + 1)
                    | Ok (Some sv) ->
                        let stock : stock = deser sv in
                        if stock.s_quantity < threshold then incr low;
                        lines (n + 1)
                  end
                  else lines (n + 1)
          in
          (match lines 1 with Ok () -> orders (o + 1) | Error e -> Error e)
  in
  let* () = orders lo in
  Ok ()

let run config client rng ~nodes ~home kind =
  let coord = 1 + home_node config ~nodes ~warehouse:home in
  Client.with_txn client ~coord (fun txn ->
      match kind with
      | New_order -> new_order config client rng ~home txn
      | Payment -> payment config client rng ~home txn
      | Order_status -> order_status config client rng ~home txn
      | Delivery -> delivery config client rng ~home txn
      | Stock_level -> stock_level config client rng ~home txn)

let txn config ~nodes client ~client_index rng =
  let home = 1 + (client_index mod config.warehouses) in
  run config client rng ~nodes ~home (pick_kind rng)

module Check = struct
  let district_orders config client ~warehouse =
    match
      Client.with_txn client (fun txn ->
          let ok = ref true in
          let rec go d =
            if d > config.districts_per_warehouse then Ok !ok
            else
              let* district =
                (get_rec client txn (k_district warehouse d) : (district, _) result)
              in
              let top = district.d_next_o_id - 1 in
              (if top >= 1 then
                 match Client.get client txn (k_order warehouse d top) with
                 | Ok (Some _) -> ()
                 | _ -> ok := false);
              (match Client.get client txn (k_order warehouse d (top + 1)) with
              | Ok (Some _) -> ok := false
              | _ -> ());
              go (d + 1)
          in
          go 1)
    with
    | Ok b -> b
    | Error _ -> false
end
