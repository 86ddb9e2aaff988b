module Inferior = Duel_target.Inferior
module Memory = Duel_mem.Memory
module Ctype = Duel_ctype.Ctype
module Dbgi = Duel_dbgi.Dbgi

(* Per-request resource bounds.  The stub fronts one shared target; a
   greedy (or broken) client must get an error reply, not exhaust the
   simulated heap or make the stub build an unbounded reply.  [E02] is
   the resource-limit error, distinct from [E01] (target fault). *)
type limits = { max_read : int; max_write : int; max_alloc : int }

let default_limits =
  { max_read = 4096; max_write = 4096; max_alloc = 1 lsl 20 }

type t = { inf : Inferior.t; limits : limits }

let create ?(limits = default_limits) inf = { inf; limits }

let parse_int s =
  try Int64.to_int (Int64.of_string ("0x" ^ s))
  with Failure _ -> raise (Packet.Malformed ("bad hex number " ^ s))

let split_once ch s =
  match String.index_opt s ch with
  | None -> None
  | Some i ->
      Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let cval_to_wire = function
  | Dbgi.Cint (_, v) -> Printf.sprintf "i%Lx" v
  | Dbgi.Cfloat (_, f) -> Printf.sprintf "f%Lx" (Int64.bits_of_float f)

let cval_of_wire s =
  if String.length s < 2 then raise (Packet.Malformed "short cval");
  let v =
    try Int64.of_string ("0x" ^ String.sub s 1 (String.length s - 1))
    with Failure _ -> raise (Packet.Malformed ("bad cval " ^ s))
  in
  match s.[0] with
  | 'i' -> Dbgi.Cint (Ctype.llong, v)
  | 'f' -> Dbgi.Cfloat (Ctype.double, Int64.float_of_bits v)
  | _ -> raise (Packet.Malformed ("bad cval kind " ^ s))

let rec handle_payload srv payload =
  let mem = Inferior.mem srv.inf in
  let read_cmd spec =
    match split_once ',' spec with
    | None -> raise (Packet.Malformed "m: expected addr,len")
    | Some (a, l) -> (parse_int a, parse_int l)
  in
  if payload = "" then ""
  else
    match payload.[0] with
    | 'm' -> (
        let addr, len = read_cmd (String.sub payload 1 (String.length payload - 1)) in
        if len < 0 || len > srv.limits.max_read then "E02"
        else
          match Memory.read mem ~addr ~len with
          | data -> Packet.hex_of_bytes data
          | exception Memory.Fault _ -> "E01")
    | 'M' -> (
        let rest = String.sub payload 1 (String.length payload - 1) in
        match split_once ':' rest with
        | None -> raise (Packet.Malformed "M: expected addr,len:hex")
        | Some (spec, hex) -> (
            let addr, len = read_cmd spec in
            if len < 0 || len > srv.limits.max_write then "E02"
            else
              let data = Packet.bytes_of_hex hex in
              if Bytes.length data <> len then "E02"
              else
                match Memory.write mem ~addr data with
                | () -> "OK"
                | exception Memory.Fault _ -> "E01"))
    | 'q' -> query srv payload
    | '?' -> "S05"
    | 'H' -> "OK"
    | _ -> ""

and query srv payload =
  let with_prefix prefix f =
    let n = String.length prefix in
    if String.length payload >= n && String.sub payload 0 n = prefix then
      Some (f (String.sub payload n (String.length payload - n)))
    else None
  in
  let attempts =
    [
      (fun () ->
        with_prefix "qDuelAlloc:" (fun rest ->
            let len = parse_int rest in
            if len <= 0 || len > srv.limits.max_alloc then "E02"
            else
              match Inferior.alloc_data srv.inf ~size:len ~align:16 with
              | addr -> Printf.sprintf "%x" addr
              | exception (Invalid_argument _ | Failure _) ->
                  (* heap exhaustion: a resource limit, not a protocol
                     error — the connection must survive it *)
                  "E02"));
      (fun () ->
        with_prefix "qDuelCall:" (fun rest ->
            match String.split_on_char ';' rest with
            | [] -> "E03"
            | name :: args -> (
                let args =
                  List.filter_map
                    (fun a -> if a = "" then None else Some (cval_of_wire a))
                    args
                in
                match Inferior.call srv.inf name args with
                | result -> cval_to_wire result
                | exception Failure msg -> "E!" ^ msg)));
      (fun () ->
        with_prefix "qDuelFrames" (fun _ ->
            Printf.sprintf "%x" (List.length (Inferior.frames srv.inf))));
      (fun () ->
        with_prefix "qSupported" (fun _ -> "PacketSize=4000"));
    ]
  in
  let rec first = function
    | [] -> ""
    | f :: rest -> ( match f () with Some r -> r | None -> first rest)
  in
  first attempts

let reply_frame srv payload =
  match handle_payload srv payload with
  | reply -> Packet.encode reply
  | exception Packet.Malformed _ -> Packet.encode "E00"

let handle srv raw =
  match Packet.decode raw with
  | exception Packet.Malformed _ -> "-"
  | payload -> reply_frame srv payload
