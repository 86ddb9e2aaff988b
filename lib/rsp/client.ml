module Ctype = Duel_ctype.Ctype
module Dbgi = Duel_dbgi.Dbgi
module Inferior = Duel_target.Inferior

type debug_info = {
  di_abi : Duel_ctype.Abi.t;
  di_tenv : Duel_ctype.Tenv.t;
  di_find_variable : string -> Dbgi.var_info option;
  di_frames : unit -> Dbgi.frame_info list;
}

let debug_info_of_inferior inf =
  {
    di_abi = Inferior.abi inf;
    di_tenv = Inferior.tenv inf;
    di_find_variable = Inferior.find_variable inf;
    di_frames = (fun () -> Inferior.frames inf);
  }

let cval_to_wire = function
  | Dbgi.Cint (_, v) -> Printf.sprintf "i%Lx" v
  | Dbgi.Cfloat (_, f) -> Printf.sprintf "f%Lx" (Int64.bits_of_float f)

let cval_of_wire s =
  if String.length s < 2 then failwith "rsp: short cval reply";
  let v =
    try Int64.of_string ("0x" ^ String.sub s 1 (String.length s - 1))
    with Failure _ -> failwith ("rsp: bad cval reply " ^ s)
  in
  match s.[0] with
  | 'i' -> Dbgi.Cint (Ctype.llong, v)
  | 'f' -> Dbgi.Cfloat (Ctype.double, Int64.float_of_bits v)
  | k -> failwith (Printf.sprintf "rsp: bad cval kind %c" k)

(* [rpc] carries one payload each way, the reply in place: a memory
   read decodes its hex straight out of the reply frame. *)
let of_slices ~rpc:slice di =
  let rpc payload = Packet.to_string (slice payload) in
  let is_error r = String.length r >= 1 && r.[0] = 'E' in
  let get_bytes ~addr ~len =
    if len = 0 then Bytes.create 0
    else
      let { Packet.s; off; len = n } =
        slice (Printf.sprintf "m%x,%x" addr len)
      in
      if n >= 1 && s.[off] = 'E' then raise (Dbgi.Target_fault { addr; len })
      else
        let data = Packet.bytes_of_hex_sub s off n in
        if Bytes.length data <> len then failwith "rsp: short memory reply"
        else data
  in
  let put_bytes ~addr data =
    if Bytes.length data > 0 then begin
      let reply =
        rpc
          (Printf.sprintf "M%x,%x:%s" addr (Bytes.length data)
             (Packet.hex_of_bytes data))
      in
      if reply <> "OK" then
        raise (Dbgi.Target_fault { addr; len = Bytes.length data })
    end
  in
  let alloc_space len =
    let reply = rpc (Printf.sprintf "qDuelAlloc:%x" len) in
    if is_error reply || reply = "" then failwith "rsp: allocation failed"
    else int_of_string ("0x" ^ reply)
  in
  let call_func name args =
    let payload =
      String.concat ";" (("qDuelCall:" ^ name) :: List.map cval_to_wire args)
    in
    let reply = rpc payload in
    if String.length reply >= 2 && String.sub reply 0 2 = "E!" then
      failwith (String.sub reply 2 (String.length reply - 2))
    else if is_error reply || reply = "" then
      failwith ("rsp: call to " ^ name ^ " failed")
    else
      (* The wire format is untyped; recover the return type from the
         local prototype, as gdb does from debug info. *)
      let ret_type =
        match di.di_find_variable name with
        | Some { Dbgi.v_type = Ctype.Func ft; _ }
        | Some { Dbgi.v_type = Ctype.Ptr (Ctype.Func ft); _ } ->
            Some ft.Ctype.ret
        | _ -> None
      in
      match (cval_of_wire reply, ret_type) with
      | Dbgi.Cint (_, v), Some ((Ctype.Integer k) as t) ->
          Dbgi.Cint (t, Ctype.normalize di.di_abi k v)
      | Dbgi.Cint (_, v), Some ((Ctype.Ptr _ | Ctype.Enum _) as t) ->
          Dbgi.Cint (t, v)
      | Dbgi.Cfloat (_, f), Some ((Ctype.Floating _) as t) -> Dbgi.Cfloat (t, f)
      | cv, _ -> cv
  in
  {
    Dbgi.abi = di.di_abi;
    get_bytes;
    put_bytes;
    alloc_space;
    call_func;
    find_variable = di.di_find_variable;
    tenv = di.di_tenv;
    frames = di.di_frames;
    caps = Dbgi.basic_caps ~transport:Dbgi.Loopback "rsp";
    health = Dbgi.always_healthy;
  }

let of_rpc ~rpc di =
  of_slices di ~rpc:(fun payload ->
      let s = rpc payload in
      { Packet.s; off = 0; len = String.length s })

let connect ~exchange di =
  of_slices di ~rpc:(fun payload ->
      let reply = exchange (Packet.encode payload) in
      if reply = "-" then failwith "rsp: remote rejected packet (NAK)"
      else
        try Packet.decode_slice reply
        with Packet.Malformed msg -> failwith ("rsp: malformed reply: " ^ msg))

let loopback ?(cache = true) ?(prefetch = true) inf =
  let server = Server.create inf in
  let raw = connect ~exchange:(Server.handle server) (debug_info_of_inferior inf) in
  if cache then begin
    (* The "remote" is in-process, so we can snoop its memory generation
       like the direct backend does; a genuinely remote transport would
       instead invalidate on stop events. *)
    let dbg =
      Duel_dbgi.Dcache.wrap
        ~config:
          {
            Duel_dbgi.Dcache.default_config with
            stale_policy =
              Duel_dbgi.Dcache.Probe
                (fun () ->
                  Duel_mem.Memory.generation (Inferior.mem inf));
          }
        raw
    in
    if prefetch then ignore (Duel_dbgi.Prefetch.attach dbg);
    dbg
  end
  else raw
