exception Target_fault of { addr : int; len : int }
exception Target_transient of { addr : int; len : int }

type cval =
  | Cint of Duel_ctype.Ctype.t * int64
  | Cfloat of Duel_ctype.Ctype.t * float

type transport = Direct | Loopback | Socket | Synthetic

type caps = { c_id : string; c_transport : transport; c_layers : string list }

type health = {
  h_ok : bool;
  h_detail : string;
  h_latency_ms : float;
  h_failures : int;
}

type var_info = { v_addr : int; v_type : Duel_ctype.Ctype.t }

type frame_info = {
  fr_index : int;
  fr_func : string;
  fr_locals : (string * var_info) list;
}

type t = {
  abi : Duel_ctype.Abi.t;
  get_bytes : addr:int -> len:int -> bytes;
  put_bytes : addr:int -> bytes -> unit;
  alloc_space : int -> int;
  call_func : string -> cval list -> cval;
  find_variable : string -> var_info option;
  tenv : Duel_ctype.Tenv.t;
  frames : unit -> frame_info list;
  caps : caps;
  health : unit -> health;
}

let basic_caps ?(transport = Synthetic) ?(layers = []) id =
  { c_id = id; c_transport = transport; c_layers = layers }

let always_healthy () =
  { h_ok = true; h_detail = "ok"; h_latency_ms = 0.; h_failures = 0 }

let add_layer layer d =
  { d with caps = { d.caps with c_layers = layer :: d.caps.c_layers } }

let has_layer d layer = List.mem layer d.caps.c_layers

let transport_name = function
  | Direct -> "direct"
  | Loopback -> "loopback"
  | Socket -> "socket"
  | Synthetic -> "synthetic"

let caps_line c =
  Printf.sprintf "%s via %s%s" c.c_id (transport_name c.c_transport)
    (match c.c_layers with
    | [] -> ""
    | ls -> " [" ^ String.concat " " ls ^ "]")

let health_line h =
  Printf.sprintf "%s (%s; %.2f ms ewma, %d consecutive failures)"
    (if h.h_ok then "ok" else "down")
    h.h_detail h.h_latency_ms h.h_failures

(* Serialize every target-touching operation under one mutex, so N
   domains (the shards of a sharded server) can share a single
   in-process target whose implementation was written for one thread.
   Granularity is per-operation: a [get_bytes] holds the lock for one
   read, not for a whole query, so shards interleave at the same
   boundary RSP clients always did.  [abi] and [tenv] are read-only
   after construction and stay unwrapped; [health] must never block on
   target work, and the underlying health thunks only read counters, so
   it is also left unlocked. *)
let serialized lock d =
  let locked f = Mutex.protect lock f in
  {
    d with
    get_bytes = (fun ~addr ~len -> locked (fun () -> d.get_bytes ~addr ~len));
    put_bytes = (fun ~addr data -> locked (fun () -> d.put_bytes ~addr data));
    alloc_space = (fun size -> locked (fun () -> d.alloc_space size));
    call_func = (fun name args -> locked (fun () -> d.call_func name args));
    find_variable = (fun name -> locked (fun () -> d.find_variable name));
    frames = (fun () -> locked d.frames);
    caps = { d.caps with c_layers = "lock" :: d.caps.c_layers };
  }

(* Readability probes registered by wrappers (the data cache): a probe
   answers [readable] without the cost of materialising bytes and raising
   through [Target_fault] when the answer is already known client-side.
   Keyed by physical identity; recent registrations sit at the head, so
   the common case (the live session's interface) is found immediately. *)
let probes : (t * (addr:int -> len:int -> bool)) list ref = ref []

let register_probe dbg probe = probes := (dbg, probe) :: !probes
let unregister_probe dbg =
  probes := List.filter (fun (d, _) -> d != dbg) !probes

let readable dbg ~addr ~len =
  len = 0
  ||
  match List.find_opt (fun (d, _) -> d == dbg) !probes with
  | Some (_, probe) -> probe ~addr ~len
  | None -> (
      match dbg.get_bytes ~addr ~len with
      | (_ : bytes) -> true
      | exception Target_fault _ -> false)

let read_scalar dbg ~addr ~size ~signed =
  Duel_mem.Codec.decode_int dbg.abi (dbg.get_bytes ~addr ~len:size) ~signed

let write_scalar dbg ~addr ~size v =
  dbg.put_bytes ~addr (Duel_mem.Codec.encode_int dbg.abi ~size v)
