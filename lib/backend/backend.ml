module Dbgi = Duel_dbgi.Dbgi
module Dcache = Duel_dbgi.Dcache
module Prefetch = Duel_dbgi.Prefetch
module Dispatcher = Duel_dbgi.Dispatcher
module Inferior = Duel_target.Inferior
module Scenarios = Duel_scenarios.Scenarios
module Chaos = Duel_chaos.Chaos
module Mangler = Duel_chaos.Mangler
module Proxy = Duel_chaos.Proxy

type base =
  | Direct of string
  | Rsp of string
  | Serve_loop of string
  | Dead of string
  | Tcp of string * int * string
  | Unix_sock of string * string

type deco =
  | Cache
  | Prefetch
  | Chaos of { seed : int; profile : string }
  | Flaky of { seed : int; profile : string }
  | Mangle of { seed : int; profile : string; rate : float }
  | Stall of { seed : int; ms : float; rate : float }

type dpolicy = { d_trip : int; d_probe_ms : float; d_alpha : float }

let default_dpolicy =
  {
    d_trip = 3;
    d_probe_ms = 50.;
    d_alpha = 0.2;
  }

type spec = Atom of base * deco list | Dispatch of spec list * dpolicy

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

(* ------------------------------------------------------------------ *)
(* Printing (canonical: every policy field spelled out, floats via %g) *)

let fg = Printf.sprintf "%g"

let print_base = function
  | Direct s -> "direct:" ^ s
  | Rsp s -> "rsp:" ^ s
  | Serve_loop s -> "serve:" ^ s
  | Dead s -> "dead:" ^ s
  | Tcp (h, p, s) -> Printf.sprintf "tcp://%s:%d#%s" h p s
  | Unix_sock (p, s) -> Printf.sprintf "unix:%s#%s" p s

let print_deco = function
  | Cache -> "cache"
  | Prefetch -> "prefetch"
  | Chaos { seed; profile } ->
      Printf.sprintf "chaos(seed=%d,profile=%s)" seed profile
  | Flaky { seed; profile } ->
      Printf.sprintf "flaky(seed=%d,profile=%s)" seed profile
  | Mangle { seed; profile; rate } ->
      Printf.sprintf "mangle(seed=%d,profile=%s,rate=%s)" seed profile (fg rate)
  | Stall { seed; ms; rate } ->
      Printf.sprintf "stall(seed=%d,ms=%s,rate=%s)" seed (fg ms) (fg rate)

let print_policy p =
  Printf.sprintf "trip=%d,probe=%sms,alpha=%s" p.d_trip (fg p.d_probe_ms)
    (fg p.d_alpha)

let rec print = function
  | Atom (b, ds) -> String.concat "+" (print_base b :: List.map print_deco ds)
  | Dispatch (children, pol) ->
      Printf.sprintf "dispatch(%s;%s)"
        (String.concat "," (List.map print children))
        (print_policy pol)

(* ------------------------------------------------------------------ *)
(* Parsing *)

let split_top sep s =
  let buf = Buffer.create 16 in
  let out = ref [] in
  let depth = ref 0 in
  String.iter
    (fun c ->
      if c = '(' then (incr depth; Buffer.add_char buf c)
      else if c = ')' then (
        decr depth;
        if !depth < 0 then bad "unbalanced ')' in %S" s;
        Buffer.add_char buf c)
      else if c = sep && !depth = 0 then (
        out := Buffer.contents buf :: !out;
        Buffer.clear buf)
      else Buffer.add_char buf c)
    s;
  if !depth <> 0 then bad "unbalanced '(' in %S" s;
  List.rev (Buffer.contents buf :: !out)

(* "name(...)" where the ')' matching the first '(' is the last char *)
let whole_call s =
  let n = String.length s in
  if n = 0 || s.[n - 1] <> ')' || not (String.contains s '(') then false
  else begin
    let depth = ref 0 and closed_at = ref (-1) in
    String.iteri
      (fun i c ->
        if c = '(' then incr depth
        else if c = ')' then begin
          decr depth;
          if !depth = 0 && !closed_at < 0 then closed_at := i
        end)
      s;
    !depth = 0 && !closed_at = n - 1
  end

let strip_suffix ~suf s =
  let n = String.length s and k = String.length suf in
  if n >= k && String.sub s (n - k) k = suf then Some (String.sub s 0 (n - k))
  else None

let int_of what s =
  match int_of_string_opt (String.trim s) with
  | Some n -> n
  | None -> bad "%s: expected an integer, got %S" what s

let float_of what s =
  match float_of_string_opt (String.trim s) with
  | Some f -> f
  | None -> bad "%s: expected a number, got %S" what s

let ms_of what s =
  let s = String.trim s in
  let s = match strip_suffix ~suf:"ms" s with Some b -> b | None -> s in
  float_of what s

let kvs what s =
  split_top ',' s
  |> List.filter_map (fun item ->
         let item = String.trim item in
         if item = "" then None
         else
           match String.index_opt item '=' with
           | None -> bad "%s: expected key=value, got %S" what item
           | Some i ->
               Some
                 ( String.trim (String.sub item 0 i),
                   String.trim
                     (String.sub item (i + 1) (String.length item - i - 1)) ))

let check_keys what allowed kv =
  List.iter
    (fun (k, _) ->
      if not (List.mem k allowed) then
        bad "%s: unknown key %S (want %s)" what k (String.concat ", " allowed))
    kv

let parse_deco s =
  let s = String.trim s in
  let args_of name =
    let pre = name ^ "(" in
    if String.starts_with ~prefix:pre s && whole_call s then
      Some
        (kvs name
           (String.sub s (String.length pre)
              (String.length s - String.length pre - 1)))
    else None
  in
  let get k d kv = match List.assoc_opt k kv with Some v -> v | None -> d in
  if s = "cache" then Cache
  else if s = "prefetch" then Prefetch
  else
    match args_of "chaos" with
    | Some kv ->
        check_keys "chaos" [ "seed"; "profile" ] kv;
        Chaos
          {
            seed = int_of "chaos seed" (get "seed" "0" kv);
            profile = get "profile" "mild" kv;
          }
    | None -> (
        match args_of "flaky" with
        | Some kv ->
            check_keys "flaky" [ "seed"; "profile" ] kv;
            Flaky
              {
                seed = int_of "flaky seed" (get "seed" "0" kv);
                profile = get "profile" "mild" kv;
              }
        | None -> (
            match args_of "mangle" with
            | Some kv ->
                check_keys "mangle" [ "seed"; "profile"; "rate" ] kv;
                let profile = get "profile" "corrupt" kv in
                let default_rate =
                  match profile with "checksum" -> 0.3 | _ -> 0.01
                in
                Mangle
                  {
                    seed = int_of "mangle seed" (get "seed" "0" kv);
                    profile;
                    rate =
                      float_of "mangle rate" (get "rate" (fg default_rate) kv);
                  }
            | None -> (
                match args_of "stall" with
                | Some kv ->
                    check_keys "stall" [ "seed"; "ms"; "rate" ] kv;
                    Stall
                      {
                        seed = int_of "stall seed" (get "seed" "0" kv);
                        ms = ms_of "stall ms" (get "ms" "20" kv);
                        rate = float_of "stall rate" (get "rate" "0.05" kv);
                      }
                | None ->
                    bad
                      "unknown decorator %S (want cache, chaos(...), \
                       flaky(...), mangle(...), stall(...))"
                      s)))

let parse_base s =
  let s = String.trim s in
  let frag rest =
    match String.index_opt rest '#' with
    | None -> (rest, "all")
    | Some i ->
        let scen = String.sub rest (i + 1) (String.length rest - i - 1) in
        (String.sub rest 0 i, if scen = "" then "all" else scen)
  in
  if String.starts_with ~prefix:"tcp://" s then begin
    let rest = String.sub s 6 (String.length s - 6) in
    let addr, scen = frag rest in
    match String.rindex_opt addr ':' with
    | None -> bad "tcp spec %S: expected tcp://host:port" s
    | Some i ->
        let host = String.sub addr 0 i in
        let port =
          int_of "tcp port" (String.sub addr (i + 1) (String.length addr - i - 1))
        in
        Tcp (host, port, scen)
  end
  else if String.starts_with ~prefix:"unix:" s then begin
    let rest = String.sub s 5 (String.length s - 5) in
    let path, scen = frag rest in
    if path = "" then bad "unix spec %S: empty socket path" s;
    Unix_sock (path, scen)
  end
  else
    let scheme, scen =
      match String.index_opt s ':' with
      | None -> (s, "all")
      | Some i ->
          let scen = String.sub s (i + 1) (String.length s - i - 1) in
          (String.sub s 0 i, if scen = "" then "all" else scen)
    in
    match scheme with
    | "direct" -> Direct scen
    | "rsp" -> Rsp scen
    | "serve" -> Serve_loop scen
    | "dead" -> Dead scen
    | _ ->
        bad "unknown backend scheme in %S (want direct:, rsp:, serve:, dead:, \
             tcp://, unix:, dispatch(...))"
          s

let parse_policy s =
  let kv = kvs "dispatch policy" s in
  check_keys "dispatch policy" [ "trip"; "probe"; "alpha" ] kv;
  List.fold_left
    (fun p (k, v) ->
      match k with
      | "trip" -> { p with d_trip = int_of "trip" v }
      | "probe" -> { p with d_probe_ms = ms_of "probe" v }
      | "alpha" -> { p with d_alpha = float_of "alpha" v }
      | _ -> assert false)
    default_dpolicy kv

let rec parse_spec s =
  let s = String.trim s in
  if String.starts_with ~prefix:"dispatch(" s && whole_call s then begin
    let inner = String.sub s 9 (String.length s - 10) in
    let specs_part, pol =
      match split_top ';' inner with
      | [ sp ] -> (sp, default_dpolicy)
      | [ sp; pol ] -> (sp, parse_policy pol)
      | _ -> bad "dispatch spec %S: at most one ';policy' section" s
    in
    let children =
      split_top ',' specs_part
      |> List.map String.trim
      |> List.filter (fun x -> x <> "")
      |> List.map parse_spec
    in
    if children = [] then bad "dispatch spec %S needs at least one replica" s;
    Dispatch (children, pol)
  end
  else
    match
      split_top '+' s |> List.map String.trim |> List.filter (fun x -> x <> "")
    with
    | [] -> bad "empty backend spec"
    | b :: ds -> Atom (parse_base b, List.map parse_deco ds)

let parse s = match parse_spec s with v -> Ok v | exception Bad m -> Error m

(* ------------------------------------------------------------------ *)
(* Building *)

(* The scenario grammar lives with the fleet (the other consumer of
   named debuggees); specs and fleet slots accept the same names. *)
let inferior_of_scenario name =
  match Duel_fleet.Fleet.scenario_of_name name with
  | Ok inf -> inf
  | Error m -> bad "%s" m

let scenario_of_name = Duel_fleet.Fleet.scenario_of_name

let transport_fault = function
  | Dbgi.Target_transient _ -> true
  | Unix.Unix_error _ -> true
  | Duel_serve.Client.Error f -> Duel_serve.Client.is_transport f
  | _ -> false

let chaos_profile_of_name name =
  let base, nocall =
    match strip_suffix ~suf:"-nocall" name with
    | Some b -> (b, true)
    | None -> (name, false)
  in
  match Chaos.profile_of_string base with
  | Ok p -> if nocall then { p with Chaos.call_transient = 0. } else p
  | Error m -> bad "chaos profile: %s" m

let mangler_profile_of_name name rate =
  match name with
  | "off" -> Mangler.off
  | "checksum" -> Mangler.checksum_only ~rate
  | "corrupt" -> Mangler.corrupting ~rate
  | "wire" -> Mangler.wire ~rate
  | _ -> bad "unknown mangle profile %S (want off, checksum, corrupt, wire)" name

(* The in-process serve loop is pumped cooperatively; waiting the network
   client's default 2 s per reply would make injected faults glacial. *)
let loop_retry =
  {
    Duel_serve.Client.attempts = 10;
    reply_timeout = 0.25;
    base_backoff = 0.001;
    max_backoff = 0.01;
    jitter = 0.5;
  }

type built = {
  b_dbg : Dbgi.t;
  b_inf : Inferior.t;
  b_spec : spec;
  b_rigs : (string * Chaos.rig) list;
  b_dispatchers : (string * Dispatcher.t) list;
  b_packets : int ref;
  b_close : unit -> unit;
}

type ctx = {
  make_inf : string -> Inferior.t;
  pump : (unit -> unit) option;
  serve_config : Duel_serve.Server.config option;
  retry : Duel_serve.Client.retry_policy option;
  mutable rigs : (string * Chaos.rig) list;
  mutable dispatchers : (string * Dispatcher.t) list;
  packets : int ref;
  mutable closers : (unit -> unit) list;
}

let build_atom ctx base decos =
  let label = print (Atom (base, decos)) in
  let has_cache = List.mem Cache decos in
  let has_prefetch = List.mem Prefetch decos in
  let mangle =
    List.find_map
      (function
        | Mangle { seed; profile; rate } -> Some (seed, profile, rate)
        | _ -> None)
      decos
  in
  (match (mangle, base) with
  | Some _, (Direct _ | Dead _ | Tcp _ | Unix_sock _) ->
      bad "mangle is only valid on rsp:/serve: bases (%s)" label
  | _ -> ());
  let net_connect addr scen =
    let inf = ctx.make_inf scen in
    let cl = Duel_serve.Client.connect ?pump:ctx.pump ?retry:ctx.retry addr in
    ctx.closers <-
      (fun () -> try Duel_serve.Client.close cl with _ -> ()) :: ctx.closers;
    let dbg =
      Duel_serve.Client.dbgi
        ~cache:(has_cache || has_prefetch)
        ~prefetch:has_prefetch cl
        (Duel_rsp.Client.debug_info_of_inferior inf)
    in
    (inf, dbg, true, None)
  in
  (* (inferior, base dbgi, cache-already-applied, wire mangler stats) *)
  let inf, dbg0, net_cache_applied, wire_stats =
    match base with
    | Direct scen ->
        let inf = ctx.make_inf scen in
        (inf, Duel_target.Backend.direct ~cache:false inf, false, None)
    | Dead scen ->
        let inf = ctx.make_inf scen in
        (inf, Duel_fleet.Fleet.dead_of inf, false, None)
    | Rsp scen ->
        let inf = ctx.make_inf scen in
        let srv = Duel_rsp.Server.create inf in
        let handle, wire =
          match mangle with
          | None -> (Duel_rsp.Server.handle srv, None)
          | Some (seed, profile, rate) ->
              let m = Mangler.create ~seed (mangler_profile_of_name profile rate) in
              ( Chaos.mangled_exchange m (Duel_rsp.Server.handle srv),
                Some (Mangler.stats m) )
        in
        let packets = ctx.packets in
        let exchange frame = incr packets; handle frame in
        ( inf,
          Duel_rsp.Client.connect ~exchange
            (Duel_rsp.Client.debug_info_of_inferior inf),
          false,
          wire )
    | Serve_loop scen ->
        let inf = ctx.make_inf scen in
        let srv =
          Duel_serve.Server.create ?config:ctx.serve_config
            (Duel_fleet.Fleet.of_inferior ~spec:scen inf)
        in
        let retry = Option.value ctx.retry ~default:loop_retry in
        let cl, wire =
          match mangle with
          | None ->
              let client_end, server_end =
                Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
              in
              Duel_serve.Server.inject srv server_end;
              ( Duel_serve.Client.of_fd
                  ~pump:(fun () -> ignore (Duel_serve.Server.step srv 0.01))
                  ~retry client_end,
                None )
          | Some (seed, profile, rate) ->
              let prof = mangler_profile_of_name profile rate in
              let up = Mangler.create ~seed prof in
              let down = Mangler.create ~seed:(seed + 1) prof in
              let proxy, client_end, server_end = Proxy.between ~up ~down () in
              Duel_serve.Server.inject srv server_end;
              ctx.closers <-
                (fun () -> try Proxy.close proxy with _ -> ()) :: ctx.closers;
              let pump () =
                ignore (Duel_serve.Server.step srv 0.005);
                ignore (Proxy.step proxy 0.005)
              in
              ( Duel_serve.Client.of_fd ~pump ~retry client_end,
                Some (Mangler.stats up) )
        in
        ctx.closers <-
          (fun () -> try Duel_serve.Client.close cl with _ -> ())
          :: ctx.closers;
        let dbg =
          Duel_serve.Client.dbgi
        ~cache:(has_cache || has_prefetch)
        ~prefetch:has_prefetch cl
            (Duel_rsp.Client.debug_info_of_inferior inf)
        in
        (inf, dbg, true, wire)
    | Tcp (host, port, scen) ->
        net_connect (host ^ ":" ^ string_of_int port) scen
    | Unix_sock (path, scen) -> net_connect ("unix:" ^ path) scen
  in
  let dbg =
    List.fold_left
      (fun dbg deco ->
        match deco with
        | Cache ->
            (* flush buffered writes while the transport underneath is
               still alive, then drop the cache from the registries, so
               a closed stack is not kept alive *)
            let cached =
              if net_cache_applied then dbg
              else Duel_target.Backend.cached inf dbg
            in
            ctx.closers <-
              (fun () -> try Dcache.release cached with _ -> ()) :: ctx.closers;
            cached
        | Prefetch ->
            (* read-ahead fills a cache, so +prefetch implies one; for
               network bases both were already applied inside the client
               above *)
            let cached =
              if Dcache.is_cached dbg || net_cache_applied then dbg
              else Duel_target.Backend.cached inf dbg
            in
            (* same close-time release as +cache *)
            ctx.closers <-
              (fun () -> try Dcache.release cached with _ -> ()) :: ctx.closers;
            ignore (Prefetch.attach cached);
            cached
        | Mangle _ -> dbg (* applied at the base *)
        | Stall { seed; ms; rate } ->
            let prof =
              { Chaos.off with Chaos.delay = rate; delay_s = ms /. 1000. }
            in
            Chaos.wrap_dbgi (Chaos.plan ~seed prof) dbg
        | Flaky { seed; profile } ->
            let plan = Chaos.plan ~seed (chaos_profile_of_name profile) in
            let dbg = Chaos.wrap_dbgi plan dbg in
            ctx.rigs <-
              ( label,
                {
                  Chaos.dbg;
                  label;
                  plan_ = plan;
                  retry = Chaos.retry_stats_zero ();
                  wire = wire_stats;
                } )
              :: ctx.rigs;
            dbg
        | Chaos { seed; profile } ->
            let plan = Chaos.plan ~seed (chaos_profile_of_name profile) in
            let dbg = Chaos.wrap_dbgi plan dbg in
            let rstats = Chaos.retry_stats_zero () in
            let dbg = Chaos.resilient ~stats:rstats ~seed dbg in
            ctx.rigs <-
              ( label,
                {
                  Chaos.dbg;
                  label;
                  plan_ = plan;
                  retry = rstats;
                  wire = wire_stats;
                } )
              :: ctx.rigs;
            dbg)
      dbg0 decos
  in
  (inf, dbg)

let rec build_spec ctx = function
  | Atom (b, ds) -> build_atom ctx b ds
  | Dispatch (children, pol) as spec ->
      let built_children =
        List.map (fun c -> (print c, build_spec ctx c)) children
      in
      let labels = List.map fst built_children in
      let reps = List.map (fun (_, (_, dbg)) -> dbg) built_children in
      let primary_inf =
        match built_children with
        | (_, (inf, _)) :: _ -> inf
        | [] -> bad "dispatch spec needs at least one replica"
      in
      let policy =
        {
          Dispatcher.default_policy with
          Dispatcher.trip_after = pol.d_trip;
          half_open_after = pol.d_probe_ms /. 1000.;
          ewma_alpha = pol.d_alpha;
          is_transport_fault = transport_fault;
        }
      in
      let d = Dispatcher.create ~policy ~labels reps in
      ctx.dispatchers <- (print spec, d) :: ctx.dispatchers;
      (primary_inf, Dispatcher.dbgi d)

let build ?make_inf ?pump ?serve_config ?retry spec =
  let make_inf =
    match make_inf with Some f -> f | None -> inferior_of_scenario
  in
  let ctx =
    {
      make_inf;
      pump;
      serve_config;
      retry;
      rigs = [];
      dispatchers = [];
      packets = ref 0;
      closers = [];
    }
  in
  let close_all () =
    List.iter (fun f -> try f () with _ -> ()) ctx.closers
  in
  match build_spec ctx spec with
  | inf, dbg ->
      let closed = ref false in
      let b_close () = if not !closed then (closed := true; close_all ()) in
      Ok
        {
          b_dbg = dbg;
          b_inf = inf;
          b_spec = spec;
          b_rigs = List.rev ctx.rigs;
          b_dispatchers = List.rev ctx.dispatchers;
          b_packets = ctx.packets;
          b_close;
        }
  | exception Bad m ->
      close_all ();
      Error m
  | exception Duel_serve.Client.Error f ->
      close_all ();
      Error
        (Printf.sprintf "building %s: %s" (print spec)
           (Duel_serve.Client.failure_message f))

let of_string ?make_inf ?pump ?serve_config ?retry s =
  match parse s with
  | Error m -> Error m
  | Ok spec -> build ?make_inf ?pump ?serve_config ?retry spec

let of_spec s =
  match of_string s with
  | Ok b -> b.b_dbg
  | Error m -> invalid_arg (Printf.sprintf "Backend.of_spec %S: %s" s m)

let describe b =
  let caps = b.b_dbg.Dbgi.caps in
  let h = b.b_dbg.Dbgi.health () in
  let out = ref [] in
  let add l = out := l :: !out in
  add ("spec:   " ^ print b.b_spec);
  add ("caps:   " ^ Dbgi.caps_line caps);
  add ("health: " ^ Dbgi.health_line h);
  List.iter
    (fun (label, d) ->
      add ("dispatcher " ^ label ^ ":");
      List.iter (fun l -> add ("  " ^ l)) (Dispatcher.report d))
    b.b_dispatchers;
  List.iter
    (fun (label, rig) ->
      add ("chaos rig " ^ label ^ ":");
      List.iter (fun l -> add ("  " ^ l)) (Chaos.rig_report rig))
    b.b_rigs;
  if !(b.b_packets) > 0 then
    add (Printf.sprintf "rsp packets exchanged: %d" !(b.b_packets));
  List.rev !out
