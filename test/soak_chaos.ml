(* Standalone chaos soak driver — the CI `chaos-soak` job's entry point.

   Usage: soak_chaos.exe [--duration SECONDS] [SEED ...]

   For each seed it assembles the chaotic stacks (direct rig, mangled RSP
   loopback rig, cache-without-retry, and the serve socket stack with
   server-side fault injection) and replays a query corpus against a
   clean oracle until the wall-clock budget is spent.  Any divergence
   other than the typed transient error is a failure; the offending seed
   is printed so the schedule replays exactly:

     dune exec test/soak_chaos.exe -- <seed>

   Exit status: 0 all seeds converged, 1 a seed failed, 2 bad usage. *)

module Dbgi = Duel_dbgi.Dbgi
module Dcache = Duel_dbgi.Dcache
module Backend = Duel_target.Backend
module Scenarios = Duel_scenarios.Scenarios
module Session = Duel_core.Session
module Chaos = Duel_chaos.Chaos
module Mangler = Duel_chaos.Mangler
module Prng = Duel_chaos.Prng
module Server = Duel_serve.Server
module Sharded = Duel_serve.Sharded
module Client = Duel_serve.Client
module Fleet = Duel_fleet.Fleet

let nosleep _ = ()

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Same discipline as the alcotest battery: call-free mutations or pure
   reads — nothing a command-level retry could double-execute. *)
let corpus =
  [
    "x[3]";
    "x[0..9]";
    "w[0..9]";
    "head-->next->value";
    "root-->(left,right)->key";
    "hash[0]-->next->scope";
    "v[1] = 42";
    "v[1]";
    "mat[1][2]";
    "uv.i";
    "sizeof(struct symbol)";
    "strlen(s)";
    "abs(-7)";
  ]

let oracle =
  lazy
    (let s = Session.create (Backend.direct (Scenarios.all ())) in
     List.map
       (fun q ->
         let lines = Session.exec s q in
         if lines = [] || List.exists (fun l -> contains_sub l "error") lines
         then (
           Printf.eprintf "BROKEN CORPUS %S: %s\n%!" q
             (String.concat " | " lines);
           exit 2);
         (q, lines))
       corpus)

let is_transient out =
  List.exists (fun l -> contains_sub l "Transient target fault") out

exception Diverged of string

let soak_session ~label ~seed s =
  List.iter
    (fun (q, want) ->
      let rec settle tries =
        if tries > 300 then
          raise
            (Diverged
               (Printf.sprintf "%s seed %d: %S never converged" label seed q));
        let out = Session.exec s q in
        if out = want then ()
        else if is_transient out then settle (tries + 1)
        else
          raise
            (Diverged
               (Printf.sprintf "%s seed %d: %S answered %S, oracle %S" label
                  seed q
                  (String.concat "\\n" out)
                  (String.concat "\\n" want)))
      in
      settle 0)
    (Lazy.force oracle)

let seeded_hook ?(max_burst = 2) seed =
  let prng = Prng.create seed in
  let burst = Hashtbl.create 8 in
  fun point ->
    let key, rate =
      match point with
      | Server.Accept -> (0, 0.)
      | Server.Reply_drop -> (1, 0.15)
      | Server.Reply_truncate -> (2, 0.15)
      | Server.Stall_read -> (3, 0.05)
      | Server.Stall_write -> (4, 0.05)
    in
    let b = try Hashtbl.find burst key with Not_found -> 0 in
    if b < max_burst && Prng.chance prng rate then begin
      Hashtbl.replace burst key (b + 1);
      true
    end
    else begin
      Hashtbl.replace burst key 0;
      false
    end

let quick_retry =
  {
    Client.attempts = 10;
    reply_timeout = 0.25;
    base_backoff = 0.001;
    max_backoff = 0.01;
    jitter = 0.5;
  }

let soak_serve ~seed =
  let inf = Scenarios.all () in
  let config =
    { Server.default_config with Server.fault_hook = Some (seeded_hook seed) }
  in
  let srv = Server.create ~config (Fleet.of_inferior ~spec:"all" inf) in
  let server_end, client_end = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  Server.inject srv server_end;
  let cl =
    Client.of_fd
      ~pump:(fun () -> ignore (Server.step srv 0.005))
      ~retry:quick_retry client_end
  in
  List.iter
    (fun (q, want) ->
      let got = Client.eval cl q in
      if got <> want then
        raise
          (Diverged
             (Printf.sprintf "serve seed %d: %S answered %S, oracle %S" seed q
                (String.concat "\\n" got)
                (String.concat "\\n" want))))
    (Lazy.force oracle);
  let injected = (Server.stats srv).Server.chaos in
  Client.close cl;
  injected

(* The same corpus against the *sharded* server: two shard loops in
   their own domains, two clients on real blocking IO (the soak's one
   pump-free rig — genuine cross-domain serving is the point).  The
   seeded hook keeps per-point burst state in a Hashtbl, so the one
   hook both shards share runs under a mutex; the interleaving across
   domains is the kernel's, but every injection still comes from the
   seed's schedule. *)
let soak_serve_sharded ~seed =
  let locked_hook =
    let hook = seeded_hook seed in
    let m = Mutex.create () in
    fun point -> Mutex.protect m (fun () -> hook point)
  in
  let config =
    { Server.default_config with Server.fault_hook = Some locked_hook }
  in
  let srv =
    Sharded.create ~config ~shards:2
      (Fleet.of_inferior ~spec:"all" (Scenarios.all ()))
  in
  Sharded.start srv;
  let clients =
    List.init 2 (fun _ ->
        let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
        Sharded.inject srv a;
        Client.of_fd ~retry:quick_retry b)
  in
  List.iter
    (fun cl ->
      List.iter
        (fun (q, want) ->
          let got = Client.eval cl q in
          if got <> want then
            raise
              (Diverged
                 (Printf.sprintf
                    "sharded serve seed %d: %S answered %S, oracle %S" seed q
                    (String.concat "\\n" got)
                    (String.concat "\\n" want))))
        (Lazy.force oracle))
    clients;
  let injected = (Sharded.merged_view srv).Server.v_st.Server.chaos in
  List.iter Client.close clients;
  Sharded.shutdown srv;
  Sharded.join srv;
  injected

(* The fleet rig: three targets behind one server, one of them with a
   fault-injected raw layer (wired in through [Fleet.create ~wrap], the
   hook the fleet grew for exactly this).  Every corpus query fans out
   with [eval_all]; the clean siblings must match the oracle on the
   first try — a chaotic member must never leak faults, stale cache
   lines or plan entries into another target's leg — while the chaotic
   member itself must converge to the oracle through the transient
   churn. *)
let soak_serve_fleet ~seed =
  let plan = Chaos.plan ~seed Chaos.nasty in
  let wrap id dbg =
    if id = "c" then Chaos.wrap_dbgi ~sleep:nosleep plan dbg else dbg
  in
  let fleet =
    match Fleet.create ~wrap [ ("a", "all"); ("b", "all"); ("c", "all") ] with
    | Ok f -> f
    | Error m -> raise (Diverged ("fleet rig: " ^ m))
  in
  let srv = Server.create fleet in
  let server_end, client_end = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  Server.inject srv server_end;
  let cl =
    Client.of_fd
      ~pump:(fun () -> ignore (Server.step srv 0.005))
      ~retry:quick_retry client_end
  in
  List.iter
    (fun (q, want) ->
      let rec settle tries =
        if tries > 300 then
          raise
            (Diverged
               (Printf.sprintf "fleet seed %d: %S never converged on c" seed q));
        let legs = Client.eval_all cl [] q in
        let leg id =
          match List.assoc_opt id legs with
          | Some (Ok lines) -> lines
          | Some (Error m) ->
              raise
                (Diverged
                   (Printf.sprintf "fleet seed %d: %S leg %s failed: %s" seed q
                      id m))
          | None ->
              raise
                (Diverged
                   (Printf.sprintf "fleet seed %d: %S leg %s missing" seed q id))
        in
        List.iter
          (fun id ->
            let got = leg id in
            if got <> want then
              raise
                (Diverged
                   (Printf.sprintf
                      "fleet seed %d: clean leg %s of %S answered %S, oracle %S"
                      seed id q
                      (String.concat "\\n" got)
                      (String.concat "\\n" want))))
          [ "a"; "b" ];
        let c = leg "c" in
        if c = want then ()
        else if is_transient c then settle (tries + 1)
        else
          raise
            (Diverged
               (Printf.sprintf
                  "fleet seed %d: chaotic leg of %S answered %S, oracle %S"
                  seed q
                  (String.concat "\\n" c)
                  (String.concat "\\n" want)))
      in
      settle 0)
    (Lazy.force oracle);
  let st = Chaos.stats plan in
  Client.close cl;
  st.Chaos.read_faults + st.Chaos.write_faults

let soak_seed ~duration seed =
  let t0 = Unix.gettimeofday () in
  let rounds = ref 0 and injected = ref 0 in
  while Unix.gettimeofday () -. t0 < duration do
    incr rounds;
    (* vary the sub-seeds per round so a long soak explores new
       schedules while staying replayable from (seed, round) *)
    let sub = seed + (!rounds * 7919) in
    let rig =
      Chaos.rig_direct ~seed:sub ~sleep:nosleep Chaos.nasty (Scenarios.all ())
    in
    soak_session ~label:"rig-direct" ~seed:sub (Session.create rig.Chaos.dbg);
    let st = Chaos.stats rig.Chaos.plan_ in
    injected := !injected + st.Chaos.read_faults + st.Chaos.write_faults;
    let rig =
      Chaos.rig_loopback ~seed:sub ~sleep:nosleep Chaos.mild (Scenarios.all ())
    in
    soak_session ~label:"rig-loopback" ~seed:sub
      (Session.create rig.Chaos.dbg);
    let inf = Scenarios.all () in
    let plan = Chaos.plan ~seed:sub Chaos.nasty in
    soak_session ~label:"dcache-no-retry" ~seed:sub
      (Session.create
         (Dcache.wrap
            (Chaos.wrap_dbgi ~sleep:nosleep plan
               (Backend.direct ~cache:false inf))));
    (* the replica dispatcher: a fault-injected primary, a dead replica
       and a healthy one behind one spec string — reads must converge on
       the oracle through failover, never serving a stale dirty range *)
    let built =
      match
        Duel_backend.Backend.of_string
          (Printf.sprintf
             "dispatch(direct:all+flaky(seed=%d,profile=nasty-nocall),dead:all,direct:all;trip=2,probe=10ms)"
             sub)
      with
      | Ok b -> b
      | Error m -> raise (Diverged ("dispatcher rig: " ^ m))
    in
    soak_session ~label:"dispatcher" ~seed:sub
      (Session.create built.Duel_backend.Backend.b_dbg);
    List.iter
      (fun (_, rig) ->
        let st = Chaos.stats rig.Chaos.plan_ in
        injected := !injected + st.Chaos.read_faults + st.Chaos.write_faults)
      built.Duel_backend.Backend.b_rigs;
    built.Duel_backend.Backend.b_close ();
    (* the prefetching chaotic stack: block-fill read-ahead under fault
       injection.  Retried demand reads must not double-resolve
       speculated lines, a transient block read inserts nothing, and
       after every round the quiesced ledger must balance exactly. *)
    let built =
      match
        Duel_backend.Backend.of_string
          (Printf.sprintf "rsp:all+chaos(seed=%d,profile=mild-nocall)+prefetch"
             sub)
      with
      | Ok b -> b
      | Error m -> raise (Diverged ("prefetch rig: " ^ m))
    in
    let pdbg = built.Duel_backend.Backend.b_dbg in
    soak_session ~label:"prefetch-chaos" ~seed:sub (Session.create pdbg);
    Dcache.invalidate pdbg;
    (match Duel_dbgi.Prefetch.stats pdbg with
    | Some st ->
        if
          st.Duel_dbgi.Prefetch.issued
          <> st.Duel_dbgi.Prefetch.useful + st.Duel_dbgi.Prefetch.wasted
        then
          raise
            (Diverged
               (Printf.sprintf
                  "prefetch-chaos seed %d: ledger issued=%d useful=%d wasted=%d"
                  sub st.Duel_dbgi.Prefetch.issued st.Duel_dbgi.Prefetch.useful
                  st.Duel_dbgi.Prefetch.wasted))
    | None -> raise (Diverged "prefetch rig: no predictor attached"));
    List.iter
      (fun (_, rig) ->
        let st = Chaos.stats rig.Chaos.plan_ in
        injected := !injected + st.Chaos.read_faults + st.Chaos.write_faults)
      built.Duel_backend.Backend.b_rigs;
    built.Duel_backend.Backend.b_close ();
    injected := !injected + (soak_serve ~seed:sub);
    injected := !injected + (soak_serve_sharded ~seed:sub);
    injected := !injected + (soak_serve_fleet ~seed:sub)
  done;
  Printf.printf "seed %d: %d rounds, %d faults injected, all converged\n%!"
    seed !rounds !injected

let () =
  let duration = ref 10.0 in
  let seeds = ref [] in
  let rec parse = function
    | [] -> ()
    | "--duration" :: v :: rest ->
        (match float_of_string_opt v with
        | Some d when d > 0. -> duration := d
        | _ ->
            prerr_endline "soak_chaos: --duration wants a positive number";
            exit 2);
        parse rest
    | s :: rest ->
        (match int_of_string_opt s with
        | Some n -> seeds := n :: !seeds
        | None ->
            Printf.eprintf "soak_chaos: bad seed %S\n" s;
            exit 2);
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seeds =
    match List.rev !seeds with [] -> [ 1; 2; 3; 4; 5; 6; 7; 8 ] | l -> l
  in
  try List.iter (soak_seed ~duration:!duration) seeds
  with Diverged msg ->
    Printf.eprintf "FAIL %s\n%!" msg;
    exit 1
