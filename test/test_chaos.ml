(* The chaos layer: deterministic fault injection across every boundary.

   The contract under test, everywhere: a chaotic stack either converges
   to the oracle answer or surfaces a typed, retriable error — never a
   hang, never a crash, never a silently wrong value.  Every failure
   message carries the seed, so a failing schedule replays exactly. *)

module Dbgi = Duel_dbgi.Dbgi
module Dcache = Duel_dbgi.Dcache
module Backend = Duel_target.Backend
module Scenarios = Duel_scenarios.Scenarios
module Session = Duel_core.Session
module Chaos = Duel_chaos.Chaos
module Mangler = Duel_chaos.Mangler
module Prng = Duel_chaos.Prng
module Packet = Duel_rsp.Packet
module Server = Duel_serve.Server
module Client = Duel_serve.Client

let case = Support.case
let nosleep _ = ()

(* --- the PRNG ------------------------------------------------------------ *)

let prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 1000 do
    Alcotest.(check int64) "same seed, same stream" (Prng.bits64 a)
      (Prng.bits64 b)
  done;
  let c = Prng.create 43 in
  let differs = ref false in
  for _ = 1 to 64 do
    if Prng.bits64 a <> Prng.bits64 c then differs := true
  done;
  Alcotest.(check bool) "different seed, different stream" true !differs;
  let d = Prng.create 42 in
  ignore (Prng.bits64 d);
  let e = Prng.copy d in
  Alcotest.(check int64) "copy continues the stream" (Prng.bits64 d)
    (Prng.bits64 e)

let prng_bounds () =
  let p = Prng.create 7 in
  for _ = 1 to 10_000 do
    let n = 1 + Prng.int p 100 in
    let v = Prng.int p n in
    if v < 0 || v >= n then Alcotest.failf "int %d out of [0,%d)" v n;
    let f = Prng.float p 3.5 in
    if f < 0. || f >= 3.5 then Alcotest.failf "float %f out of [0,3.5)" f
  done;
  Alcotest.(check bool) "chance 0 never fires" false (Prng.chance p 0.);
  Alcotest.(check bool) "chance 1 always fires" true (Prng.chance p 1.)

let backoff_bounded () =
  let pol = Chaos.default_retry in
  let pr = Prng.create 5 in
  for attempt = 1 to 50 do
    let d = Chaos.backoff pol pr ~attempt in
    if d < 0. || d > pol.Chaos.max_backoff then
      Alcotest.failf "backoff %f for attempt %d escapes [0, max]" d attempt
  done

(* --- the byte mangler ---------------------------------------------------- *)

let feed_all d s =
  Packet.Deframer.feed d (Bytes.of_string s) 0 (String.length s)

let mangler_identity =
  QCheck2.Test.make ~name:"rate-0 mangler is the identity" ~count:200
    QCheck2.Gen.(pair (int_bound 0xffff) (string_size (int_range 0 300)))
    (fun (seed, s) ->
      let m = Mangler.create ~seed Mangler.off in
      String.concat "" (Mangler.mangle m s) = s)

let mangler_deterministic =
  QCheck2.Test.make ~name:"mangler replays exactly from its seed" ~count:100
    QCheck2.Gen.(
      pair (int_bound 0xffff)
        (list_size (int_range 1 8) (string_size (int_range 0 120))))
    (fun (seed, chunks) ->
      let m1 = Mangler.create ~seed (Mangler.wire ~rate:0.05)
      and m2 = Mangler.create ~seed (Mangler.wire ~rate:0.05) in
      List.for_all (fun s -> Mangler.mangle m1 s = Mangler.mangle m2 s) chunks)

(* The load-bearing property: whatever the mangler does to a framed
   packet, the deframer never reports a [Frame] whose payload differs
   from the original — damage is always detected (Bad) or the frame is
   delivered intact.  Payloads stay under the size where enough guarded
   single-byte steps could accumulate to a multiple of 256 (that needs a
   frame past ~2 KiB at guard 64).  For the lossless profiles every
   delivery also produces exactly one event: frames are never silently
   swallowed. *)
let mangler_detectable name profile lossless =
  QCheck2.Test.make
    ~name:(Printf.sprintf "%s damage is always detectable" name)
    ~count:60
    QCheck2.Gen.(pair (int_bound 0xffff) (string_size (int_range 0 256)))
    (fun (seed, payload) ->
      let framed = Packet.encode payload in
      let m = Mangler.create ~seed profile in
      let d = Packet.Deframer.create () in
      let reps = 30 in
      let events =
        List.concat
          (List.init reps (fun _ ->
               List.concat_map (feed_all d) (Mangler.mangle m framed)))
      in
      let faithful =
        List.for_all
          (function Packet.Deframer.Frame p -> p = payload | _ -> true)
          events
      in
      faithful && ((not lossless) || List.length events = reps))

let mangler_props =
  [
    mangler_identity;
    mangler_deterministic;
    mangler_detectable "corrupting" (Mangler.corrupting ~rate:0.03) true;
    mangler_detectable "checksum-only" (Mangler.checksum_only ~rate:0.4) true;
    mangler_detectable "hostile wire" (Mangler.wire ~rate:0.02) false;
  ]

let mangled_exchange_converges () =
  (* The retransmit discipline over the in-process stub: under 1%
     corruption every request converges to the clean-wire answer. *)
  let inf = Scenarios.all () in
  let server = Duel_rsp.Server.create inf in
  let clean = Duel_rsp.Server.handle server in
  let m = Mangler.create ~seed:21 (Mangler.corrupting ~rate:0.01) in
  let mangled = Chaos.mangled_exchange m clean in
  let req = Packet.encode "qDuelFrames" in
  let want = Packet.decode (clean req) in
  for i = 1 to 300 do
    let got = Packet.decode (mangled req) in
    if got <> want then
      Alcotest.failf "exchange %d: %S instead of %S (seed 21)" i got want
  done;
  let st = Mangler.stats m in
  if st.Mangler.corrupted = 0 then
    Alcotest.fail "the mangler never corrupted anything — rate miswired?"

(* --- the DBGI fault proxy and the retry layer ---------------------------- *)

let addr_of dbg name =
  match dbg.Dbgi.find_variable name with
  | Some { Dbgi.v_addr; _ } -> v_addr
  | None -> Alcotest.failf "global %s missing" name

let off_plan_is_passthrough () =
  let inf = Scenarios.all () in
  let raw = Backend.direct ~cache:false inf in
  let plan = Chaos.plan ~seed:9 Chaos.off in
  let dbg =
    Chaos.wrap_dbgi ~sleep:(fun _ -> Alcotest.fail "off plan slept") plan raw
  in
  let x = addr_of raw "x" in
  for len = 0 to 64 do
    Alcotest.(check string)
      (Printf.sprintf "%d-byte read identical" len)
      (Bytes.to_string (raw.Dbgi.get_bytes ~addr:x ~len))
      (Bytes.to_string (dbg.Dbgi.get_bytes ~addr:x ~len))
  done;
  dbg.Dbgi.put_bytes ~addr:x (Bytes.of_string "\x2a\x00\x00\x00");
  Alcotest.(check int64) "write landed" 42L
    (Dbgi.read_scalar raw ~addr:x ~size:4 ~signed:true);
  let st = Chaos.stats plan in
  Alcotest.(check int) "no faults injected" 0
    (st.Chaos.read_faults + st.Chaos.write_faults + st.Chaos.torn_writes
   + st.Chaos.call_faults + st.Chaos.delays)

let resilient_absorbs_nasty () =
  List.iter
    (fun seed ->
      let inf = Scenarios.all () in
      let raw = Backend.direct ~cache:false inf in
      let plan = Chaos.plan ~seed Chaos.nasty in
      let rs = Chaos.retry_stats_zero () in
      let dbg =
        Chaos.resilient ~stats:rs ~sleep:nosleep ~seed
          (Chaos.wrap_dbgi ~sleep:nosleep plan raw)
      in
      let x = addr_of raw "x" in
      for i = 0 to 199 do
        let v = Dbgi.read_scalar dbg ~addr:(x + 12) ~size:4 ~signed:true in
        if v <> 7L then Alcotest.failf "seed %d read %d: x[3] = %Ld" seed i v
      done;
      for i = 0 to 99 do
        Dbgi.write_scalar dbg ~addr:x ~size:4 (Int64.of_int i);
        let v = Dbgi.read_scalar dbg ~addr:x ~size:4 ~signed:true in
        if v <> Int64.of_int i then
          Alcotest.failf "seed %d write %d read back %Ld" seed i v
      done;
      let st = Chaos.stats plan in
      if st.Chaos.read_faults = 0 || st.Chaos.write_faults = 0 then
        Alcotest.failf "seed %d: nasty injected nothing" seed;
      if rs.Chaos.r_retries = 0 then
        Alcotest.failf "seed %d: nothing was retried" seed;
      Alcotest.(check int)
        (Printf.sprintf "seed %d: nothing gave up" seed)
        0 rs.Chaos.r_gave_up)
    [ 1; 2; 3; 0xdead ]

(* --- session-level soak: oracle answer or typed error -------------------- *)

(* Every query is either call-free (so a command-level re-execution after
   a typed transient is idempotent) or a pure read that may call — never
   a mutation combined with a call, which a re-execution could double. *)
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

(* One oracle transcript, computed once on a clean direct stack.  The
   scenario builders are deterministic, so every chaotic arm's fresh
   debuggee starts bit-identical to the oracle's. *)
let oracle =
  lazy
    (let s = Session.create (Backend.direct (Scenarios.all ())) in
     List.map
       (fun q ->
         let lines = Session.exec s q in
         if
           lines = []
           || List.exists (fun l -> Support.contains_sub l "error") lines
         then
           Alcotest.failf "broken corpus query %S: %s" q
             (String.concat " | " lines);
         (q, lines))
       corpus)

let is_transient out =
  List.exists (fun l -> Support.contains_sub l "Transient target fault") out

let soak_one ~label ~seed dbg =
  let s = Session.create dbg in
  List.iter
    (fun (q, want) ->
      let rec settle tries =
        if tries > 300 then
          Alcotest.failf "%s: %S never converged (replay with seed %d)" label
            q seed;
        let out = Session.exec s q in
        if out = want then ()
        else if is_transient out then settle (tries + 1)
        else
          Alcotest.failf
            "%s: %S answered %S, oracle says %S (replay with seed %d)" label q
            (String.concat "\\n" out)
            (String.concat "\\n" want)
            seed
      in
      settle 0)
    (Lazy.force oracle)

let soak_rig_direct () =
  List.iter
    (fun seed ->
      let rig =
        Chaos.rig_direct ~seed ~sleep:nosleep Chaos.nasty (Scenarios.all ())
      in
      soak_one ~label:(Printf.sprintf "rig-direct seed %d" seed) ~seed
        rig.Chaos.dbg;
      let st = Chaos.stats rig.Chaos.plan_ in
      if st.Chaos.read_faults + st.Chaos.write_faults = 0 then
        Alcotest.failf "seed %d: the nasty plan injected nothing" seed)
    [ 101; 102; 103; 104 ]

let soak_rig_loopback () =
  List.iter
    (fun seed ->
      let rig =
        Chaos.rig_loopback ~seed ~sleep:nosleep Chaos.mild (Scenarios.all ())
      in
      soak_one ~label:(Printf.sprintf "rig-loopback seed %d" seed) ~seed
        rig.Chaos.dbg;
      match rig.Chaos.wire with
      | None -> Alcotest.fail "loopback rig lost its wire stats"
      | Some w ->
          if w.Mangler.bytes = 0 then
            Alcotest.failf "seed %d: no bytes crossed the mangled wire" seed)
    [ 201; 202; 203 ]

(* The cache without the retry layer: a transient mid-command surfaces as
   the typed session error and marks the touched lines stale, so the
   rerun converges — degradation, not corruption. *)
let soak_dcache_degrades () =
  let injected = ref 0 in
  List.iter
    (fun seed ->
      let inf = Scenarios.all () in
      let plan = Chaos.plan ~seed Chaos.nasty in
      let dbg =
        Dcache.wrap
          (Chaos.wrap_dbgi ~sleep:nosleep plan (Backend.direct ~cache:false inf))
      in
      soak_one ~label:(Printf.sprintf "dcache-no-retry seed %d" seed) ~seed dbg;
      let st = Chaos.stats plan in
      injected :=
        !injected + st.Chaos.read_faults + st.Chaos.write_faults
        + st.Chaos.torn_writes)
    [ 301; 302; 303; 304 ];
  if !injected = 0 then
    Alcotest.fail "four nasty seeds injected nothing — plan miswired?"

(* --- the serve layer under server-side fault injection ------------------- *)

(* A seeded hook with the same burst discipline as the DBGI plans: at
   most [max_burst] consecutive injections per fault point, so the
   client's bounded retries always win and the test can assert
   convergence rather than hope for it. *)
let seeded_hook ?(max_burst = 2) seed =
  let prng = Prng.create seed in
  let burst = Hashtbl.create 8 in
  fun point ->
    let key, rate =
      match point with
      | Server.Accept -> (0, 0.) (* injected socketpairs: keep the conn *)
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

let chaotic_socket_stack ?(retry = Support.quick_retry) hook inf =
  let config = { Server.default_config with Server.fault_hook = Some hook } in
  let srv = Support.serve ~config inf in
  let server_end, client_end = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  Server.inject srv server_end;
  let cl =
    Client.of_fd
      ~pump:(fun () -> ignore (Server.step srv 0.005))
      ~retry client_end
  in
  (srv, cl)

let serve_eval_converges_under_chaos () =
  let hit = ref 0 in
  List.iter
    (fun seed ->
      let inf = Scenarios.all () in
      let srv, cl = chaotic_socket_stack (seeded_hook seed) inf in
      List.iter
        (fun (q, want) ->
          let got = Client.eval cl q in
          if got <> want then
            Alcotest.failf "serve seed %d: %S answered %S, oracle %S" seed q
              (String.concat "\\n" got)
              (String.concat "\\n" want))
        (Lazy.force oracle);
      hit := !hit + (Server.stats srv).Server.chaos;
      Client.close cl)
    [ 401; 402; 403 ];
  if !hit = 0 then
    Alcotest.fail "three seeds of server chaos never fired — hook miswired?"

(* The at-most-once guarantee, pinned down: drop exactly the first
   reply; the client's resend must be answered by replay, not by
   re-executing a mutating eval. *)
let serve_eval_at_most_once () =
  let inf = Scenarios.all () in
  let dropped = ref false in
  let hook = function
    | Server.Reply_drop when not !dropped ->
        dropped := true;
        true
    | _ -> false
  in
  let srv, cl = chaotic_socket_stack hook inf in
  let oracle_s = Session.create (Backend.direct (Scenarios.all ())) in
  let want_assign = Session.exec oracle_s "v[2] = v[2] + 1" in
  let want_read = Session.exec oracle_s "v[2]" in
  Alcotest.(check (list string))
    "mutating eval ran exactly once" want_assign
    (Client.eval cl "v[2] = v[2] + 1");
  Alcotest.(check (list string))
    "the increment landed exactly once" want_read (Client.eval cl "v[2]");
  let st = Server.stats srv in
  Alcotest.(check int) "one injected fault" 1 st.Server.chaos;
  Alcotest.(check int) "two evaluations executed" 2 st.Server.evals;
  Alcotest.(check bool)
    "the resend was answered by replay" true (st.Server.eval_dups >= 1);
  Alcotest.(check bool)
    "the client resent after a timeout" true
    ((Client.counters cl).Client.resends >= 1);
  Client.close cl

let serve_eval_deadline_no_hang () =
  (* Every reply swallowed: the eval must fail typed, quickly — never
     hang waiting for a reply that is not coming. *)
  let inf = Scenarios.all () in
  let hook = function Server.Reply_drop -> true | _ -> false in
  let retry =
    { Support.quick_retry with Client.attempts = 3; reply_timeout = 0.05 }
  in
  let _srv, cl = chaotic_socket_stack ~retry hook inf in
  let t0 = Unix.gettimeofday () in
  (match Client.eval cl "x[3]" with
  | lines ->
      Alcotest.failf "eval answered %S through a dead reply path"
        (String.concat "\\n" lines)
  | exception Client.Error f ->
      Alcotest.(check bool)
        "deadline is a transport-class failure" true
        (Client.is_transport f));
  let dt = Unix.gettimeofday () -. t0 in
  if dt > 5. then Alcotest.failf "gave up only after %.1f s" dt;
  Client.close cl

let suite =
  [
    case "prng is deterministic and copyable" prng_deterministic;
    case "prng draws stay in bounds" prng_bounds;
    case "backoff stays within [0, max_backoff]" backoff_bounded;
  ]
  @ List.map QCheck_alcotest.to_alcotest mangler_props
  @ [
      case "mangled exchange converges at 1% corruption"
        mangled_exchange_converges;
      case "a fault-rate-0 plan is bit-identical pass-through"
        off_plan_is_passthrough;
      case "retry layer absorbs nasty transients" resilient_absorbs_nasty;
      case "soak: direct rig reaches the oracle on every seed"
        soak_rig_direct;
      case "soak: mangled RSP loopback rig reaches the oracle"
        soak_rig_loopback;
      case "soak: cache without retry degrades to typed errors"
        soak_dcache_degrades;
      case "serve evals converge under server fault injection"
        serve_eval_converges_under_chaos;
      case "a dropped eval reply is replayed, not re-executed"
        serve_eval_at_most_once;
      case "a dead reply path fails typed, never hangs"
        serve_eval_deadline_no_hang;
    ]
