(* The serving layer, over real sockets: deframing under adversarial
   byte boundaries, the event loop with many concurrent clients, the
   robustness machinery (limits, reaper, backpressure, NAK resync,
   graceful shutdown), server-side evaluation, and the probe-less
   client cache's coherence over the wire. *)

module Packet = Duel_rsp.Packet
module Deframer = Packet.Deframer
module Server = Duel_serve.Server
module Client = Duel_serve.Client
module Histogram = Duel_serve.Histogram
module Session = Duel_core.Session
module Scenarios = Duel_scenarios.Scenarios
module Dcache = Duel_dbgi.Dcache
module Dbgi = Duel_dbgi.Dbgi

let case = Support.case

(* --- the incremental deframer -------------------------------------------- *)

let feed_string d s =
  let b = Bytes.of_string s in
  Deframer.feed d b 0 (Bytes.length b)

(* Events from feeding [s] one byte at a time — the worst fragmentation
   a stream can produce. *)
let feed_bytewise d s =
  List.concat_map
    (fun i -> feed_string d (String.make 1 s.[i]))
    (List.init (String.length s) (fun i -> i))

let ev =
  Alcotest.testable
    (fun fmt e ->
      Format.pp_print_string fmt
        (match e with
        | Deframer.Frame p -> "Frame " ^ p
        | Deframer.Bad m -> "Bad " ^ m
        | Deframer.Ack -> "Ack"
        | Deframer.Nak -> "Nak"))
    ( = )

let deframer_split () =
  let d = Deframer.create () in
  let framed = Packet.encode "qDuelStats" ^ "+" ^ Packet.encode "m10,4" in
  Alcotest.(check (list ev))
    "byte-at-a-time stream"
    [ Deframer.Frame "qDuelStats"; Deframer.Ack; Deframer.Frame "m10,4" ]
    (feed_bytewise d framed);
  Alcotest.(check bool) "nothing pending" false (Deframer.pending d)

let deframer_coalesced () =
  let d = Deframer.create () in
  let framed = String.concat "" (List.map Packet.encode [ "a"; "b"; "c" ]) in
  Alcotest.(check (list ev))
    "three frames in one read"
    [ Deframer.Frame "a"; Deframer.Frame "b"; Deframer.Frame "c" ]
    (feed_string d framed)

let deframer_junk_resync () =
  let d = Deframer.create () in
  let evs = feed_string d ("noise" ^ Packet.encode "OK") in
  Alcotest.(check (list ev)) "junk skipped" [ Deframer.Frame "OK" ] evs;
  Alcotest.(check int) "junk counted" 5 (Deframer.junk d)

let deframer_bad_checksum () =
  let d = Deframer.create () in
  match feed_string d ("$abc#00" ^ Packet.encode "ok") with
  | [ Deframer.Bad _; Deframer.Frame "ok" ] -> ()
  | _ -> Alcotest.fail "expected Bad then resynced Frame"

let deframer_split_escape () =
  (* an escaped payload cut in the middle of the escape pair and of the
     checksum must still decode *)
  let payload = "a}b#c$d" in
  let framed = Packet.encode payload in
  let d = Deframer.create () in
  let all =
    List.concat_map (feed_string d)
      [
        String.sub framed 0 3;
        String.sub framed 3 (String.length framed - 4);
        String.sub framed (String.length framed - 1) 1;
      ]
  in
  Alcotest.(check (list ev))
    "escapes across reads"
    [ Deframer.Frame payload ]
    all

let deframer_unterminated () =
  let d = Deframer.create () in
  (* a '$' restarting mid-body abandons the damaged frame *)
  match feed_string d ("$half" ^ Packet.encode "whole") with
  | [ Deframer.Bad _; Deframer.Frame "whole" ] -> ()
  | _ -> Alcotest.fail "expected the half frame dropped, the whole one kept"

(* --- the histogram ------------------------------------------------------- *)

let histogram_percentiles () =
  let h = Histogram.create () in
  for _ = 1 to 90 do
    Histogram.add h 10e-6
  done;
  for _ = 1 to 10 do
    Histogram.add h 10e-3
  done;
  Alcotest.(check int) "count" 100 (Histogram.count h);
  let p50 = Histogram.percentile h 0.50 in
  Alcotest.(check bool)
    "p50 bounds the fast mode" true
    (p50 >= 10e-6 && p50 < 50e-6);
  let p99 = Histogram.percentile h 0.99 in
  Alcotest.(check bool)
    "p99 bounds the slow tail" true
    (p99 >= 10e-3 && p99 < 50e-3);
  Alcotest.(check (float 0.0))
    "empty percentile" 0.0
    (Histogram.percentile (Histogram.create ()) 0.99)

(* --- RSP stub resource limits -------------------------------------------- *)

let rsp_limits () =
  let inf = Scenarios.all () in
  let limits =
    { Duel_rsp.Server.max_read = 8; max_write = 8; max_alloc = 64 }
  in
  let srv = Duel_rsp.Server.create ~limits inf in
  let rpc p = Duel_rsp.Server.handle_payload srv p in
  let x =
    match (Duel_rsp.Client.loopback ~cache:false inf).Dbgi.find_variable "x" with
    | Some { Dbgi.v_addr; _ } -> v_addr
    | None -> Alcotest.fail "x missing"
  in
  Alcotest.(check string)
    "oversized read rejected" "E02"
    (rpc (Printf.sprintf "m%x,9" x));
  Alcotest.(check bool)
    "bounded read succeeds" true
    (rpc (Printf.sprintf "m%x,8" x) <> "E02");
  Alcotest.(check string)
    "oversized write rejected" "E02"
    (rpc (Printf.sprintf "M%x,9:%s" x (String.make 18 '0')));
  Alcotest.(check string)
    "bounded write succeeds" "OK"
    (rpc (Printf.sprintf "M%x,8:%s" x (String.make 16 '0')));
  Alcotest.(check string) "oversized alloc rejected" "E02" (rpc "qDuelAlloc:41");
  Alcotest.(check string) "zero alloc rejected" "E02" (rpc "qDuelAlloc:0");
  Alcotest.(check bool)
    "bounded alloc succeeds" true
    (rpc "qDuelAlloc:40" <> "E02")

(* --- server-side evaluation ---------------------------------------------- *)

let eval_matches_direct () =
  let direct = Session.create (Duel_target.Backend.direct (Scenarios.all ())) in
  let expected = Session.exec direct "x[1..4,8,12..50] >? 5 <? 10" in
  let _srv, cl = Support.socket_stack (Scenarios.all ()) in
  Alcotest.(check (list string))
    "remote eval equals a direct session" expected
    (Client.eval cl "x[1..4,8,12..50] >? 5 <? 10");
  Client.close cl

let eval_chunking () =
  (* 1-line chunks: every result line is its own D frame; reassembly
     must be invisible *)
  let config = { Server.default_config with eval_chunk = 1 } in
  let srv, cl = Support.socket_stack ~config (Scenarios.all ()) in
  Alcotest.(check (list string))
    "many tiny chunks reassemble"
    [ "x[1] = 0"; "x[2] = 0"; "x[3] = 7"; "x[4] = 0" ]
    (Client.eval cl "x[1..4]");
  Alcotest.(check int)
    "every value counted" 4
    (Server.stats srv).Server.eval_values;
  Client.close cl

let eval_captures_stdout () =
  let _srv, cl = Support.socket_stack (Scenarios.all ()) in
  let lines = Client.eval cl "printf(\"%d %d, \", (3,4), 5..7)" in
  Alcotest.(check bool)
    "target stdout crossed the wire" true
    (List.exists (fun l -> Support.contains_sub l "3 5, 3 6, 3 7") lines);
  Client.close cl

let eval_session_persists () =
  let _srv, cl = Support.socket_stack (Scenarios.all ()) in
  ignore (Client.eval cl "t := 41");
  Alcotest.(check (list string))
    "alias survives to the next eval on the same connection"
    [ "t+1 = 42" ]
    (Client.eval cl "t+1");
  Client.close cl

(* --- the event loop under many clients ----------------------------------- *)

let concurrent_clients () =
  let n = 10 in
  let inf = Scenarios.all () in
  let srv = Support.serve inf in
  let pump () = ignore (Server.step srv 0.01) in
  let clients =
    List.init n (fun _ ->
        let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
        Server.inject srv a;
        Client.of_fd ~pump b)
  in
  Alcotest.(check int) "all connections live in one loop" n (Server.active srv);
  (* pipelined: every client's eval is in flight before any reply is
     collected *)
  List.iteri
    (fun i cl -> Client.eval_send cl (Printf.sprintf "x[%d] = %d" (i + 50) i))
    clients;
  for _ = 1 to 5 do
    pump ()
  done;
  List.iteri
    (fun i cl ->
      Alcotest.(check (list string))
        (Printf.sprintf "client %d reply" i)
        [ Printf.sprintf "x[%d] = %d" (i + 50) i ]
        (Client.eval_recv cl))
    clients;
  let st = Server.stats srv in
  Alcotest.(check bool)
    (Printf.sprintf "peak_active %d >= %d" st.Server.peak_active n)
    true
    (st.Server.peak_active >= n);
  Alcotest.(check int) "every eval served" n st.Server.evals;
  (* the writes all landed on the one shared target *)
  let direct = Session.create (Duel_target.Backend.direct inf) in
  Alcotest.(check (list string))
    "shared target saw the writes"
    [ "x[52] = 2"; "x[57] = 7" ]
    (Session.exec direct "x[52,57]");
  List.iter Client.close clients;
  for _ = 1 to 3 do
    pump ()
  done;
  Alcotest.(check int) "EOFs reaped every connection" 0 (Server.active srv)

let tcp_listener () =
  let srv = Support.serve (Scenarios.all ()) in
  let port = Server.listen_tcp srv ~host:"127.0.0.1" ~port:0 in
  Alcotest.(check bool) "ephemeral port assigned" true (port > 0);
  let pump () = ignore (Server.step srv 0.01) in
  let cl = Client.connect ~pump (Printf.sprintf "127.0.0.1:%d" port) in
  pump ();
  Alcotest.(check int) "accepted inside the loop" 1 (Server.active srv);
  Alcotest.(check (list string))
    "query over TCP" [ "x[3] = 7" ]
    (Client.eval cl "x[3]");
  Client.close cl;
  for _ = 1 to 3 do
    pump ()
  done;
  Alcotest.(check int) "EOF closed it" 0 (Server.active srv);
  Server.shutdown srv;
  while Server.step srv 0.0 do
    ()
  done

(* --- lifecycle robustness ------------------------------------------------ *)

let idle_reaper () =
  let config = { Server.default_config with idle_timeout = 0.05 } in
  let srv, cl = Support.socket_stack ~config (Scenarios.all ()) in
  Alcotest.(check int) "connected" 1 (Server.active srv);
  Unix.sleepf 0.08;
  ignore (Server.step srv 0.0);
  Alcotest.(check int) "idle connection reaped" 0 (Server.active srv);
  Alcotest.(check int) "timeout counted" 1 (Server.stats srv).Server.timeouts;
  Client.close cl

let request_budget () =
  let config = { Server.default_config with max_requests = 2 } in
  let srv, cl = Support.socket_stack ~config (Scenarios.all ()) in
  Alcotest.(check string) "request 1 honoured" "3" (Client.rpc cl "qDuelFrames");
  Alcotest.(check string) "request 2 honoured" "3" (Client.rpc cl "qDuelFrames");
  Alcotest.(check string)
    "request 3 over budget" "E02"
    (Client.rpc cl "qDuelFrames");
  ignore (Server.step srv 0.01);
  Alcotest.(check int) "budget violator closed" 0 (Server.active srv);
  Alcotest.(check int) "rejection counted" 1 (Server.stats srv).Server.limited;
  Client.close cl

let malformed_nak_resync () =
  let srv = Support.serve (Scenarios.all ()) in
  let server_end, client_end = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  Server.inject srv server_end;
  (* raw bytes: garbage, a frame with a corrupt checksum, then a valid
     request — the server must NAK the damage and still answer *)
  let raw = "!!@@" ^ "$qDuelStats#00" ^ Packet.encode "qDuelFrames" in
  ignore (Unix.write_substring client_end raw 0 (String.length raw));
  for _ = 1 to 3 do
    ignore (Server.step srv 0.01)
  done;
  let buf = Bytes.create 4096 in
  let n = Unix.read client_end buf 0 4096 in
  let d = Deframer.create () in
  (match Deframer.feed d buf 0 n with
  | [ Deframer.Nak; Deframer.Ack; Deframer.Frame "3" ] -> ()
  | evs ->
      Alcotest.failf "expected NAK, ACK, frame-count reply; got %d events"
        (List.length evs));
  Alcotest.(check int) "fault counted" 1 (Server.stats srv).Server.faults;
  Alcotest.(check int)
    "valid frame still served" 1
    (Server.stats srv).Server.packets;
  Unix.close client_end

let client_nak_retransmit () =
  let srv, cl = Support.socket_stack (Scenarios.all ()) in
  let first = Client.rpc cl "qDuelFrames" in
  Alcotest.(check string) "frames over the wire" "3" first;
  (* a bare NAK from the client must bring the same reply back *)
  let again = Packet.decode (Client.exchange cl "-") in
  Alcotest.(check string) "retransmission equals the original" first again;
  Alcotest.(check int) "nak counted" 1 (Server.stats srv).Server.naks;
  Client.close cl

let backpressure () =
  (* A tiny output budget and a small kernel buffer: a huge eval reply
     jams the queue, and the server must stop *reading* the connection
     until the client drains it. *)
  let config = { Server.default_config with max_output = 1024 } in
  let srv =
    Support.serve ~config ~spec:"big:4000" (Scenarios.big_array 4000)
  in
  let server_end, client_end = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  Unix.setsockopt_int server_end SO_SNDBUF 4096;
  Server.inject srv server_end;
  let pump () = ignore (Server.step srv 0.01) in
  let cl = Client.of_fd ~pump client_end in
  Client.eval_send cl "big[..4000]";
  (* let the server take the request and jam its output queue *)
  for _ = 1 to 5 do
    pump ()
  done;
  Alcotest.(check int)
    "eval request was read" 1
    (Server.stats srv).Server.packets;
  (* a second request arrives while the queue is over budget... *)
  let req = Packet.encode "qDuelFrames" in
  ignore (Unix.write_substring client_end req 0 (String.length req));
  for _ = 1 to 5 do
    pump ()
  done;
  Alcotest.(check int)
    "backpressure: jammed connection is not read" 1
    (Server.stats srv).Server.packets;
  (* ...the client drains the big reply, the queue empties, and only
     then is the second request served *)
  Alcotest.(check int)
    "full reply crossed anyway" 4000
    (List.length (Client.eval_recv cl));
  let reply = Client.recv_reply cl in
  Alcotest.(check bool)
    "queued request served after drain" true
    (int_of_string_opt ("0x" ^ reply) <> None);
  Alcotest.(check int)
    "second packet counted once unjammed" 2
    (Server.stats srv).Server.packets;
  Client.close cl

let graceful_shutdown () =
  let srv, cl = Support.socket_stack (Scenarios.all ()) in
  Alcotest.(check (list string))
    "server alive" [ "x[3] = 7" ]
    (Client.eval cl "x[3]");
  Client.shutdown_server cl;
  (* the OK reply arrived (the rpc returned), so draining worked; now
     the loop must wind down to completion *)
  let rec wind n = if n > 0 && Server.step srv 0.01 then wind (n - 1) in
  wind 100;
  Alcotest.(check int) "all connections closed" 0 (Server.active srv);
  Alcotest.(check bool) "loop reports completion" false (Server.step srv 0.0);
  (match Client.rpc cl "qDuelFrames" with
  | _ -> Alcotest.fail "server must be gone"
  | exception Client.Error f ->
      Alcotest.(check bool)
        "death is a transport-class failure" true
        (Client.is_transport f));
  Client.close cl

(* --- observability ------------------------------------------------------- *)

let stats_report () =
  let srv, cl = Support.socket_stack (Scenarios.all ()) in
  ignore (Client.eval cl "x[1..8] >? 3");
  ignore (Client.rpc cl "qDuelFrames");
  let st = Client.server_stats cl in
  let get k = match List.assoc_opt k st with Some v -> v | None -> -1 in
  Alcotest.(check bool) "packets counted" true (get "packets" >= 2);
  Alcotest.(check int) "evals counted" 1 (get "evals");
  Alcotest.(check bool) "latency samples recorded" true (get "count" >= 2);
  Alcotest.(check bool) "p99 present" true (get "p99us" >= 0);
  Alcotest.(check bool)
    "human rendering has the counters" true
    (List.exists
       (fun l -> Support.contains_sub l "evals: 1 queries")
       (Server.stats_to_lines srv));
  Client.close cl

let stats_have_chaos_counters () =
  let _srv, cl = Support.socket_stack (Scenarios.all ()) in
  let st = Client.server_stats cl in
  Alcotest.(check (option int)) "chaos key" (Some 0) (List.assoc_opt "chaos" st);
  Alcotest.(check (option int))
    "eval_dups key" (Some 0)
    (List.assoc_opt "eval_dups" st);
  Client.close cl

(* --- deframer resync on a frame cut inside its checksum ------------------ *)

(* A frame whose tail was lost, with the next (valid) frame's '$'
   arriving in the same read chunk: consuming the '$' as a checksum
   digit would silently discard the valid frame. *)
let deframer_cut_at_checksum () =
  let good = Packet.encode "m10,4" in
  (* cut after '#': the '$' lands where the first checksum digit goes *)
  let d = Deframer.create () in
  let cut1 = String.sub good 0 (String.length good - 2) in
  Alcotest.(check (list ev))
    "cut before both digits"
    [ Deframer.Bad "frame cut at checksum"; Deframer.Frame "qDuelStats" ]
    (feed_string d (cut1 ^ Packet.encode "qDuelStats"));
  (* cut after one checksum digit: the '$' lands on the second *)
  let d = Deframer.create () in
  let cut2 = String.sub good 0 (String.length good - 1) in
  Alcotest.(check (list ev))
    "cut between the digits"
    [ Deframer.Bad "frame cut at checksum"; Deframer.Frame "qDuelStats" ]
    (feed_string d (cut2 ^ Packet.encode "qDuelStats"));
  (* same, delivered a byte at a time *)
  let d = Deframer.create () in
  Alcotest.(check (list ev))
    "bytewise delivery agrees"
    [ Deframer.Bad "frame cut at checksum"; Deframer.Frame "qDuelStats" ]
    (feed_bytewise d (cut2 ^ Packet.encode "qDuelStats"))

(* --- the receive deadline ------------------------------------------------ *)

let tight_retry = { Client.default_retry with attempts = 2; reply_timeout = 0.1 }

(* The server ACKs the eval request and dies before the first data
   frame: the old client blocked in [select] forever; now the wait is
   deadlined and the EOF is a typed failure. *)
let client_survives_server_death_mid_reply () =
  let server_end, client_end = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  let cl = Client.of_fd ~retry:tight_retry client_end in
  Client.eval_send cl "x[3]";
  let buf = Bytes.create 1024 in
  ignore (Unix.read server_end buf 0 1024);
  ignore (Unix.write_substring server_end "+" 0 1);
  Unix.close server_end;
  let t0 = Unix.gettimeofday () in
  (match Client.eval_recv cl with
  | lines ->
      Alcotest.failf "a dead server answered %S" (String.concat "\\n" lines)
  | exception Client.Error (Client.Closed _) -> ());
  if Unix.gettimeofday () -. t0 > 5. then Alcotest.fail "hung on a dead server";
  Client.close cl

(* ACKed but never answered, connection held open: the reply timeout and
   the bounded resend budget must turn silence into a typed failure. *)
let client_bounds_silent_server () =
  let server_end, client_end = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  let cl = Client.of_fd ~retry:tight_retry client_end in
  Client.eval_send cl "x[3]";
  let buf = Bytes.create 1024 in
  ignore (Unix.read server_end buf 0 1024);
  ignore (Unix.write_substring server_end "+" 0 1);
  let t0 = Unix.gettimeofday () in
  (match Client.eval_recv cl with
  | lines ->
      Alcotest.failf "a silent server answered %S" (String.concat "\\n" lines)
  | exception Client.Error (Client.Timeout _) -> ());
  let dt = Unix.gettimeofday () -. t0 in
  if dt > 5. then Alcotest.failf "gave up only after %.1f s" dt;
  Alcotest.(check bool)
    "the reply wait timed out at least once" true
    ((Client.counters cl).Client.timeouts >= 1);
  Unix.close server_end;
  Client.close cl

(* A qDuelEvalSeq whose budget is already spent must be refused typed,
   without evaluating. *)
let eval_seq_budget_expired () =
  let srv, cl = Support.socket_stack (Scenarios.all ()) in
  Alcotest.(check string)
    "deadline refusal" "F7;deadline"
    (Client.rpc cl "qDuelEvalSeq:7,0;x[3]");
  Alcotest.(check int) "nothing evaluated" 0 (Server.stats srv).Server.evals;
  Client.close cl

(* --- client-cache coherence over the wire -------------------------------- *)

let eval_invalidates_client_cache () =
  let inf = Scenarios.all () in
  let _srv, cl = Support.socket_stack inf in
  let dbg =
    Client.dbgi ~cache:true cl (Duel_rsp.Client.debug_info_of_inferior inf)
  in
  Alcotest.(check bool) "wrapped in a cache" true (Dcache.is_cached dbg);
  Alcotest.(check bool)
    "probe-less policy" true
    (Dcache.coherence_probe dbg = None);
  let x =
    match dbg.Dbgi.find_variable "x" with
    | Some { Dbgi.v_addr; _ } -> v_addr
    | None -> Alcotest.fail "x missing"
  in
  Alcotest.(check int64) "cold read" 7L
    (Dbgi.read_scalar dbg ~addr:(x + 12) ~size:4 ~signed:true);
  (* a server-side eval writes the same slot behind the cache's back *)
  ignore (Client.eval cl "x[3] = 99");
  Alcotest.(check int64)
    "eval marked the cache stale: fresh value visible" 99L
    (Dbgi.read_scalar dbg ~addr:(x + 12) ~size:4 ~signed:true);
  Client.close cl

(* --- the shared query-plan cache ----------------------------------------- *)

(* One server, [n] injected client connections, one pump. *)
let plan_stack ?config n =
  let inf = Scenarios.all () in
  let srv = Support.serve ?config inf in
  let pump () = ignore (Server.step srv 0.01) in
  let clients =
    List.init n (fun _ ->
        let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
        Server.inject srv a;
        Client.of_fd ~pump b)
  in
  (srv, clients)

(* The headline behaviour: the same query from two different connections
   compiles once and hits once, and both get the same (correct) lines. *)
let plan_shared_across_connections () =
  let direct = Session.create (Duel_target.Backend.direct (Scenarios.all ())) in
  let expected = Session.exec direct "hash[0]-->next->scope" in
  let srv, clients = plan_stack 2 in
  let c1, c2 = match clients with [ a; b ] -> (a, b) | _ -> assert false in
  Alcotest.(check (list string))
    "first connection (miss + compile)" expected
    (Client.eval c1 "hash[0]-->next->scope");
  Alcotest.(check (list string))
    "second connection (hit)" expected
    (Client.eval c2 "hash[0]-->next->scope");
  let st = Server.stats srv in
  Alcotest.(check int) "one compile" 1 st.Server.plan_compiles;
  Alcotest.(check int) "one miss" 1 st.Server.plan_misses;
  Alcotest.(check int) "one hit" 1 st.Server.plan_hits;
  (* the counters are on the wire too *)
  let wire = Client.server_stats c1 in
  Alcotest.(check (option int)) "plan_hits on the wire" (Some 1)
    (List.assoc_opt "plan_hits" wire);
  Alcotest.(check (option int)) "plan_compiles on the wire" (Some 1)
    (List.assoc_opt "plan_compiles" wire);
  List.iter Client.close clients

(* Keying is by token stream: spellings differing only in whitespace
   share one plan. *)
let plan_whitespace_normalized () =
  let srv, clients = plan_stack 1 in
  let cl = List.hd clients in
  let l1 = Client.eval cl "#/( 1 ..    40 )" in
  let l2 = Client.eval cl "  #/(1..40)" in
  Alcotest.(check (list string)) "same lines" [ "#/(1..40) = 40" ] l1;
  Alcotest.(check (list string)) "spellings agree" l1 l2;
  let st = Server.stats srv in
  Alcotest.(check int) "one compile for both spellings" 1
    st.Server.plan_compiles;
  Alcotest.(check int) "second spelling hit" 1 st.Server.plan_hits;
  List.iter Client.close clients

(* A store through any path bumps the target's write-generation and
   retires every plan compiled under the old one. *)
let plan_invalidated_by_store () =
  let srv, clients = plan_stack 1 in
  let cl = List.hd clients in
  ignore (Client.eval cl "x[10..12]");
  ignore (Client.eval cl "x[10..12]");
  let st = Server.stats srv in
  Alcotest.(check int) "warm: one compile" 1 st.Server.plan_compiles;
  Alcotest.(check int) "warm: one hit" 1 st.Server.plan_hits;
  (* the store itself evals through the cache too; what matters is that
     the generation moved under the pure query's plan *)
  Alcotest.(check (list string)) "store lands" [ "x[11] = 5" ]
    (Client.eval cl "x[11] = 5; x[11]");
  Alcotest.(check (list string)) "query re-reads the target"
    [ "x[10] = 0"; "x[11] = 5"; "x[12] = 0" ]
    (Client.eval cl "x[10..12]");
  let st = Server.stats srv in
  Alcotest.(check bool) "stale plan retired" true (st.Server.plan_inval >= 1);
  Alcotest.(check bool) "recompiled under the new generation" true
    (st.Server.plan_compiles >= 2);
  List.iter Client.close clients

(* Errors follow the same contract through a cached plan as through the
   interpreter path, and non-lexing input falls through cleanly. *)
let plan_error_parity () =
  let direct = Session.create (Duel_target.Backend.direct (Scenarios.all ())) in
  let srv, clients = plan_stack 1 in
  let cl = List.hd clients in
  let q = "nosuchname + 1" in
  let expected = Session.exec direct q in
  Alcotest.(check (list string)) "miss path error" expected (Client.eval cl q);
  Alcotest.(check (list string)) "hit path error" expected (Client.eval cl q);
  Alcotest.(check int) "runtime errors don't stop caching" 1
    (Server.stats srv).Server.plan_hits;
  let lex_err = Client.eval cl "x $ 2" in
  Alcotest.(check bool) "lex failure falls through to the session" true
    (List.exists (fun l -> Support.contains_sub l "syntax error") lex_err);
  List.iter Client.close clients

let plan_lru_eviction () =
  let config = { Server.default_config with plan_cache = 2 } in
  let srv, clients = plan_stack ~config 1 in
  let cl = List.hd clients in
  ignore (Client.eval cl "1+1");
  ignore (Client.eval cl "2+2");
  ignore (Client.eval cl "3+3");
  let st = Server.stats srv in
  Alcotest.(check int) "capacity overflow evicts LRU" 1 st.Server.plan_evict;
  (* the survivor (most recently used) still hits *)
  ignore (Client.eval cl "3+3");
  Alcotest.(check int) "survivor hits" 1 (Server.stats srv).Server.plan_hits;
  List.iter Client.close clients

let plan_disabled () =
  let config = { Server.default_config with plan_cache = 0 } in
  let srv, clients = plan_stack ~config 1 in
  let cl = List.hd clients in
  Alcotest.(check (list string)) "evals still work" [ "#/(1..9) = 9" ]
    (Client.eval cl "#/(1..9)");
  ignore (Client.eval cl "#/(1..9)");
  let st = Server.stats srv in
  Alcotest.(check int) "no compiles" 0 st.Server.plan_compiles;
  Alcotest.(check int) "no hits" 0 st.Server.plan_hits;
  Alcotest.(check int) "no misses" 0 st.Server.plan_misses;
  List.iter Client.close clients

(* Per-connection alias state stays per-connection even when both
   connections run the same cached plan (clone isolation). *)
let plan_alias_isolation () =
  let _srv, clients = plan_stack 2 in
  let c1, c2 = match clients with [ a; b ] -> (a, b) | _ -> assert false in
  ignore (Client.eval c1 "pv := 41");
  ignore (Client.eval c2 "pv := 1000");
  Alcotest.(check (list string)) "c1's alias" [ "pv+1 = 42" ]
    (Client.eval c1 "pv+1");
  Alcotest.(check (list string)) "c2's alias" [ "pv+1 = 1001" ]
    (Client.eval c2 "pv+1");
  List.iter Client.close clients

(* --- histogram and stats merging (the sharded stats substrate) ----------- *)

let histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.add a 3e-6;
  Histogram.add a 200e-6;
  Histogram.add b 5e-6;
  let m = Histogram.merge a b in
  Alcotest.(check int) "merged count" 3 (Histogram.count m);
  Alcotest.(check int) "left input unchanged" 2 (Histogram.count a);
  Alcotest.(check int) "right input unchanged" 1 (Histogram.count b);
  (* same bucket boundaries on both sides, so the merge is exact:
     percentiles answer over the union of the sample streams *)
  Alcotest.(check bool)
    "p99 covers the slow sample" true
    (Histogram.percentile m 0.99 >= 128e-6);
  Alcotest.(check bool)
    "p50 stays with the fast majority" true
    (Histogram.percentile m 0.5 <= 8e-6);
  Alcotest.(check int)
    "merging empties is empty" 0
    (Histogram.count (Histogram.merge (Histogram.create ()) (Histogram.create ())))

let merge_stats_sums () =
  let srv1, c1 = Support.socket_stack (Scenarios.all ()) in
  let srv2, c2 = Support.socket_stack (Scenarios.all ()) in
  ignore (Client.eval c1 "x[3]");
  ignore (Client.eval c1 "x[4]");
  ignore (Client.eval c2 "x[5]");
  let s1 = Server.stats srv1 and s2 = Server.stats srv2 in
  let m = Server.merge_stats s1 s2 in
  Alcotest.(check int) "evals sum" (s1.Server.evals + s2.Server.evals)
    m.Server.evals;
  Alcotest.(check int) "packets sum" (s1.Server.packets + s2.Server.packets)
    m.Server.packets;
  Alcotest.(check int) "bytes_in sum" (s1.Server.bytes_in + s2.Server.bytes_in)
    m.Server.bytes_in;
  Alcotest.(check int) "histograms merge"
    (Histogram.count s1.Server.hist + Histogram.count s2.Server.hist)
    (Histogram.count m.Server.hist);
  (* merge builds a fresh record; the inputs keep their own counters *)
  Alcotest.(check int) "left intact" 2 s1.Server.evals;
  Alcotest.(check int) "right intact" 1 s2.Server.evals;
  Client.close c1;
  Client.close c2

(* --- the domain-safe plan cache ------------------------------------------ *)

(* Four workers (three spawned domains plus this one) hammer one
   8-entry cache with overlapping keys and rotating generations: no
   crash, no torn entry, and the capacity invariant holds under every
   interleaving.  This is the directed race test for the cache the
   sharded server shares across domains. *)
let plan_cache_hammer () =
  let module PC = Duel_serve.Plan_cache in
  let s =
    Session.create (Duel_target.Backend.direct (Scenarios.all ()))
  in
  let prog =
    Duel_core.Compile.compile (Session.compile s (Session.parse s "1"))
  in
  let cache = PC.create 8 in
  let errors = Atomic.make 0 in
  let worker () =
    try
      for i = 1 to 2000 do
        let key = Printf.sprintf "k%d" (i mod 12) in
        let gen = i mod 3 in
        (match PC.find cache ~key ~gen with
        | PC.Hit _ -> ()
        | PC.Stale | PC.Absent -> ignore (PC.store cache ~key ~gen prog));
        if PC.resident cache > 8 then Atomic.incr errors
      done
    with _ -> Atomic.incr errors
  in
  let ds = List.init 3 (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join ds;
  Alcotest.(check int) "no invariant violations" 0 (Atomic.get errors);
  Alcotest.(check bool) "capacity holds after the storm" true
    (PC.resident cache <= 8);
  ignore (PC.store cache ~key:"final" ~gen:7 prog);
  Alcotest.(check bool) "hit at the stored generation" true
    (match PC.find cache ~key:"final" ~gen:7 with
    | PC.Hit _ -> true
    | _ -> false);
  Alcotest.(check bool) "a moved generation reads stale" true
    (match PC.find cache ~key:"final" ~gen:8 with
    | PC.Stale -> true
    | _ -> false)

(* --- at-most-once is per-connection (the server.mli contract) ------------ *)

let eval_seq_per_connection () =
  let srv, clients = plan_stack 4 in
  let c1, c2, c4, creader =
    match clients with
    | [ a; b; c; d ] -> (a, b, c, d)
    | _ -> assert false
  in
  let st = Server.stats srv in
  let read_x0 () =
    match Client.eval creader "x[0]" with
    | [ line ] ->
        int_of_string
          (String.trim
             (match String.split_on_char '=' line with
             | [ _; v ] -> v
             | _ -> Alcotest.failf "unparsable: %s" line))
    | other -> Alcotest.failf "unexpected reply: %s" (String.concat "|" other)
  in
  let before = read_x0 () in
  let evals0 = st.Server.evals in
  let bump = "qDuelEvalSeq:a;x[0] = x[0] + 1;" in
  (* the same sequence number from two different connections: both
     execute; neither replays the other's reply *)
  let r1 = Client.rpc c1 bump in
  ignore (Client.rpc c2 bump);
  Alcotest.(check int) "both executed" (evals0 + 2) st.Server.evals;
  Alcotest.(check int) "no replays" 0 st.Server.eval_dups;
  (* resending on the same connection replays the stored reply without
     re-executing *)
  let r1' = Client.rpc c1 bump in
  Alcotest.(check string) "replay is verbatim" r1 r1';
  Alcotest.(check int) "replay did not evaluate" (evals0 + 2) st.Server.evals;
  Alcotest.(check int) "counted as a dup" 1 st.Server.eval_dups;
  (* a fresh connection starts with an empty replay table: the same seq
     executes again — the reconnect caveat server.mli documents *)
  ignore (Client.rpc c4 bump);
  Alcotest.(check int) "fresh connection executed" (evals0 + 3)
    st.Server.evals;
  Alcotest.(check int) "exactly three increments landed" (before + 3)
    (read_x0 ());
  List.iter Client.close clients

(* --- the sharded server --------------------------------------------------- *)

module Sharded = Duel_serve.Sharded

(* N shard loops in background domains, M clients on real blocking IO
   over injected socketpairs (round-robin across shards).  This is the
   cross-domain configuration proper — no cooperative pump anywhere. *)
let sharded_rig ?config ~shards nclients =
  let inf = Scenarios.all () in
  let srv = Sharded.create ?config ~shards (Support.one inf) in
  Sharded.start srv;
  let clients =
    List.init nclients (fun _ ->
        let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
        Sharded.inject srv a;
        Client.of_fd b)
  in
  (srv, clients)

let sharded_teardown srv clients =
  List.iter Client.close clients;
  Sharded.shutdown srv;
  Sharded.join srv

let sharded_eval_basic () =
  let direct =
    Session.create (Duel_target.Backend.direct (Scenarios.all ()))
  in
  let query = "hash[0..5].v[0..2] >? 2" in
  let expected = Session.exec direct query in
  let srv, clients = sharded_rig ~shards:2 4 in
  List.iter
    (fun cl ->
      Alcotest.(check (list string))
        "sharded eval equals a direct session" expected (Client.eval cl query))
    clients;
  (* the round-robin hand-off spread the connections evenly *)
  Alcotest.(check (list int))
    "per-shard distribution" [ 2; 2 ]
    (List.map (fun s -> (Server.stats s).Server.accepted) (Sharded.shards srv));
  (* any shard answers with the merged whole-server numbers *)
  let v = Sharded.merged_view srv in
  Alcotest.(check int) "merged evals" 4 v.Server.v_st.Server.evals;
  Alcotest.(check int) "merged accepts" 4 v.Server.v_st.Server.accepted;
  sharded_teardown srv clients

let sharded_tcp_reuseport () =
  let direct =
    Session.create (Duel_target.Backend.direct (Scenarios.all ()))
  in
  let query = "x[1..4,8,12..50] >? 5 <? 10" in
  let expected = Session.exec direct query in
  let srv = Sharded.create ~shards:2 (Support.one (Scenarios.all ())) in
  let port = Sharded.listen_tcp srv ~host:"127.0.0.1" ~port:0 in
  Sharded.start srv;
  let addr = Printf.sprintf "127.0.0.1:%d" port in
  let clients = List.init 4 (fun _ -> Client.connect addr) in
  List.iter
    (fun cl ->
      Alcotest.(check (list string))
        "eval over SO_REUSEPORT TCP" expected (Client.eval cl query))
    clients;
  (* the kernel balances accepts; only the total is deterministic *)
  Alcotest.(check int) "all connections accepted" 4
    (List.fold_left
       (fun n s -> n + (Server.stats s).Server.accepted)
       0 (Sharded.shards srv));
  sharded_teardown srv clients

(* Graceful drain mid-stream: a reply already queued when the shutdown
   arrives is still delivered before the shard closes. *)
let sharded_drain_mid_stream () =
  let direct =
    Session.create (Duel_target.Backend.direct (Scenarios.all ()))
  in
  let query = "x[1..4] >? 5" in
  let expected = Session.exec direct query in
  let srv, clients = sharded_rig ~shards:2 2 in
  let c1 = List.hd clients in
  Client.eval_send c1 query;
  (* wait until the query has actually been served into c1's reply
     queue, then shut the whole server down from this domain *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  while
    (Sharded.merged_view srv).Server.v_st.Server.evals < 1
    && Unix.gettimeofday () < deadline
  do
    Unix.sleepf 0.002
  done;
  Sharded.shutdown srv;
  Alcotest.(check (list string))
    "queued reply survives the drain" expected (Client.eval_recv c1);
  Sharded.join srv;
  List.iter Client.close clients

(* Stores cross shards: one target, two shard loops, a client on each.
   Shard 1 reads first, so its own dcache and plan hold the old value;
   the store through shard 0 must retire both, by way of the target's
   write-generation.  The same holds the other way round for a raw RSP
   memory write. *)
let sharded_store_crosses_shards () =
  let srv, clients = sharded_rig ~shards:2 2 in
  let c0, c1 = match clients with [ a; b ] -> (a, b) | _ -> assert false in
  Alcotest.(check (list string)) "shard 1 warm" [ "x[7] = 0" ]
    (Client.eval c1 "x[7]");
  Alcotest.(check (list string))
    "store through shard 0" [ "x[7] = 1234" ]
    (Client.eval c0 "x[7] = 1234");
  (* the round-robin hand-off put each client on its own shard *)
  Alcotest.(check (list int))
    "one client per shard" [ 1; 1 ]
    (List.map (fun s -> (Server.stats s).Server.accepted) (Sharded.shards srv));
  Alcotest.(check (list string))
    "shard 1 reads the store back" [ "x[7] = 1234" ]
    (Client.eval c1 "x[7]");
  let raw1 =
    Client.dbgi ~cache:false c1
      (Duel_rsp.Client.debug_info_of_inferior (Scenarios.all ()))
  in
  let x =
    match raw1.Dbgi.find_variable "x" with
    | Some v -> v.Dbgi.v_addr
    | None -> Alcotest.fail "x missing"
  in
  Dbgi.write_scalar raw1 ~addr:(x + (7 * 4)) ~size:4 4321L;
  Alcotest.(check (list string))
    "shard 0 reads a raw RSP store from shard 1" [ "x[7] = 4321" ]
    (Client.eval c0 "x[7]");
  sharded_teardown srv clients

let sharded_idle_reap () =
  let config = { Server.default_config with idle_timeout = 0.05 } in
  let srv, clients = sharded_rig ~config ~shards:2 2 in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while
    (Sharded.merged_view srv).Server.v_st.Server.timeouts < 2
    && Unix.gettimeofday () < deadline
  do
    Unix.sleepf 0.002
  done;
  let v = Sharded.merged_view srv in
  Alcotest.(check int) "every shard reaped its idler" 2
    v.Server.v_st.Server.timeouts;
  Alcotest.(check int) "no live connections remain" 0 v.Server.v_active;
  sharded_teardown srv clients

(* --- the target fleet ----------------------------------------------------- *)

module Fleet = Duel_fleet.Fleet
module Fdiff = Duel_fleet.Diff

(* One server hosting a fleet, [n] injected client connections sharing
   one cooperative pump — the fleet twin of [plan_stack]. *)
let fleet_stack ?config ?(n = 1) spec =
  let fleet =
    match Fleet.of_string spec with
    | Ok f -> f
    | Error m -> Alcotest.fail ("fleet spec: " ^ m)
  in
  let srv = Server.create ?config fleet in
  let pump () = ignore (Server.step srv 0.01) in
  let clients =
    List.init n (fun _ ->
        let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
        Server.inject srv a;
        Client.of_fd ~pump b)
  in
  (srv, fleet, clients)

(* Roster and binding: qDuelTargets lists the slots in declaration
   order, a fresh connection is bound to the first, and qDuelUse
   rebinds with a fresh session over the chosen target. *)
let fleet_roster_and_bind () =
  let _srv, _fleet, clients = fleet_stack "fleet(a=all,b=deep_list:8)" in
  let cl = List.hd clients in
  Alcotest.(check (list (pair string string)))
    "roster" [ ("a", "all"); ("b", "deep_list:8") ] (Client.targets cl);
  Alcotest.(check (list string))
    "bound to the first slot by default" [ "x[3] = 7" ] (Client.eval cl "x[3]");
  Client.use_target cl "b";
  let direct =
    Session.create (Duel_target.Backend.direct (Scenarios.deep_list 8))
  in
  Alcotest.(check (list string))
    "rebound eval runs against the chosen target"
    (Session.exec direct "deep-->next->value")
    (Client.eval cl "deep-->next->value");
  List.iter Client.close clients

(* A single-target server is a one-member fleet: the roster lists its
   one target as [main], binding it works, a fan-out over it answers
   what a plain eval does, and its per-target counters count both. *)
let single_target_is_a_fleet () =
  let _srv, cl = Support.socket_stack (Scenarios.all ()) in
  Alcotest.(check (list (pair string string)))
    "one roster entry" [ ("main", "all") ] (Client.targets cl);
  Client.use_target cl "main";
  let q = "x[1..4,8,12..50] >? 5 <? 10" in
  let plain = Client.eval cl q in
  Alcotest.(check (list (pair string (result (list string) string))))
    "fan-out over main equals a plain eval"
    [ ("main", Ok plain) ]
    (Client.eval_all cl [ "main" ] q);
  let st = Client.server_stats cl in
  let get k = match List.assoc_opt k st with Some v -> v | None -> -1 in
  Alcotest.(check int) "main binds" 1 (get "tgt.main.binds");
  Alcotest.(check int) "main evals" 2 (get "tgt.main.evals");
  Client.close cl

(* The directed satellite test: binding an unknown id raises the typed
   [Unknown_target] failure, which is not transport-class (retrying
   elsewhere cannot help) and renders its id. *)
let fleet_unknown_target_typed () =
  let _srv, _fleet, clients = fleet_stack "fleet(a=all)" in
  let cl = List.hd clients in
  (match Client.use_target cl "nosuch" with
  | () -> Alcotest.fail "expected Unknown_target"
  | exception Client.Error (Client.Unknown_target id as f) ->
      Alcotest.(check string) "carries the id" "nosuch" id;
      Alcotest.(check bool)
        "not transport-class" false (Client.is_transport f);
      Alcotest.(check bool)
        "message names the target" true
        (Support.contains_sub (Client.failure_message f) "nosuch"));
  (* the connection survives the refusal: still bound to slot 0 *)
  Alcotest.(check (list string))
    "connection still usable" [ "x[3] = 7" ] (Client.eval cl "x[3]");
  List.iter Client.close clients

(* Isolation proper: a store into one target neither changes a
   sibling's values nor retires the sibling's cached plan or data —
   generations, plan entries and dcaches are all per-target. *)
let fleet_write_isolation () =
  let srv, fleet, clients = fleet_stack ~n:2 "fleet(a=all,b=all)" in
  let c1, c2 = match clients with [ a; b ] -> (a, b) | _ -> assert false in
  let tgt id =
    match Fleet.find fleet id with Some t -> t | None -> assert false
  in
  Client.use_target c2 "b";
  let quiet = [ "x[10] = 0"; "x[11] = 0"; "x[12] = 0" ] in
  Alcotest.(check (list string)) "a cold" quiet (Client.eval c1 "x[10..12]");
  Alcotest.(check (list string)) "a warm" quiet (Client.eval c1 "x[10..12]");
  let gen_a = Fleet.generation (tgt "a") in
  (* store through b *)
  Alcotest.(check (list string))
    "store lands in b" [ "x[11] = 5" ]
    (Client.eval c2 "x[11] = 5; x[11]");
  Alcotest.(check bool)
    "b's generation moved" true
    (Fleet.generation (tgt "b") > 0);
  Alcotest.(check int) "a's generation did not" gen_a
    (Fleet.generation (tgt "a"));
  let st = Server.stats srv in
  Alcotest.(check int) "a's plan survived the sibling store" 0
    st.Server.plan_inval;
  Alcotest.(check (list string))
    "a still reads its own memory" quiet
    (Client.eval c1 "x[10..12]");
  Alcotest.(check (list string))
    "b sees its own store" [ "x[10] = 0"; "x[11] = 5"; "x[12] = 0" ]
    (Client.eval c2 "x[10..12]");
  (* same token stream, two targets: two distinct plan entries *)
  Alcotest.(check bool)
    "plans are keyed per-target" true
    ((Server.stats srv).Server.plan_compiles >= 3);
  List.iter Client.close clients

(* Fan-out with a dead member and an unknown id: each leg fails (or
   faults) alone, the healthy legs stream their full results. *)
let fleet_eval_all_isolates_legs () =
  let _srv, _fleet, clients = fleet_stack "fleet(a=all,x=dead:all)" in
  let cl = List.hd clients in
  let legs = Client.eval_all cl [] "x[3]" in
  Alcotest.(check int) "two legs back" 2 (List.length legs);
  (match List.assoc_opt "a" legs with
  | Some (Ok lines) ->
      Alcotest.(check (list string)) "healthy leg" [ "x[3] = 7" ] lines
  | _ -> Alcotest.fail "leg a missing or failed");
  (match List.assoc_opt "x" legs with
  | Some (Ok lines) ->
      (* the dead target's faults surface inside its own leg's stream *)
      Alcotest.(check bool)
        "dead leg reports its fault" true
        (List.exists
           (fun l -> Support.contains_sub l "Transient target fault")
           lines)
  | _ -> Alcotest.fail "leg x missing");
  (* an unknown id in an explicit selection fails its leg only *)
  let legs = Client.eval_all cl [ "a"; "zz" ] "x[3]" in
  (match List.assoc_opt "a" legs with
  | Some (Ok lines) ->
      Alcotest.(check (list string)) "a unaffected" [ "x[3] = 7" ] lines
  | _ -> Alcotest.fail "leg a missing or failed");
  (match List.assoc_opt "zz" legs with
  | Some (Error msg) ->
      Alcotest.(check bool)
        "zz refused by name" true (Support.contains_sub msg "unknown")
  | _ -> Alcotest.fail "leg zz should have failed");
  List.iter Client.close clients

(* The headline demo as a test: twin targets, one seeded buggy, and the
   diff lands exactly on the seeded index with the seeded values. *)
let fleet_divergence_at_seeded_index () =
  let _srv, _fleet, clients =
    fleet_stack "fleet(good=deep_list:40,bad=deep_list_buggy:40)"
  in
  let cl = List.hd clients in
  let legs = Client.eval_all cl [ "good"; "bad" ] "deep-->next->value" in
  let leg id =
    match List.assoc_opt id legs with
    | Some (Ok lines) -> lines
    | _ -> Alcotest.fail ("leg " ^ id ^ " missing or failed")
  in
  (match Fdiff.diff (leg "good") (leg "bad") with
  | Fdiff.Diverged { index; left; right } ->
      Alcotest.(check int)
        "diverges at the seeded index" (Scenarios.buggy_index 40) index;
      Alcotest.(check string) "good value" "60" left.Fdiff.d_value;
      Alcotest.(check string) "off-by-one value" "61" right.Fdiff.d_value;
      Alcotest.(check bool)
        "symbolic path reported" true
        (Support.contains_sub left.Fdiff.d_sym "deep")
  | _ -> Alcotest.fail "twins must diverge");
  List.iter Client.close clients

(* The swapped-link twin diverges at the same index but with the
   successor's value — a different signature for the same position. *)
let fleet_swapped_link_signature () =
  let _srv, _fleet, clients =
    fleet_stack "fleet(good=deep_list:40,sw=deep_list_swapped:40)"
  in
  let cl = List.hd clients in
  let legs = Client.eval_all cl [] "deep-->next->value" in
  let leg id =
    match List.assoc_opt id legs with
    | Some (Ok lines) -> lines
    | _ -> Alcotest.fail ("leg " ^ id ^ " missing or failed")
  in
  (match Fdiff.diff (leg "good") (leg "sw") with
  | Fdiff.Diverged { index; left; right } ->
      Alcotest.(check int)
        "same seeded index" (Scenarios.buggy_index 40) index;
      Alcotest.(check bool)
        "values traded places" true
        (left.Fdiff.d_value <> right.Fdiff.d_value)
  | _ -> Alcotest.fail "swapped twin must diverge");
  List.iter Client.close clients

(* Identical twins diff clean, and the report says so. *)
let fleet_identical_targets_diff_clean () =
  let _srv, _fleet, clients =
    fleet_stack "fleet(a=deep_list:12,b=deep_list:12)"
  in
  let cl = List.hd clients in
  let legs = Client.eval_all cl [] "deep-->next->value" in
  let leg id =
    match List.assoc_opt id legs with
    | Some (Ok lines) -> lines
    | _ -> Alcotest.fail ("leg " ^ id ^ " missing or failed")
  in
  let outcome = Fdiff.diff (leg "a") (leg "b") in
  (match outcome with
  | Fdiff.Equal n -> Alcotest.(check int) "all values compared" 12 n
  | _ -> Alcotest.fail "identical targets must not diverge");
  Alcotest.(check bool)
    "report says identical" true
    (List.exists
       (fun l -> Support.contains_sub l "identical")
       (Fdiff.report ~id_a:"a" ~id_b:"b" outcome));
  List.iter Client.close clients

(* The diff core, off the wire: alignment, length mismatch, laziness. *)
let fleet_diff_unit () =
  let s = Fdiff.split_line "deep-->next[[3]]->value = 9" in
  Alcotest.(check string) "sym" "deep-->next[[3]]->value" s.Fdiff.d_sym;
  Alcotest.(check string) "value" "9" s.Fdiff.d_value;
  let bare = Fdiff.split_line "just output" in
  Alcotest.(check string) "bare line has no sym" "" bare.Fdiff.d_sym;
  Alcotest.(check string) "bare line is all value" "just output"
    bare.Fdiff.d_value;
  (* symbolic parts differing alone do not diverge *)
  (match Fdiff.diff [ "a = 1"; "b = 2" ] [ "x = 1"; "y = 2" ] with
  | Fdiff.Equal 2 -> ()
  | _ -> Alcotest.fail "values equal, syms ignored");
  (match Fdiff.diff [ "a = 1" ] [ "a = 1"; "a = 2" ] with
  | Fdiff.Left_short { index = 1; right } ->
      Alcotest.(check string) "first extra" "2" right.Fdiff.d_value
  | _ -> Alcotest.fail "expected Left_short");
  (match Fdiff.diff [ "a = 1"; "a = 2" ] [ "a = 1" ] with
  | Fdiff.Right_short { index = 1; left } ->
      Alcotest.(check string) "first extra" "2" left.Fdiff.d_value
  | _ -> Alcotest.fail "expected Right_short");
  (* lazy: the diff must not pull past the first divergence *)
  let pulled = ref 0 in
  let counted n =
    Seq.init n (fun i ->
        incr pulled;
        Printf.sprintf "v = %d" (if i = 2 then 100 else i))
  in
  (match Fdiff.diff_seq (counted 1000) (Seq.init 1000 (Printf.sprintf "v = %d"))
   with
  | Fdiff.Diverged { index = 2; _ } -> ()
  | _ -> Alcotest.fail "expected divergence at 2");
  Alcotest.(check bool) "stopped at the divergence" true (!pulled <= 4)

(* Per-target counters ride the stats wire and the human rendering. *)
let fleet_per_target_stats () =
  let srv, _fleet, clients = fleet_stack "fleet(a=all,b=all)" in
  let cl = List.hd clients in
  ignore (Client.eval cl "x[1..4]");
  Client.use_target cl "b";
  ignore (Client.eval cl "x[3]");
  ignore (Client.eval_all cl [] "x[3]");
  let st = Client.server_stats cl in
  let get k = match List.assoc_opt k st with Some v -> v | None -> -1 in
  Alcotest.(check int) "a evals" 2 (get "tgt.a.evals");
  Alcotest.(check int) "b binds" 1 (get "tgt.b.binds");
  Alcotest.(check int) "b evals" 2 (get "tgt.b.evals");
  Alcotest.(check int) "a values" 5 (get "tgt.a.values");
  Alcotest.(check int) "a errors" 0 (get "tgt.a.errors");
  Alcotest.(check bool)
    "human rendering has the targets" true
    (List.exists
       (fun l -> Support.contains_sub l "target a (all)")
       (Server.stats_to_lines srv));
  List.iter Client.close clients

(* The cross-domain configuration: two shards over one shared fleet,
   concurrent bound evals and a fan-out, ending in the seeded diff. *)
let fleet_sharded () =
  let fleet =
    match
      Fleet.of_string "fleet(good=deep_list:40,bad=deep_list_buggy:40)"
    with
    | Ok f -> f
    | Error m -> Alcotest.fail m
  in
  let srv = Sharded.create ~shards:2 fleet in
  Sharded.start srv;
  let clients =
    List.init 4 (fun _ ->
        let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
        Sharded.inject srv a;
        Client.of_fd b)
  in
  let exec_direct inf q =
    Session.exec (Session.create (Duel_target.Backend.direct inf)) q
  in
  let expected_good =
    exec_direct (Scenarios.deep_list 40) "deep-->next->value"
  in
  let expected_bad =
    exec_direct (Scenarios.deep_list_buggy 40) "deep-->next->value"
  in
  List.iteri
    (fun i cl ->
      if i mod 2 = 1 then Client.use_target cl "bad";
      Alcotest.(check (list string))
        "every shard serves the bound target"
        (if i mod 2 = 1 then expected_bad else expected_good)
        (Client.eval cl "deep-->next->value"))
    clients;
  let legs = Client.eval_all (List.hd clients) [] "deep-->next->value" in
  let leg id =
    match List.assoc_opt id legs with
    | Some (Ok lines) -> lines
    | _ -> Alcotest.fail ("leg " ^ id ^ " missing or failed")
  in
  (match Fdiff.diff (leg "good") (leg "bad") with
  | Fdiff.Diverged { index; _ } ->
      Alcotest.(check int)
        "sharded fan-out finds the seed" (Scenarios.buggy_index 40) index
  | _ -> Alcotest.fail "twins must diverge");
  sharded_teardown srv clients

let suite =
  [
    case "deframer survives byte-at-a-time delivery" deframer_split;
    case "deframer splits coalesced frames" deframer_coalesced;
    case "deframer skips junk and resyncs" deframer_junk_resync;
    case "deframer reports bad checksums and recovers" deframer_bad_checksum;
    case "deframer handles escapes split across reads" deframer_split_escape;
    case "deframer abandons unterminated frames" deframer_unterminated;
    case "histogram percentiles bound the modes" histogram_percentiles;
    case "RSP stub enforces resource limits" rsp_limits;
    case "remote eval equals a direct session" eval_matches_direct;
    case "eval chunking is invisible" eval_chunking;
    case "eval ships target stdout" eval_captures_stdout;
    case "eval sessions are per-connection" eval_session_persists;
    case "ten concurrent clients in one loop" concurrent_clients;
    case "TCP listener end to end" tcp_listener;
    case "idle connections are reaped" idle_reaper;
    case "request budget closes the connection" request_budget;
    case "malformed frames are NAKed and resynced" malformed_nak_resync;
    case "a client NAK retransmits the reply" client_nak_retransmit;
    case "backpressure pauses reads until drained" backpressure;
    case "graceful shutdown drains and completes" graceful_shutdown;
    case "qDuelStats reports live counters" stats_report;
    case "qDuelStats carries the chaos counters" stats_have_chaos_counters;
    case "deframer resyncs on a frame cut at its checksum"
      deframer_cut_at_checksum;
    case "client survives a server dying mid-reply"
      client_survives_server_death_mid_reply;
    case "client bounds a silent server with its deadline"
      client_bounds_silent_server;
    case "spent eval budget is refused without evaluating"
      eval_seq_budget_expired;
    case "remote eval invalidates the client cache"
      eval_invalidates_client_cache;
    case "plan cache shared across connections" plan_shared_across_connections;
    case "plan keying normalizes whitespace" plan_whitespace_normalized;
    case "plan invalidated by a target store" plan_invalidated_by_store;
    case "plan path keeps the error contract" plan_error_parity;
    case "plan cache evicts LRU at capacity" plan_lru_eviction;
    case "plan cache can be disabled" plan_disabled;
    case "cached plans keep aliases per-connection" plan_alias_isolation;
    case "histogram merge is exact and fresh" histogram_merge;
    case "merge_stats sums counters and histograms" merge_stats_sums;
    case "plan cache survives a multi-domain hammer" plan_cache_hammer;
    case "at-most-once is per-connection, not per-server"
      eval_seq_per_connection;
    case "two shards serve four injected clients" sharded_eval_basic;
    case "SO_REUSEPORT shards share one TCP port" sharded_tcp_reuseport;
    case "sharded drain delivers queued replies" sharded_drain_mid_stream;
    case "each shard reaps its own idlers" sharded_idle_reap;
    case "a store through one shard is read back through another"
      sharded_store_crosses_shards;
    case "fleet roster and target binding" fleet_roster_and_bind;
    case "a single target is a one-member fleet" single_target_is_a_fleet;
    case "binding an unknown target is a typed failure"
      fleet_unknown_target_typed;
    case "stores into one target leave siblings' caches alone"
      fleet_write_isolation;
    case "fan-out isolates dead and unknown legs" fleet_eval_all_isolates_legs;
    case "twin targets diverge at the seeded index"
      fleet_divergence_at_seeded_index;
    case "swapped-link twin carries its own signature"
      fleet_swapped_link_signature;
    case "identical targets diff clean" fleet_identical_targets_diff_clean;
    case "diff alignment, shortfall and laziness" fleet_diff_unit;
    case "per-target counters ride the stats wire" fleet_per_target_stats;
    case "two shards share one fleet" fleet_sharded;
  ]
