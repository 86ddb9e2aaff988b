(* Shared helpers for the test suites. *)

module Session = Duel_core.Session
module Env = Duel_core.Env
module Inferior = Duel_target.Inferior
module Scenarios = Duel_scenarios.Scenarios

type kit = { session : Session.t; inf : Inferior.t }

let kit ?(engine = Session.Seq_engine) ?(scenario = `All) () =
  let inf =
    match scenario with
    | `All -> Scenarios.all ()
    | `Symtab -> Scenarios.symtab ()
    | `Faulty -> Scenarios.faulty ()
    | `Big n -> Scenarios.big_array n
  in
  { session = Session.create ~engine (Duel_target.Backend.direct inf); inf }

let kit_rsp ?(engine = Session.Seq_engine) () =
  let inf = Scenarios.all () in
  { session = Session.create ~engine (Duel_rsp.Client.loopback inf); inf }

(* A single target as the serve layer holds it: a one-member fleet over
   [inf] ([spec] only names it in the roster). *)
let one ?(spec = "all") inf = Duel_fleet.Fleet.of_inferior ~spec inf

let serve ?config ?spec inf = Duel_serve.Server.create ?config (one ?spec inf)

(* A whole network stack inside one process: the serve event loop owns
   one end of a socketpair, the client the other, and blocking waits on
   the client side pump the loop instead — deterministic concurrency
   with no threads or forks. *)
let socket_stack ?config inf =
  let srv = serve ?config inf in
  let server_end, client_end = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  Duel_serve.Server.inject srv server_end;
  let cl =
    Duel_serve.Client.of_fd
      ~pump:(fun () -> ignore (Duel_serve.Server.step srv 0.01))
      client_end
  in
  (srv, cl)

(* A [Dbgi.t] whose live state crosses the socket (debug info is read
   locally from the same inferior, as gdb reads it from the binary). *)
let socket_dbgi ?(cache = true) inf =
  let _srv, cl = socket_stack inf in
  Duel_serve.Client.dbgi ~cache cl (Duel_rsp.Client.debug_info_of_inferior inf)

(* Retry tuned for in-process chaos runs: waits are pump-driven and
   short, so a lost reply costs milliseconds, not the 2 s wire default. *)
let quick_retry =
  {
    Duel_serve.Client.attempts = 10;
    reply_timeout = 0.25;
    base_backoff = 0.001;
    max_backoff = 0.01;
    jitter = 0.5;
  }

(* The socket stack with a chaos byte-mangler spliced into the wire: the
   client talks to a [Duel_chaos.Proxy] relay which talks to the real
   server loop, both pumped cooperatively from the client's waits. *)
let mangled_socket_stack ?config ~up ~down inf =
  let srv = serve ?config inf in
  let proxy, client_end, server_end = Duel_chaos.Proxy.between ~up ~down () in
  Duel_serve.Server.inject srv server_end;
  let pump () =
    ignore (Duel_serve.Server.step srv 0.005);
    ignore (Duel_chaos.Proxy.step proxy 0.005)
  in
  let cl = Duel_serve.Client.of_fd ~pump ~retry:quick_retry client_end in
  (srv, cl)

let mangled_socket_dbgi ?(cache = false) ~up ~down inf =
  let _srv, cl = mangled_socket_stack ~up ~down inf in
  Duel_serve.Client.dbgi ~cache cl (Duel_rsp.Client.debug_info_of_inferior inf)

(* One reusable session per engine: alias pollution across cases is part of
   real usage, but tests that care create their own kit. *)
let exec k q = Session.exec k.session q
let exec1 k q = match exec k q with [ l ] -> l | ls -> String.concat "\n" ls

let check_query k q expected () =
  Alcotest.(check (list string)) q expected (exec k q)

let check_line k q expected () = Alcotest.(check string) q expected (exec1 k q)

let case name f = Alcotest.test_case name `Quick f

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* A shared kitchen-sink debuggee for read-only queries (building the
   1024-bucket table per case would dominate test time); tests with side
   effects on the target make their own kit. *)
let shared = lazy (kit ())

let q name query expected =
  case name (fun () -> check_query (Lazy.force shared) query expected ())

(* Same but only the single output line. *)
let q1 name query expected =
  case name (fun () -> check_line (Lazy.force shared) query expected ())

(* Same against a fresh debuggee (for queries with side effects). *)
let qf name query expected =
  case name (fun () -> check_query (kit ()) query expected ())
