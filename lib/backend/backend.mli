(** One spec string names one fully wired backend stack.

    Every place that used to hand-assemble a [Dbgi.t] — the CLI, the
    conformance battery, the bench driver — goes through {!of_spec}
    instead, so a backend configuration is a {e value} that can be
    printed, generated, round-tripped and listed in a test matrix.

    {2 Grammar}

    {v
    spec  ::= atom | "dispatch(" spec ("," spec)* [";" policy] ")"
    atom  ::= base ("+" deco)*
    base  ::= "direct:" scenario          in-process, raw memory access
            | "rsp:" scenario             in-process RSP loopback
            | "serve:" scenario           in-process serve server + client
            | "dead:" scenario            local debug info, every live
                                          operation a transient fault
            | "tcp://" host ":" port ["#" scenario]
            | "unix:" path ["#" scenario]
    deco  ::= "cache"                     data cache (dcache) layer
            | "prefetch"                  page-block read-ahead into the
                                          dcache on wire bases (implies
                                          cache)
            | "chaos(seed=N,profile=P)"   fault injection + retry layer
            | "flaky(seed=N,profile=P)"   fault injection, no retries
            | "mangle(seed=N,profile=P,rate=R)"
                                          byte mangling on the wire
                                          (rsp / serve bases only)
            | "stall(seed=N,ms=M,rate=R)" injected latency only
    policy ::= kv ("," kv)*               trip=N, probe=Xms, alpha=F
    scenario ::= "all" | "symtab" | "faulty" | "big:N"
               | "deep_list:N" | "deep_tree:N"
               | "deep_list_buggy:N" | "deep_list_swapped:N"
               | "deep_tree_buggy:N"
    v}

    The scenario names a synthetic debuggee from [Duel_scenarios]
    (resolution shared with {!Duel_fleet.Fleet.scenario_of_name}, so
    backend specs and fleet slots accept the same names); for
    the network bases it names the {e local twin} whose debug info
    (symbols, types) is used while memory goes over the wire, exactly as
    the serve client documents.  Chaos profiles accept a ["-nocall"]
    suffix ([mild-nocall]) zeroing the call-fault rate, for batteries
    whose call sites sit outside the retry layer.

    {!print} is canonical (all policy fields spelled out, floats via
    [%g]); [parse (print s) = Ok s] for every value this module can
    build, which the property suite pins down. *)

type base =
  | Direct of string
  | Rsp of string
  | Serve_loop of string
  | Dead of string
  | Tcp of string * int * string  (** host, port, scenario *)
  | Unix_sock of string * string  (** path, scenario *)

type deco =
  | Cache
  | Prefetch
  | Chaos of { seed : int; profile : string }
  | Flaky of { seed : int; profile : string }
  | Mangle of { seed : int; profile : string; rate : float }
  | Stall of { seed : int; ms : float; rate : float }

type dpolicy = { d_trip : int; d_probe_ms : float; d_alpha : float }

val default_dpolicy : dpolicy
(** Mirrors {!Duel_dbgi.Dispatcher.default_policy}: trip after 3, 50 ms
    probe window, alpha 0.2. *)

type spec = Atom of base * deco list | Dispatch of spec list * dpolicy

val parse : string -> (spec, string) result
val print : spec -> string

val scenario_of_name : string -> (Duel_target.Inferior.t, string) result
(** A fresh inferior for a scenario name from the grammar above. *)

val transport_fault : exn -> bool
(** The dispatcher fault predicate for spec-built replicas: the default
    ([Target_transient], [Unix_error]) plus the serve client's typed
    transport failures ({!Duel_serve.Client.is_transport}). *)

(** Everything {!build} wired up, kept so the CLI and the bench driver
    can report on (and tear down) the stack they got. *)
type built = {
  b_dbg : Duel_dbgi.Dbgi.t;
  b_inf : Duel_target.Inferior.t;
      (** the first (primary) inferior — the one whose [take_output] the
          REPL drains and whose memory tests poke *)
  b_spec : spec;
  b_rigs : (string * Duel_chaos.Chaos.rig) list;
      (** one per [chaos]/[flaky] decorator, for [info chaos] *)
  b_dispatchers : (string * Duel_dbgi.Dispatcher.t) list;
  b_packets : int ref;  (** RSP exchanges through in-process loopbacks *)
  b_close : unit -> unit;  (** close clients, proxies, servers; idempotent *)
}

val build :
  ?make_inf:(string -> Duel_target.Inferior.t) ->
  ?pump:(unit -> unit) ->
  ?serve_config:Duel_serve.Server.config ->
  ?retry:Duel_serve.Client.retry_policy ->
  spec ->
  (built, string) result
(** [make_inf] overrides scenario resolution (tests share one inferior
    with the oracle; later calls must return fresh twins).  [pump] is
    handed to network clients dialling out ([tcp://], [unix:]) whose
    server lives in this process.  [serve_config]/[retry] tune the
    in-process [serve:] stack. *)

val of_string :
  ?make_inf:(string -> Duel_target.Inferior.t) ->
  ?pump:(unit -> unit) ->
  ?serve_config:Duel_serve.Server.config ->
  ?retry:Duel_serve.Client.retry_policy ->
  string ->
  (built, string) result
(** [parse] then [build]. *)

val of_spec : string -> Duel_dbgi.Dbgi.t
(** The one-call form of the ISSUE's API: spec string in, backend out.
    @raise Invalid_argument on a malformed or unbuildable spec. *)

val describe : built -> string list
(** The [info backend] report: the resolved spec tree, per-layer caps,
    live health, dispatcher routing state. *)
