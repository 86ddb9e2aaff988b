(** The concurrent network debug server.

    A fleet of simulated targets — one, unless relative debugging wants
    several — many clients, one thread: a single [Unix.select] event
    loop owns the listening sockets (TCP and Unix-domain) and every
    accepted connection.  Each connection runs an
    independent RSP exchange over an incremental deframer
    ({!Duel_rsp.Packet.Deframer}) against its bound target's
    {!Duel_rsp.Server} stub, plus the serve-level extensions:

    {ul
    {- [qDuelEval:<expr>] — run a whole DUEL command server-side in the
       connection's own {!Duel_core.Session} (aliases are per-client,
       the target is shared) and stream the formatted results back as
       chunked [D<line>\n<line>...] frames ended by [T<hex count>].  A
       thin client pays one round-trip per {e query} instead of one per
       scalar.}
    {- [qDuelEvalSeq:<seq>[,<budget-ms>];<expr>] — the resend-safe eval
       form.  Evaluation may have side effects, so a client that lost a
       reply cannot blindly resend a plain [qDuelEval:]; here the server
       keeps the last served (seq, reply) per connection and {e replays}
       the stored reply, without re-executing, when the same hex [seq]
       arrives again (counted in the [eval_dups] stat).  Replies are
       tagged: data chunks [D<seq>,<idx>;...], terminal
       [T<seq>,<count>], typed failure [F<seq>;<msg>].  A request whose
       optional [budget-ms] (the client's remaining deadline) is already
       spent answers [F<seq>;deadline] instead of evaluating.

       {b The at-most-once guarantee is per-connection, not
       per-server.}  The replay table lives on the connection object:
       resends {e on the same connection} are deduplicated no matter
       which shard of a sharded server owns it, and two connections
       using the same sequence numbers (unavoidable, since every client
       counts from 1) can never replay each other's replies — not even
       when a reconnecting client lands on a different shard, because
       the fresh connection starts with an empty table.  The flip side:
       a request whose connection died is {e not} protected — resending
       it over a new connection may execute it a second time.  The
       {!Client} therefore never resends an in-flight eval across a
       reconnect; it surfaces the transport failure and leaves the
       retry decision (idempotent or not) to the caller.}
    {- [qDuelStats] — the observability counters as [key=value;...]
       (see {!stats_wire}).}
    {- [qDuelShutdown] — reply [OK] and begin a graceful shutdown.}}

    {2 Fleet hosting}

    A server hosts the N named targets of a {!Duel_fleet.Fleet}; a
    single target is a one-member fleet whose target is [main]
    ({!Duel_fleet.Fleet.of_inferior}).  Every fresh connection is bound
    to the first fleet slot; three more protocol verbs address the
    others:

    {ul
    {- [qDuelTargets] — the fleet roster as [id=spec,...].}
    {- [qDuelUse:<id>] — rebind the connection: subsequent evals and
       RSP traffic aim at target [id], with a fresh session (aliases
       are per-target state) and a reset eval-seq replay window.
       Unknown id answers the typed [E03].}
    {- [qDuelEvalAll:<ids|*>;<expr>] — evaluate one expression across
       the named targets (comma-separated ids, or [*] for all), reusing
       each target's cached plan.  The reply interleaves per-target
       tagged sequences: chunks [R<id>,<hex idx>;<lines>] closed by
       [Z<id>,<hex count>] per target, [X<id>;<msg>] for a leg that
       failed outright (unknown id, escaped exception), and a terminal
       [T<hex legs>] counting every leg so nothing is silently dropped.
       Failures are isolated per leg: a dead or faulting target reports
       inside its own stream and never disturbs a sibling's.  Not
       resend-safe — use [qDuelEvalSeq] per target for that.}}

    Per-target isolation holds throughout: each target has its own
    write-generation (data and plan caches for one target survive
    stores into another), its own plan-cache namespace (twins never
    share a compiled plan — compiling interns literals into that
    target's memory), and its own [tgt.<id>.*] counters in
    [qDuelStats].

    {2 Robustness}

    Writes never block: replies go into a per-connection output queue
    drained as the socket accepts them, and a connection whose queue
    exceeds [max_output] stops being {e read} until it drains —
    backpressure instead of unbounded buffering.  Damaged frames are
    NAKed and the deframer resyncs on the next [$]; a client NAK
    retransmits the last reply.  A reaper closes connections idle past
    [idle_timeout]; per-connection request/byte budgets reply [E02] and
    close; target-side resource limits are enforced by the RSP stub
    ({!Duel_rsp.Server.limits}).  {!shutdown} stops accepting, drains
    every queued reply, then closes. *)

(** Server-side chaos fault points (see [config.fault_hook]). *)
type fault_point =
  | Accept  (** close an accepted connection before serving it *)
  | Reply_drop  (** swallow an outgoing reply (client must time out) *)
  | Reply_truncate  (** send only a reply prefix (client must NAK) *)
  | Stall_read  (** skip reading a ready connection for one step *)
  | Stall_write  (** skip writing a writable connection for one step *)

type config = {
  max_conns : int;  (** accepted connections beyond this are refused *)
  idle_timeout : float;  (** seconds of silence before the reaper; <= 0 disables *)
  max_output : int;
      (** per-connection queued-output bytes before reads pause *)
  max_requests : int;  (** per-connection request budget; 0 = unlimited *)
  max_input : int;  (** per-connection received-byte budget; 0 = unlimited *)
  max_eval_values : int;
      (** cap on values a [qDuelEval] streams back (then ["..."]) *)
  eval_chunk : int;  (** result lines per [D] frame *)
  plan_cache : int;
      (** capacity of the shared query-plan cache: compiled
          {!Duel_core.Bytecode} programs keyed by the command's token
          stream (so spellings differing only in whitespace share a
          plan), shared across every connection and run on the VM via
          {!Duel_core.Session.exec_program} on a per-use
          {!Duel_core.Bytecode.clone}.  Entries are invalidated when the
          target's write-generation moves (stores, RSP writes, called
          functions) and evicted LRU beyond this capacity; [0] disables
          the cache entirely (every eval takes the interpreter path). *)
  limits : Duel_rsp.Server.limits;  (** target resource limits *)
  fault_hook : (fault_point -> bool) option;
      (** chaos injection: consulted at each fault point, answers
          "inject here?".  Use a deterministic (seeded) hook so a
          failing schedule replays; every injection increments the
          [chaos] stat.  [None] (the default) costs nothing. *)
}

val default_config : config

type stats = {
  mutable accepted : int;
  mutable peak_active : int;
  mutable closed : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable packets : int;  (** valid request frames dispatched *)
  mutable evals : int;  (** [qDuelEval] queries *)
  mutable eval_values : int;  (** result lines streamed *)
  mutable faults : int;  (** damaged frames NAKed *)
  mutable naks : int;  (** client NAKs (retransmissions) *)
  mutable timeouts : int;  (** idle connections reaped *)
  mutable limited : int;  (** budget/capacity rejections *)
  mutable chaos : int;  (** injected server-side faults *)
  mutable eval_dups : int;  (** [qDuelEvalSeq] resends answered by replay *)
  mutable plan_hits : int;  (** evals served from a cached plan *)
  mutable plan_misses : int;  (** evals that found no valid plan *)
  mutable plan_compiles : int;  (** plans compiled and cached *)
  mutable plan_inval : int;  (** plans retired by a generation bump *)
  mutable plan_evict : int;  (** plans evicted by LRU pressure *)
  hist : Histogram.t;  (** per-request service time *)
}

type t

type view = { v_st : stats; v_active : int }
(** One shard's observable load: its counters plus its live connection
    count (which is not a counter and so cannot live in {!stats}). *)

val create :
  ?config:config ->
  ?plans:Plan_cache.t ->
  ?stop:bool Atomic.t ->
  Duel_fleet.Fleet.t ->
  t
(** A server (or one shard of a sharded server) hosting [fleet] (see
    {e Fleet hosting} above).  The fleet object — per-target locks,
    write-generations, counters — may be shared across shards; this
    shard builds its own per-target data caches
    ({!Duel_fleet.Fleet.shard_dbgi}), RSP stubs and plan-compile
    contexts from it.  RSP dispatch and target-stdout capture run
    holding the bound target's lock.  The optional arguments are the
    sharding seams:

    {ul
    {- [plans] — the query-plan cache (default: a private one of
       capacity [config.plan_cache]).  {!Plan_cache} is domain-safe, so
       one cache may be shared by every shard.}
    {- [stop] — the shutdown flag {!shutdown} raises and {!step} polls
       (default: private).  Shards share one, so [qDuelShutdown]
       arriving at any shard drains all of them.}} *)

val listen_tcp : ?reuseport:bool -> t -> host:string -> port:int -> int
(** Bind and listen; returns the actual port (useful with [port = 0]).
    [reuseport] sets [SO_REUSEPORT] before binding, so sibling shards
    can bind the same address and let the kernel balance accepts.
    @raise Unix.Unix_error on bind failure. *)

val listen_unix : t -> string -> unit
(** Listen on a Unix-domain socket path (unlinked first if stale, and
    again on shutdown). *)

val inject : t -> Unix.file_descr -> unit
(** Adopt an already-connected socket as a client connection — tests
    drive the loop over [Unix.socketpair] ends, no listener needed.
    Must be called from the domain that steps this server; from any
    other domain use {!hand_off}. *)

val hand_off : t -> Unix.file_descr -> unit
(** Hand an already-connected socket to this server from {e another}
    domain: the fd is queued under a lock and adopted at the top of the
    server's next {!step} (a wake pipe interrupts its [select], so the
    hand-off does not wait out the select timeout).  Ownership of the
    fd transfers unconditionally — if the server has already shut down,
    the fd is closed.  This is the dispatcher half of sharded
    listening: one shard accepts, siblings serve. *)

val set_siblings : t -> t list -> unit
(** Tell this shard about every shard of its server (self included).
    [qDuelStats]/{!stats_wire}/{!stats_to_lines} then report the merged
    whole-server numbers, and {!shutdown} wakes every sibling so a
    drain starts immediately.  Standalone servers (the default empty
    list) report themselves only. *)

val view : t -> view
val merge_stats : stats -> stats -> stats
(** Counter-wise sum into a fresh record (inputs unchanged), histograms
    merged via {!Histogram.merge}.  [peak_active] sums — per-shard
    peaks need not be simultaneous, so the result is an upper bound. *)

val merge_views : view -> view -> view
val merged_view : t -> view
(** This shard's view merged with every sibling's (see
    {!set_siblings}); equals [view t] when standalone. *)

val step : t -> float -> bool
(** One event-loop iteration: select (waiting at most the given
    seconds), accept, read, dispatch, write, reap.  Returns [false]
    once a {!shutdown} has fully drained; a driver loop is
    [while step t 0.2 do () done]. *)

val run : t -> unit
(** [step] until shut down. *)

val shutdown : t -> unit
(** Graceful shutdown: stop accepting, drain every queued reply, close
    all connections and listeners.  Takes effect over the following
    [step]s; idempotent. *)

val stats : t -> stats
val active : t -> int

val stats_wire : t -> string
(** The [qDuelStats] reply: [key=value] pairs joined by [;], including
    the histogram's [count]/[p50us]/[p90us]/[p99us]. *)

val stats_to_lines : t -> string list
(** Human-readable counters (the REPL's [info server]). *)
