(** The network client for {!Server}.

    Owns one non-blocking socket, the client half of the ACK/NAK
    discipline (skip server ACKs, retransmit on NAK, NAK damaged
    replies), and an incremental deframer, so split and coalesced reads
    are invisible above {!exchange}.

    Two levels of service:

    {ul
    {- {!rpc} — one RSP payload each way, for the classic
       one-round-trip-per-access packets.  {!dbgi} builds a full
       {!Duel_dbgi.Dbgi.t} over it via {!Duel_rsp.Client.connect},
       following the gdb model: symbols and types come from {e local}
       debug information (the scenario builders are deterministic, so a
       locally built twin of the served scenario has identical
       addresses), while memory, allocation and calls go over the wire.}
    {- {!eval} — ship a whole DUEL query to the server and stream the
       formatted result lines back; one round-trip per {e query}.
       {!eval_send}/{!eval_recv} split the halves so several clients
       can keep evals in flight concurrently (the pipelined
       benchmark).}}

    {2 Failure policy}

    Every wait has a deadline: a dead, wedged or lossy server produces a
    typed {!Error}, never a hang.  A reply missing after
    [retry_policy.reply_timeout] is retried with exponential backoff and
    jitter — but only when a resend cannot execute twice.  Memory
    reads/writes and pure queries are idempotent and resend as-is;
    evaluation goes over the wire as [qDuelEvalSeq:<seq>,<budget>;expr],
    which the server deduplicates by sequence number (a resend replays
    the stored reply without re-running the command) — the [budget] is
    the client's remaining deadline, so the server fails a request typed
    when nobody is waiting for the answer any more.  Allocation and
    target calls are not resendable; their timeout is a clean failure.

    {2 Cache coherence}

    A {!dbgi} built with [~cache:true] (the default) is wrapped in
    {!Duel_dbgi.Dcache} under the [Explicit] stale policy — there is no
    generation counter to snoop across the wire.  The client honours
    the owner's side of that contract: every completed {!eval} marks
    all caches built from this connection stale (a server-side eval can
    write target memory), and the wrapped interface's [frames] probes
    the wire's [qDuelFrames] count, marking the cache stale whenever it
    changes. *)

(** {2 Typed failures}

    Everything this client raises about the {e conversation} is an
    {!Error}, never a raw [Failure]: a health scorer (the
    {!Duel_dbgi.Dispatcher}) must trip a replica on transport faults
    only, and a string cannot carry that distinction.  {!is_transport}
    draws the line: [Remote] means the server executed the request and
    reported a failure — an authoritative answer, not a reason to fail
    over. *)

type failure =
  | Connect of string  (** establishing the connection failed *)
  | Closed of string  (** the peer is gone: EOF, reset, broken pipe *)
  | Timeout of string  (** a deadline expired, retries included *)
  | Protocol of string
      (** persistent NAKs or frames that defy the protocol *)
  | Remote of string
      (** the server executed the request and reported failure *)
  | Unknown_target of string
      (** {!use_target} named an id the server's fleet does not have —
          authoritative like [Remote] (the server answered [E03]), but
          typed so callers can fall back to the roster instead of
          parsing message text *)

exception Error of failure

val failure_message : failure -> string

val is_transport : failure -> bool
(** [true] for everything except [Remote] and [Unknown_target] — the
    faults that indicate the {e replica} (not the query) is
    unhealthy. *)

type retry_policy = {
  attempts : int;  (** total send attempts per request, including the first *)
  reply_timeout : float;  (** seconds to wait for a reply per attempt *)
  base_backoff : float;  (** seconds before the first resend *)
  max_backoff : float;  (** cap on the exponential growth *)
  jitter : float;  (** fraction of each delay randomised away, [0..1] *)
}

val default_retry : retry_policy
(** 8 attempts, 2 s reply timeout, 20 ms base backoff doubling to a
    500 ms cap, 0.5 jitter. *)

type counters = {
  mutable resends : int;  (** requests retransmitted after a reply timeout *)
  mutable timeouts : int;  (** reply waits that expired *)
  mutable naks_sent : int;  (** damaged reply frames we NAKed *)
  mutable naks_seen : int;  (** server NAKs of our (damaged) requests *)
  mutable dup_frames : int;  (** stale or duplicate reply frames discarded *)
}

type t

val connect :
  ?pump:(unit -> unit) -> ?timeout:float -> ?retry:retry_policy -> string -> t
(** [connect addr] opens ["unix:PATH"] or ["HOST:PORT"] (bare ["PORT"]
    means loopback).  [pump] is called instead of blocking in [select]
    whenever a read or write would block — the cooperative driver for a
    server living in the same process (tests, benchmarks) is
    [~pump:(fun () -> ignore (Server.step srv 0.01))]; deadlines apply
    in pump mode too, so a shut-down in-process server cannot wedge the
    client.  [timeout] (default 30 s) bounds each whole operation;
    [retry] governs per-reply waits and resends.
    @raise Error ([Connect _]) on a refused connection or malformed
    address. *)

val of_fd :
  ?pump:(unit -> unit) ->
  ?timeout:float ->
  ?retry:retry_policy ->
  Unix.file_descr ->
  t
(** Adopt an already-connected socket (one end of a [socketpair] whose
    other end was {!Server.inject}ed).  Sets it non-blocking. *)

val counters : t -> counters
(** This connection's client-side retry/recovery counters. *)

val close : t -> unit

val parse_addr : string -> Unix.sockaddr
(** The address syntax of {!connect}, exposed for the CLI. *)

val exchange : t -> string -> string
(** One framed packet out, one framed reply back — the shape
    {!Duel_rsp.Client.connect} wants.  Retransmits on server NAK, NAKs
    damaged replies so the server retransmits, and resends idempotent
    requests whose reply timed out (with backoff; see the failure
    policy above).
    @raise Error on deadline ([Timeout]), EOF ([Closed]), or persistent
    rejection ([Protocol]). *)

val rpc : t -> string -> string
(** {!exchange} at the payload level: the reply frame's payload, as the
    deframer delivered it. *)

val recv_reply : t -> string
(** Await one reply payload without sending anything — for requests
    written out of band (pipelining tests and benchmarks). *)

val eval : t -> string -> string list
(** [eval t expr] runs [expr] server-side in this connection's session
    and returns the formatted output lines.  Marks this connection's
    caches stale (see the coherence contract above).
    @raise Error — [Remote] if the server reports an evaluation error,
    transport-class otherwise. *)

val eval_send : t -> string -> unit
(** Fire the eval request ([qDuelEvalSeq]) without waiting — pair with
    {!eval_recv}.  At most one eval may be in flight per connection. *)

val eval_recv : t -> string list
(** Collect the streamed reply of the pending {!eval_send}: data chunks
    are de-duplicated by index, stale frames from earlier exchanges are
    discarded, and a missing or partly damaged reply is re-requested by
    sequence number (the server replays the stored reply without
    re-executing).  Damaged frames {e within} the stream are not NAKed
    — a NAK retransmits the whole stored multi-frame reply, which
    snowballs on long streams; the terminal frame's line count reveals
    what is missing and the seq re-request fetches it precisely.  The
    overall deadline set at {!eval_send} bounds everything.
    @raise Error on deadline or a typed server failure — never a hang,
    even if the server dies mid-reply. *)

val use_target : t -> string -> unit
(** Bind this connection to fleet target [id] ([qDuelUse:<id>]): later
    evals and wire accesses aim at that target, in a fresh server-side
    session.  Marks this connection's caches stale — everything cached
    so far came from the previous target.
    @raise Error — [Unknown_target id] if the server answers [E03] (it
    has no such target), transport-class otherwise. *)

val targets : t -> (string * string) list
(** The server's fleet roster ([qDuelTargets]) as [(id, spec)] pairs.  A
    single-target server lists its one target as [main]; an empty reply
    parses as the empty roster. *)

val eval_all :
  t -> string list -> string -> (string * (string list, string) result) list
(** [eval_all t ids expr] evaluates [expr] across fleet targets in one
    round-trip ([qDuelEvalAll]); [ids = []] means every target.  Per
    target: [Ok lines] (which may themselves report an evaluation error
    — a dead target's transient fault arrives as its output, exactly as
    a single-target eval would) or [Error msg] for a leg that failed
    outright (unknown id, escaped server-side exception).  Legs arrive
    in server order; the terminal frame's leg count is verified, so a
    truncated reply fails typed instead of passing for a short fleet.
    Not resend-safe: there is no replay window for fan-outs, so a lost
    reply surfaces as [Timeout] and the retry decision is the
    caller's.  Marks this connection's caches stale.
    @raise Error on deadline, transport failure, or a server that
    refuses the verb with [E03] ([Remote]). *)

val server_stats : t -> (string * int) list
(** The server's [qDuelStats] counters, parsed — including the
    per-target [tgt.<id>.<counter>] keys. *)

val frame_count : t -> int
(** The wire's [qDuelFrames] — the active-frame count on the server. *)

val shutdown_server : t -> unit
(** Ask the server to shut down gracefully ([qDuelShutdown]). *)

val dbgi :
  ?cache:bool ->
  ?prefetch:bool ->
  t ->
  Duel_rsp.Client.debug_info ->
  Duel_dbgi.Dbgi.t
(** The network debugger interface over this connection (see the module
    preamble).  [~cache:false] gives the raw one-round-trip-per-access
    client with no coherence obligations; [~prefetch:false] keeps the
    cache but fills one line per miss instead of its page block. *)
