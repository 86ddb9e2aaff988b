(** A [Dbgi.t] fronting N replica backends of the {e same} target.

    The dispatcher turns the fault-injection layer's failure modes into an
    availability story: reads (idempotent by the interface contract) fail
    over between replicas, writes go to a primary and are replicated with
    a journal that pins reads of still-dirty ranges, and non-idempotent
    operations (alloc, call) run in lockstep on every replica so the twins
    stay bit-identical — a replica that cannot keep up is marked desynced
    and dropped rather than allowed to serve divergent bytes.

    Health is scored per replica: an EWMA of operation latency plus a
    consecutive-failure count.  [trip_after] consecutive transport faults
    trip the replica (no traffic) for [half_open_after] seconds, after
    which it is half-open: the next read doubles as a recovery probe.
    Only {e transport-class} faults ([Target_transient], [Unix_error],
    whatever [is_transport_fault] admits) score against a replica —
    [Target_fault] and query errors are authoritative answers about the
    target and propagate unchanged, never triggering failover.

    Every operation runs on the caller's thread and tries replicas one
    after another; a replica that hangs is bounded by its own transport
    timeout. *)

type policy = {
  trip_after : int;  (** consecutive transport faults before tripping *)
  half_open_after : float;  (** seconds a tripped replica cools down *)
  ewma_alpha : float;  (** weight of the newest latency sample *)
  journal_limit : int;
      (** pending replicated writes per replica before it is desynced *)
  is_transport_fault : exn -> bool;
      (** which exceptions score health / allow failover; everything else
          is an authoritative answer and propagates *)
}

val default_policy : policy
(** Trip after 3, half-open after 50 ms, alpha 0.2, journal limit 256, transport = [Target_transient] or
    [Unix.Unix_error]. *)

type counters = {
  mutable reads : int;
  mutable writes : int;
  mutable failovers : int;  (** an op succeeded only on a later replica *)
  mutable trips : int;
  mutable probes : int;  (** half-open recovery attempts *)
  mutable recoveries : int;  (** probes that closed the breaker again *)
  mutable pinned_reads : int;
      (** reads steered away from a replica with dirty ranges *)
  mutable repairs : int;  (** journalled writes applied late *)
  mutable desyncs : int;  (** replicas dropped for divergence *)
}

type t

val create :
  ?policy:policy ->
  ?labels:string list ->
  ?clock:(unit -> float) ->
  Dbgi.t list ->
  t
(** [create replicas]: the first replica is the primary — its debug info
    (abi, tenv, symbols) answers static queries, and writes prefer it.
    [clock] (seconds; default [Unix.gettimeofday]) times every latency
    sample and breaker cooldown, so a test can set the latencies that
    routing depends on.
    @raise Invalid_argument on an empty replica list. *)

val dbgi : t -> Dbgi.t
(** The dispatcher as an ordinary backend.  Its [health] aggregates the
    replicas; its [caps] carry the ["dispatch"] layer. *)

val counters : t -> counters

val replica_health : t -> (string * Dbgi.health) list
(** Per-replica label and live condition, in replica order. *)

val report : t -> string list
(** Human-readable routing state: one line per replica plus totals. *)
