(** A client-side target-memory data cache over the narrow {!Dbgi}
    interface — the layering gdb's dcache puts over the remote protocol.

    The evaluator issues one interface access per scalar it touches, so a
    deep traversal costs thousands of round-trips; over a packet
    transport each one is a full exchange.  [wrap] interposes a
    line-granular read cache (64-byte lines by default, LRU-bounded) with
    write coalescing: reads round up to line fills, writes update cached
    lines in place and are buffered, adjacent stores merging into single
    backend writes released at the next flush point.

    {2 Semantics preserved}

    {ul
    {- Faults: a read whose enclosing line cannot be filled falls back to
       an exact-range backend access (a block fill that faults first
       falls back to the one-line fill), so {!Dbgi.Target_fault} carries
       exactly the [{addr; len}] the uncached interface would have
       reported, and reads that merely {e straddle} a mapping edge still
       succeed.}
    {- Zero-length accesses never touch cache or backend.}
    {- [alloc_space] and [call_func] flush buffered writes first (the
       target must see them) and invalidate every line after (target code
       can mutate anything).}
    {- A {!Dbgi.Target_transient} from the backend (a flaky transport, an
       injected chaos fault) marks the cache stale and re-raises: buffered
       writes stay buffered (flushing retries the whole idempotent batch
       at the next flush point), no half-completed operation is trusted,
       and the caller's retry policy or the session's resumable error
       takes over.  Transients are never converted into "address
       unreadable".}}

    {2 Coherency contract}

    A cache cannot see stores that bypass it.  Who tells it is the
    {!stale_policy}:

    {ul
    {- [Probe f] — in-process backends.  [f] snoops
       {!Duel_mem.Memory.generation}: any direct mutation (the mini-C
       interpreter executing, a test poking memory) is detected on the
       next cached operation and drops all lines.  Nothing else is
       required of the owner.}
    {- [Explicit] — probe-less operation, the genuinely remote
       configuration: there is no counter to poll across the wire.  The
       {e owner} of the interface must call {!mark_stale} (lazy: lines
       drop on the next cached operation) or {!invalidate} (eager) at
       every point where the target may have changed underneath it —
       after the target resumes or stops, when the active frame count
       reported by the transport changes, and after any server-side
       evaluation ([qDuelEval]) that can write target memory.
       [Duel_serve.Client] does exactly this on [qDuelFrames] deltas and
       after every remote eval.}}

    Under either policy, [alloc_space] and [call_func] still flush and
    invalidate around themselves, and buffered writes are {e ours} — a
    staleness event flushes them to the backend before dropping lines,
    never discards them. *)

(** How the cache learns about stores that bypassed it. *)
type stale_policy =
  | Probe of (unit -> int)
      (** snoop a write-generation counter (in-process backends) *)
  | Explicit
      (** no probe: the owner calls {!mark_stale}/{!invalidate} at stop
          boundaries (remote transports) *)

type config = {
  line_size : int;  (** bytes per line; a positive power of two *)
  max_lines : int;  (** LRU bound on resident lines *)
  max_pending : int;
      (** buffered write bytes before an automatic flush *)
  stale_policy : stale_policy;
}

val default_config : config
(** 64-byte lines, 256 lines (16 KiB), 4 KiB write buffer, [Explicit]
    staleness (no probe). *)

type stats = {
  mutable hits : int;  (** read requests served entirely from cache *)
  mutable misses : int;  (** read requests needing at least one fill *)
  mutable fills : int;  (** demand line fills issued *)
  mutable bytes_read : int;  (** bytes returned to clients *)
  mutable bytes_written : int;  (** bytes accepted from clients *)
  mutable invalidations : int;  (** whole-cache drops *)
  mutable backend_reads : int;
  mutable backend_writes : int;
  mutable backend_other : int;  (** [alloc_space] + [call_func] *)
}

val round_trips : stats -> int
(** Total backend round-trips: reads + writes + calls/allocs. *)

val wrap : ?config:config -> Dbgi.t -> Dbgi.t
(** [wrap dbg] is a [Dbgi.t] with identical observable semantics whose
    memory traffic goes through the cache.  Also registers a
    {!Dbgi.register_probe} so [Dbgi.readable] answers from cached lines
    without a backend round-trip.
    @raise Invalid_argument on a non-power-of-two line size. *)

val is_cached : Dbgi.t -> bool
(** Whether [dbg] was produced by {!wrap} (physical identity). *)

val coherence_probe : Dbgi.t -> (unit -> int) option
(** The write-generation probe the cache behind [dbg] was configured
    with ([Some f] iff its policy is [Probe f]) — clients that keep
    derived state (e.g. the evaluator's name-resolution cache) can snoop
    the same generation counter. *)

val stats : Dbgi.t -> stats option
(** Live counters of the cache behind [dbg], if any. *)

val cached_lines : Dbgi.t -> int
(** Currently resident lines ([0] for an unwrapped interface). *)

val flush : Dbgi.t -> unit
(** Release buffered writes to the backend, coalesced and in ascending
    address order.  No-op on an unwrapped interface.  {!Duel_core}'s
    session calls this at the end of every command, so external observers
    (tests, the inferior's own code) see memory consistent between
    commands. *)

val flush_all : unit -> unit
(** [flush] every cache {!wrap} produced and no {!release} has dropped —
    a shutdown or checkpoint barrier when the caller has interfaces
    rather than the caches behind them. *)

val release : Dbgi.t -> unit
(** [flush], then forget the cache behind [dbg]: {!is_cached}, {!stats}
    and the readability probe no longer find it, so a closed stack is
    not kept alive.  The flush's exception, if any, propagates after the
    cache is forgotten.  No-op if unwrapped. *)

val invalidate : Dbgi.t -> unit
(** [flush] then drop every cached line.  Required after the target
    resumes on a probeless (remote) transport.  No-op if unwrapped. *)

val mark_stale : Dbgi.t -> unit
(** Lazy {!invalidate}: record that target memory may have changed, and
    flush-then-drop on the {e next} cached operation.  This is the
    [Explicit]-policy owner's cheap stop-boundary hook — marking twice
    between operations costs one invalidation.  No-op if unwrapped. *)

val reset_stats : Dbgi.t -> unit

val to_lines : stats -> string list
(** Human-readable counter summary (for [info cache] and friends). *)

(** {2 Read-ahead}

    Over a wire every miss is a round trip, and a synchronous
    speculative read of its own can at best break even.  So read-ahead
    rides on the demand miss: with it on, a fill on a {!Dbgi.Loopback}
    or {!Dbgi.Socket} backend reads the whole 4 KiB-aligned block around
    the missing line (at most a quarter of the cache) in the one
    [get_bytes] the miss pays anyway.  The line is installed as a demand
    line, the block's other non-resident lines as {e speculative} ones.
    An access spanning more blocks than the cache holds at once fills
    one line at a time, so no fill evicts a line the access still
    needs.  [Direct] and [Synthetic] backends keep one-line fills: they
    have no round trip to amortise.

    A speculative line is byte-identical to a demand fill; only the
    accounting differs.  Its first demand touch resolves it {e useful},
    dropping it untouched (eviction, invalidation) resolves it {e
    wasted}, so for any quiesced cache [useful + wasted = issued].
    Resident lines are never replaced, so buffered writes (which always
    live in cached lines) cannot be clobbered. *)

type spec_stats = {
  mutable issued : int;  (** speculative lines installed *)
  mutable useful : int;  (** resolved by a demand touch *)
  mutable wasted : int;  (** dropped still-speculative *)
  mutable blocks : int;  (** block fills read *)
}

val set_readahead : Dbgi.t -> bool -> bool
(** Turn block fills on or off ([false] if [dbg] is unwrapped).  The
    first call attaches the ledger; turning read-ahead off keeps it
    resolving lines already issued, so it still balances. *)

val readahead : Dbgi.t -> bool
(** Whether block fills are on ([false] when unwrapped). *)

val spec_stats : Dbgi.t -> spec_stats option
(** The read-ahead ledger, once {!set_readahead} attached it. *)
