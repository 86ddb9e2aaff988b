(** The sharded serve stack: N {!Server} event loops, one OCaml 5
    domain each, over one shared fleet of targets.

    {2 Threading model}

    Shard-local (touched only by the owning domain): the select loop,
    connections and their sessions, the RSP stubs, stats and the latency
    histogram, and a private {!Duel_dbgi.Dcache} per target.  Shared:
    the fleet — raw access to each target serialized per-operation by
    that target's lock ({!Duel_fleet.Fleet.shard_dbgi}), with each
    shard's dcache kept coherent by the target's write-generation
    probe; the
    {!Plan_cache} (internally mutex-guarded), so a query compiled by
    one shard hits on all; and the stop flag, so [qDuelShutdown] at any
    shard gracefully drains every shard.  [qDuelStats] answered by any
    shard reports the merged whole-server counters and histogram.

    {2 Listeners}

    {!listen_tcp} with more than one shard binds one [SO_REUSEPORT]
    listener per shard — the kernel balances accepts, no hand-off on
    the hot path.  {!listen_unix} (which cannot share a bind) runs a
    dispatcher domain that accepts and hands each fd to the next shard
    round-robin via {!Server.hand_off}.

    With [shards = 1] no domain is spawned and the loop runs on the
    calling domain ({!run}); the target locks are then uncontended. *)

type t

val create : ?config:Server.config -> shards:int -> Duel_fleet.Fleet.t -> t
(** [create ~shards:n fleet] builds [n] shard servers, each hosting the
    same targets (see {!Server} {e Fleet hosting}): the fleet object —
    locks, generations, counters — is shared, while each shard builds
    its own per-target data caches and compile contexts.  A single
    target is {!Duel_fleet.Fleet.of_inferior}.
    @raise Invalid_argument if [n < 1]. *)

val shard_count : t -> int
val shards : t -> Server.t list

val listen_tcp : t -> host:string -> port:int -> int
(** Bind every shard to the same address ([SO_REUSEPORT] when sharded);
    returns the actual port (useful with [port = 0]). *)

val listen_unix : t -> string -> unit
(** Unix-domain listening: served directly by the single shard, or by a
    dispatcher domain (started with {!start}/{!run}) when sharded. *)

val inject : t -> Unix.file_descr -> unit
(** Hand a connected socket to the next shard round-robin (safe from
    any domain; queued until the shard's next step). *)

val start : t -> unit
(** Spawn every shard loop (and any unix-socket dispatcher) in a
    background domain and return; the caller's domain is free to drive
    clients.  Pair with {!join}. *)

val join : t -> unit
(** Wait for every spawned domain to finish (they finish after
    {!shutdown} has drained).  An uncaught exception in a shard
    re-raises here. *)

val run : t -> unit
(** The CLI shape: shard 0 runs on the calling domain, siblings and
    dispatchers in spawned domains; returns once a {!shutdown} has
    fully drained.  With one shard and a TCP listener this is exactly
    [Server.run] — no domain is spawned. *)

val shutdown : t -> unit
(** Raise the shared stop flag and wake every shard: stop accepting,
    drain every queued reply on every shard, close.  Idempotent; safe
    from any domain and from a signal handler. *)

val active : t -> int
(** Live connections summed over shards (a racy snapshot when called
    while running). *)

val merged_view : t -> Server.view
val stats_wire : t -> string
val stats_to_lines : t -> string list
