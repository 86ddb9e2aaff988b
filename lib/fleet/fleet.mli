(** The target fleet: N named debuggees behind one serving instance.

    Relative debugging (DUCT, mdb — PAPERS.md) wants the same query
    evaluated against several executions and the streams compared; the
    fleet is the registry that makes "several executions" addressable.
    A fleet is built once from a spec like

    {[ fleet(good=deep_list:40,bad=deep_list_buggy:40,x=dead:all) ]}

    and shared by every serve shard.  Each target carries its own lock
    (raw access serialized across shards), its own write-generation
    (per-target cache coherence — a store into one target never
    invalidates a sibling's caches), and its own atomic counters
    (surfaced by [qDuelStats] as [tgt.<id>.*]).

    The module is deliberately below the serve layer: it depends only
    on the target simulator and scenarios, so clients (the {!Diff}
    consumer side) and servers share one vocabulary of target ids. *)

(** {1 Scenario grammar}

    The canonical name → debuggee mapping, shared by backend specs
    ([direct://…#name]) and fleet slots. *)

val scenario_grammar : string
(** Human-readable list of accepted scenario names (for error text and
    [--help]). *)

val scenario_of_name : string -> (Duel_target.Inferior.t, string) result
(** [scenario_of_name "deep_list:40"] builds a fresh debuggee.
    Accepts: [all] (or empty), [symtab], [faulty], [big:N],
    [deep_list:N], [deep_tree:N], and the seeded-buggy twins
    [deep_list_buggy:N], [deep_list_swapped:N], [deep_tree_buggy:N]. *)

(** {1 Targets} *)

(** Per-target observable counters (process-global, atomically
    maintained across shards). *)
type tstats = {
  binds : int Atomic.t;  (** [qDuelUse] bindings onto this target *)
  evals : int Atomic.t;  (** queries evaluated against it *)
  values : int Atomic.t;  (** result lines those queries streamed *)
  errors : int Atomic.t;  (** evals whose output reported an error *)
}

type target = private {
  id : string;
  spec : string;  (** the slot spec as written, e.g. ["dead:all"] *)
  inf : Duel_target.Inferior.t;
  dead : bool;  (** [dead:] slots fault every wire-class operation *)
  lock : Mutex.t;  (** serializes raw target access across shards *)
  wrap : Duel_dbgi.Dbgi.t -> Duel_dbgi.Dbgi.t;
      (** extra decoration under the cache (chaos rigs); identity by
          default *)
  tstats : tstats;
}

type t

val create :
  ?wrap:(string -> Duel_dbgi.Dbgi.t -> Duel_dbgi.Dbgi.t) ->
  (string * string) list ->
  (t, string) result
(** [create [(id, spec); …]] builds the fleet.  Each [spec] is a
    scenario name, optionally prefixed [dead:].  Ids must be unique and
    drawn from letters, digits, ['_'], ['-'], ['.'] (they travel inside
    wire frames).  [wrap id] decorates target [id]'s serialized raw
    access — the chaos soak injects faults here. *)

val of_inferior : spec:string -> Duel_target.Inferior.t -> t
(** A one-member fleet over a debuggee that already exists: its one
    target has id ["main"], and [spec] names it in the roster (the
    scenario it was built from).  This is how a server holds a single
    target. *)

val parse : string -> ((string * string) list, string) result
(** Split a [fleet(id=spec,…)] string into slots (no debuggees built). *)

val of_string :
  ?wrap:(string -> Duel_dbgi.Dbgi.t -> Duel_dbgi.Dbgi.t) ->
  string ->
  (t, string) result
(** [parse] then [create]. *)

val is_fleet_spec : string -> bool
(** Does the string look like [fleet(…)]? — the serve CLI uses this to
    pick between a single scenario and a fleet. *)

val find : t -> string -> target option
val targets : t -> target list
val ids : t -> string list
val size : t -> int

val describe : t -> string
(** ["good=deep_list:40,bad=dead:all"] — the [qDuelTargets] reply and
    the canonical spelling of the fleet. *)

val generation : target -> int
(** The target's write-generation (its memory's store counter) — the
    coherence stamp for per-target data and plan caches. *)

val generation_sum : t -> int
(** Sum of all member generations: monotone under any single store, the
    coherence stamp for fleet-wide artifacts. *)

val note_bind : target -> unit
val note_eval : target -> values:int -> error:bool -> unit

val dead_of : Duel_target.Inferior.t -> Duel_dbgi.Dbgi.t
(** Local debug information over a dead live target: every wire-class
    operation raises {!Duel_dbgi.Dbgi.Target_transient}, while
    zero-length operations and static queries still succeed.  Backs
    [dead:] fleet slots and the [dead:] backend spec. *)

val shard_dbgi : ?cache:bool -> target -> Duel_dbgi.Dbgi.t
(** One shard's access interface to one target: direct (or dead) raw
    access serialized by the target's lock, decorated by its [wrap],
    fronted (unless [~cache:false]) by a {e shard-local} data cache
    whose staleness probe snoops this target's generation — so stores
    through any shard retire sibling caches for this target only. *)
