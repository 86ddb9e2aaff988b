(** Read-ahead over the {!Dcache}: the switch and the ledger.

    With read-ahead on, a demand miss on a wire backend ({!Dbgi.Loopback}
    or {!Dbgi.Socket}) fills the whole 4 KiB-aligned block around its
    line in the same round trip, so a cold traversal of nearby nodes
    stops paying one round trip per line.  In-process backends keep
    one-line fills.  See {!Dcache.set_readahead} for the policy.

    {2 Harmlessness}

    Read-ahead corrupts nothing, and adds a round trip in one case
    only: it adds bytes to reads that were being paid for anyway;
    speculative lines never replace resident lines (buffered writes
    always live in resident lines, so they cannot be clobbered);
    coherence invalidations drop them with everything else; and a block
    read that faults falls back to the one-line fill, so a demand fault
    keeps its exact [{addr; len}].  That fallback is the one extra round
    trip: a demand read in an unmapped page (a dangling pointer probed
    by [-->]) costs two reads where a plain cache pays one.

    {2 Accounting}

    Every speculative line resolves exactly once: [useful] on its first
    demand touch, [wasted] when dropped still-speculative.  After the
    cache quiesces (e.g. an invalidate), [useful + wasted = issued]. *)

type stats = Dcache.spec_stats = {
  mutable issued : int;  (** speculative lines installed *)
  mutable useful : int;  (** resolved by a demand touch *)
  mutable wasted : int;  (** dropped still-speculative *)
  mutable blocks : int;  (** block fills read *)
}

val attach : Dbgi.t -> bool
(** Turn read-ahead on for a {!Dcache.wrap}ped interface ([false] if
    [dbg] has no cache behind it).  Idempotent: an attached interface
    keeps its ledger and its switch. *)

val is_attached : Dbgi.t -> bool

val enabled : Dbgi.t -> bool
(** Whether block fills are on ([false] when nothing is attached). *)

val set_enabled : Dbgi.t -> bool -> bool
(** Turn block fills on or off ([false] if nothing is attached).  Off
    means one-line fills; lines already issued keep resolving, so the
    ledger still balances. *)

val stats : Dbgi.t -> stats option

val to_lines : ?on:bool -> stats -> string list
(** Human-readable counter block for [info prefetch]. *)
