(** Semantic helpers shared by the two evaluation engines: type
    resolution, lowered name resolution (the slot inline cache),
    [with]-scope construction, [-->] node validity, target function
    calls, and reductions' accumulation. *)

module Ctype = Duel_ctype.Ctype

val resolve_type :
  Env.t -> eval_int:(Ir.expr -> int64) -> Ir.type_expr -> Ctype.t
(** Resolve type syntax against the target's type environment; array
    dimensions are evaluated with [eval_int] (first value).  [Tready]
    types (pre-resolved by {!Lower}) return immediately.
    @raise Error.Duel_error on unknown tags/typedefs or bad specifiers. *)

val name_value : Env.t -> Ir.name -> Value.t
(** Resolve a lowered name through its slot: a valid slot answers without
    touching the resolution chain (member slots rebuild the value from
    the innermost scope's live subject); an invalid or empty slot runs
    the full chain and re-caches.  [Sdynamic] slots always run the full
    chain.  Updates {!Env.lstats}.
    @raise Error.Duel_error on undefined names. *)

val single : Env.t -> Ir.expr -> Value.t
(** Direct evaluation of an {!Ir.pure_single} operand (literal, name,
    [_], possibly parenthesized) — the engines' singleton fast path. *)

val with_scope : Env.t -> Ast.with_kind -> Value.t -> Env.scope
(** Scope for [e1.e2] / [e1->e2]: [_] is e1's value; members resolve to
    fields when the subject is a struct/union (directly or through a
    pointer).  @raise Error.Duel_error if [->] is applied to a
    non-pointer. *)

val node_scope : Env.t -> Value.t -> Env.scope
(** Scope used while expanding a [-->] node: like [->] for pointer nodes,
    like [.] for aggregate lvalues, fields-free otherwise. *)

val frame_scope : Env.t -> int -> Env.scope
(** Scope over the locals of active frame [i] (the [frame(i)] extension).
    @raise Error.Duel_error if no such frame. *)

val frame_count : Env.t -> int

val traversal_child_ok : Env.t -> Value.t -> Value.t option
(** Validity test for [-->] candidates: fetches; non-null readable
    pointers and non-zero scalars survive (returned fetched), everything
    else terminates that branch ([None]). *)

val call_function : Env.t -> string option -> Value.t list -> Value.t
(** Call a target function by name (the lowered callee; [None] — a
    non-name callee — is an error) with already evaluated arguments
    (converted per the function's prototype).  Bumps {!Env.bump_ext}:
    the target may have changed frames or memory. *)

val sum_step : Env.t -> (int64, float) Either.t -> Value.t -> (int64, float) Either.t
(** Accumulate one value into a [+/] sum (switches to float on the first
    floating value). *)

val sum_result : Env.t -> sym:Symbolic.t -> (int64, float) Either.t -> Value.t
