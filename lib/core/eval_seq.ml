module Ctype = Duel_ctype.Ctype
module Layout = Duel_ctype.Layout
module Dbgi = Duel_dbgi.Dbgi

let no_sym = Symbolic.atom "?"
let sym_on env = env.Env.flags.Env.symbolic

(* Defer all effects into the first pull, so that re-forcing a sequence
   re-evaluates the node from scratch (the paper's state-reset behaviour)
   and so that name lookups see aliases defined by earlier pulls. *)
let delay (f : unit -> Value.t Seq.t) : Value.t Seq.t = fun () -> f () ()

(* Push a scope, keep it for the whole inner sequence, pop it when the
   inner sequence is exhausted (the paper's with). *)
let scoped env scope (inner : unit -> Value.t Seq.t) : Value.t Seq.t =
 fun () ->
  Env.push_scope env scope;
  let rec wrap s () =
    match s () with
    | Seq.Nil ->
        Env.pop_scope env;
        Seq.Nil
    | Seq.Cons (x, tl) -> Seq.Cons (x, wrap tl)
  in
  wrap (inner ()) ()

let int_seq env lo hi : Value.t Seq.t =
  let mk i =
    let sym =
      if sym_on env then Symbolic.atom (Int64.to_string i) else no_sym
    in
    Value.int_value ~sym Ctype.int i
  in
  Seq.unfold
    (fun i -> if Int64.compare i hi > 0 then None else Some (mk i, Int64.add i 1L))
    lo

(* Evaluate a sequence under the scope stack captured at creation time,
   isolated from scopes pushed by sibling subexpressions.  Used for the
   right side of assignments: in [q->scope = scope] the left side's
   with-scope must not capture the right side's [scope] (C semantics).
   Also for the condition of [if] and [?:]: the with-scope of
   [left->key] in [if (left->key == 3) left] stays open until the
   condition's sequence ends, and must not capture the branch's [left]. *)
let isolated env (seq : Value.t Seq.t) : Value.t Seq.t =
  let snapshot = ref (Env.stack env) in
  let rec wrap s () =
    let outer = Env.stack env in
    Env.set_stack env !snapshot;
    let result = s () in
    snapshot := Env.stack env;
    Env.set_stack env outer;
    match result with
    | Seq.Nil -> Seq.Nil
    | Seq.Cons (x, tl) -> Seq.Cons (x, wrap tl)
  in
  wrap seq

(* The open range [lo..] is the one generator with no bound of its own,
   so it answers to [expansion_limit] the way runaway loops do: after
   producing [limit] values the next pull reports the limit instead of
   spinning forever.  A fully-consumed bare [1..] must come back as an
   error, never hang the session. *)
let int_seq_from env lo : Value.t Seq.t =
  let mk i =
    let sym =
      if sym_on env then Symbolic.atom (Int64.to_string i) else no_sym
    in
    Value.int_value ~sym Ctype.int i
  in
  Seq.unfold
    (fun i ->
      let limit = env.Env.flags.Env.expansion_limit in
      if limit > 0 && Int64.sub i lo >= Int64.of_int limit then
        Error.failf "open range exceeded %d values (runaway generator?)"
          limit
      else Some (mk i, Int64.add i 1L))
    lo

let rec eval env (e : Ir.expr) : Value.t Seq.t =
  match e with
  | Ir.Lit l -> fun () -> Seq.Cons (l.Ir.l_value, Seq.empty)
  | Ir.Name nm ->
      fun () -> Seq.Cons (Semantics.name_value env nm, Seq.empty)
  | Ir.Underscore ->
      fun () -> Seq.Cons ((Env.current_scope env).Env.sc_value, Seq.empty)
  | Ir.Group inner -> eval env inner
  | Ir.Braces inner ->
      Seq.map
        (fun v ->
          if sym_on env then
            Value.with_sym v (Symbolic.atom (Printer.scalar_literal env v))
          else v)
        (eval env inner)
  | Ir.Unary (op, a) -> Seq.map (Ops.unary env op) (eval env a)
  | Ir.Incdec (op, a) -> Seq.map (Ops.incdec env op) (eval env a)
  | Ir.Binary (op, a, b) -> cross env a b (Ops.binary env op)
  | Ir.Logand (a, b) ->
      Seq.concat_map
        (fun u ->
          if Value.truth env.Env.dbg u then
            Seq.map
              (fun v ->
                if sym_on env then
                  Value.with_sym v
                    (Symbolic.binary Symbolic.prec_logand " && " u.Value.sym
                       v.Value.sym)
                else v)
              (eval env b)
          else Seq.empty)
        (eval env a)
  | Ir.Logor (a, b) ->
      Seq.concat_map
        (fun u ->
          if Value.truth env.Env.dbg u then
            Seq.return (Ops.int_result env ~sym:u.Value.sym 1L)
          else
            Seq.map
              (fun v ->
                if sym_on env then
                  Value.with_sym v
                    (Symbolic.binary Symbolic.prec_logor " || " u.Value.sym
                       v.Value.sym)
                else v)
              (eval env b))
        (eval env a)
  | Ir.Filter (f, a, b) when Ir.pure_single b ->
      Seq.filter
        (fun u -> Ops.filter_holds env f u (Semantics.single env b))
        (eval env a)
  | Ir.Filter (f, a, b) ->
      Seq.concat_map
        (fun u ->
          Seq.filter_map
            (fun v -> if Ops.filter_holds env f u v then Some u else None)
            (eval env b))
        (eval env a)
  | Ir.Cond (c, t, f) ->
      delay (fun () ->
          Seq.concat_map
            (fun u ->
              if Value.truth env.Env.dbg u then eval env t else eval env f)
            (isolated env (eval env c)))
  | Ir.Assign (op, l, r) ->
      delay (fun () ->
          let rhs = isolated env (eval env r) in
          Seq.concat_map
            (fun u -> Seq.map (fun v -> Ops.assign env op u v) rhs)
            (eval env l))
  | Ir.Cast (te, cast_text, a) ->
      delay (fun () ->
          let t = Semantics.resolve_type env ~eval_int:(eval_int env) te in
          Seq.map
            (fun v ->
              let v' = Value.convert env.Env.dbg t v in
              if sym_on env then
                Value.with_sym v' (Symbolic.unary cast_text v.Value.sym)
              else v')
            (eval env a))
  | Ir.Call (callee, args) ->
      let rec build acc = function
        | [] ->
            Seq.return
              (Semantics.call_function env callee (List.rev acc))
        | a :: rest ->
            Seq.concat_map (fun v -> build (v :: acc) rest) (eval env a)
      in
      delay (fun () -> build [] args)
  | Ir.Index (a, b) -> cross env a b (Ops.index env)
  | Ir.With (kind, lhs, rhs) -> eval_with env kind lhs rhs
  | Ir.To (a, b) ->
      Seq.concat_map
        (fun u ->
          let lo = Value.to_int64 env.Env.dbg u in
          Seq.concat_map
            (fun v -> int_seq env lo (Value.to_int64 env.Env.dbg v))
            (eval env b))
        (eval env a)
  | Ir.To_inf a ->
      Seq.concat_map
        (fun u -> int_seq_from env (Value.to_int64 env.Env.dbg u))
        (eval env a)
  | Ir.Up_to a ->
      Seq.concat_map
        (fun u ->
          int_seq env 0L (Int64.sub (Value.to_int64 env.Env.dbg u) 1L))
        (eval env a)
  | Ir.Alt (a, b) -> Seq.append (eval env a) (eval env b)
  | Ir.Seq (a, b) ->
      delay (fun () ->
          Seq.iter ignore (eval env a);
          eval env b)
  | Ir.Seq_void a ->
      delay (fun () ->
          Seq.iter ignore (eval env a);
          Seq.empty)
  | Ir.Imply (a, b) -> Seq.concat_map (fun _ -> eval env b) (eval env a)
  | Ir.Def_alias (name, a) ->
      Seq.map
        (fun u ->
          Env.define_alias env name u;
          u)
        (eval env a)
  | Ir.Dfs (roots, step) -> eval_expand env ~depth_first:true roots step
  | Ir.Bfs (roots, step) -> eval_expand env ~depth_first:false roots step
  | Ir.Select (a, b) -> eval_select env a b
  | Ir.Until (a, stop) -> eval_until env a stop
  | Ir.Index_alias (a, name) ->
      delay (fun () ->
          let next = ref 0 in
          Seq.map
            (fun u ->
              let i = !next in
              incr next;
              let sym =
                if sym_on env then Symbolic.atom (string_of_int i) else no_sym
              in
              Env.define_alias env name
                (Value.int_value ~sym Ctype.int (Int64.of_int i));
              u)
            (eval env a))
  | Ir.Reduce (r, a, psym) ->
      delay (fun () -> Seq.return (eval_reduce env r a psym))
  | Ir.Seq_eq (a, b) -> delay (fun () -> Seq.return (eval_seq_eq env a b))
  | Ir.If (c, t, f) ->
      delay (fun () ->
          Seq.concat_map
            (fun u ->
              if Value.truth env.Env.dbg u then eval env t
              else match f with None -> Seq.empty | Some f -> eval env f)
            (isolated env (eval env c)))
  | Ir.For (init, cond, step, body) -> eval_for env init cond step body
  | Ir.While (cond, body) -> eval_while env cond body
  | Ir.Decl decls ->
      delay (fun () ->
          List.iter (declare env) decls;
          Seq.empty)
  | Ir.Sizeof_expr (a, psym) ->
      delay (fun () ->
          let depth = Env.scope_depth env in
          let first = (eval env a) () in
          let t =
            match first with
            | Seq.Cons (v, _) -> v.Value.typ
            | Seq.Nil -> Error.fail "sizeof of an empty sequence"
          in
          Env.restore_scope_depth env depth;
          let size =
            try Layout.size_of env.Env.dbg.Dbgi.abi t
            with Layout.Incomplete what ->
              Error.failf "sizeof incomplete type %s" what
          in
          let sym = if sym_on env then psym else no_sym in
          Seq.return (Value.int_value ~sym Ctype.ulong (Int64.of_int size)))
  | Ir.Sizeof_type (te, psym) ->
      delay (fun () ->
          let t = Semantics.resolve_type env ~eval_int:(eval_int env) te in
          let size =
            try Layout.size_of env.Env.dbg.Dbgi.abi t
            with Layout.Incomplete what ->
              Error.failf "sizeof incomplete type %s" what
          in
          let sym = if sym_on env then psym else no_sym in
          Seq.return (Value.int_value ~sym Ctype.ulong (Int64.of_int size)))
  | Ir.Frame a ->
      Seq.map
        (fun u ->
          let i = Int64.to_int (Value.to_int64 env.Env.dbg u) in
          let sym =
            if sym_on env then Symbolic.atom (Printf.sprintf "frame(%d)" i)
            else no_sym
          in
          Value.int_value ~sym Ctype.int (Int64.of_int i))
        (eval env a)
  | Ir.Frames_gen ->
      delay (fun () ->
          int_seq env 0L (Int64.of_int (Semantics.frame_count env - 1)))

(* The singleton fast path: when the right operand is an effect-free
   single value (a literal, a slotted name, [_]), skip the nested
   sequence machinery and call straight into Ops — [1..N+i] touches the
   resolution cache once per left value and nothing else. *)
and cross env a b f =
  if Ir.pure_single b then
    Seq.map (fun u -> f u (Semantics.single env b)) (eval env a)
  else
    Seq.concat_map
      (fun u -> Seq.map (fun v -> f u v) (eval env b))
      (eval env a)

and eval_int env e =
  let depth = Env.scope_depth env in
  match (eval env e) () with
  | Seq.Cons (v, _) ->
      let i = Value.to_int64 env.Env.dbg v in
      Env.restore_scope_depth env depth;
      i
  | Seq.Nil -> Error.fail "expected a value"

(* e1.e2 / e1->e2, with frame(i) and frames as scope subjects. *)
and eval_with env kind lhs rhs =
  match lhs with
  | Ir.Frame fe ->
      Seq.concat_map
        (fun u ->
          let i = Int64.to_int (Value.to_int64 env.Env.dbg u) in
          scoped env (Semantics.frame_scope env i) (fun () -> eval env rhs))
        (eval env fe)
  | Ir.Frames_gen ->
      delay (fun () ->
          Seq.concat_map
            (fun i ->
              scoped env (Semantics.frame_scope env i) (fun () ->
                  eval env rhs))
            (Seq.init (Semantics.frame_count env) Fun.id))
  | _ ->
      Seq.concat_map
        (fun u ->
          scoped env (Semantics.with_scope env kind u) (fun () ->
              eval env rhs))
        (eval env lhs)

(* --> and -->>.  Children of a node are collected eagerly (the paper
   stacks them before yielding the node) under the node's scope; the
   traversal as a whole stays lazy.  For DFS children are pushed in
   reverse so the first-generated child is visited first (the paper notes
   this). *)
and eval_expand env ~depth_first roots step =
 delay @@ fun () ->
  let limit = env.Env.flags.Env.expansion_limit in
  let visited =
    if env.Env.flags.Env.cycle_detect then Some (Hashtbl.create 64) else None
  in
  let seen_before w =
    match visited with
    | None -> false
    | Some tbl -> (
        match w.Value.st with
        | Value.Rint key ->
            if Hashtbl.mem tbl key then true
            else begin
              Hashtbl.replace tbl key ();
              false
            end
        | _ -> false)
  in
  let children node =
    let scope = Semantics.node_scope env node in
    Env.push_scope env scope;
    let result =
      Seq.fold_left
        (fun acc w ->
          match Semantics.traversal_child_ok env w with
          | Some wf -> wf :: acc
          | None -> acc)
        [] (eval env step)
    in
    Env.pop_scope env;
    List.rev result
  in
  let count = ref 0 in
  let rec walk work () =
    match work with
    | [] -> Seq.Nil
    | node :: rest ->
        incr count;
        if limit > 0 && !count > limit then
          Error.failf "--> expansion exceeded %d nodes (cycle?)" limit
        else begin
          let kids = List.filter (fun w -> not (seen_before w)) (children node) in
          let work' =
            if depth_first then kids @ rest else rest @ kids
          in
          Seq.Cons (node, walk work')
        end
  in
  Seq.concat_map
    (fun u ->
      match Semantics.traversal_child_ok env u with
      | Some uf -> if seen_before uf then Seq.empty else walk [ uf ]
      | None -> Seq.empty)
    (eval env roots)

(* e1[[e2]]: 0-based selection (see DESIGN.md).  The source sequence is
   materialized incrementally and its pushed scopes are swapped in and out
   around each extension, so partial consumption cannot corrupt the
   name-resolution stack. *)
and eval_select env a b =
  delay (fun () ->
      let buffer = ref [||] in
      let buffered = ref 0 in
      let src = ref (Some (eval env a)) in
      let src_scopes = ref (Env.stack env) in
      let pull () =
        match !src with
        | None -> false
        | Some s ->
            let outer = Env.stack env in
            Env.set_stack env !src_scopes;
            let result =
              match s () with
              | Seq.Nil ->
                  src := None;
                  false
              | Seq.Cons (v, tl) ->
                  src := Some tl;
                  if !buffered >= Array.length !buffer then begin
                    let grown =
                      Array.make (max 16 (2 * Array.length !buffer)) v
                    in
                    Array.blit !buffer 0 grown 0 !buffered;
                    buffer := grown
                  end;
                  !buffer.(!buffered) <- v;
                  incr buffered;
                  true
            in
            src_scopes := Env.stack env;
            Env.set_stack env outer;
            result
      in
      let rec nth n = if n < !buffered then Some !buffer.(n) else if pull () then nth n else None in
      Seq.filter_map
        (fun idx ->
          let n = Int64.to_int (Value.to_int64 env.Env.dbg idx) in
          if n < 0 then None else nth n)
        (eval env b))

(* e1@stop: yield e1's values until the stop condition fires (exclusive).
   A source literal stop compares for equality; any other stop expression
   is evaluated in the scope of the candidate value and stops on any
   non-zero value. *)
and eval_until env a stop =
  delay (fun () ->
      let depth = Env.scope_depth env in
      let stop_lit =
        match stop with
        | Ir.Lit { Ir.l_source = true; l_value } -> Some l_value
        | _ -> None
      in
      let stops u =
        match stop_lit with
        | Some lit -> Ops.values_equal env u lit
        | None ->
            (* restore only to just below the stop scope: the source
               sequence may have its own scopes live on the stack *)
            let stop_depth = Env.scope_depth env in
            (* like the node scope of -->: fields visible through struct
               lvalues and pointers alike *)
            Env.push_scope env (Semantics.node_scope env u);
            let fired =
              Seq.exists (fun v -> Value.truth env.Env.dbg v) (eval env stop)
            in
            Env.restore_scope_depth env stop_depth;
            fired
      in
      let rec go s () =
        match s () with
        | Seq.Nil -> Seq.Nil
        | Seq.Cons (u, tl) ->
            if stops u then begin
              Env.restore_scope_depth env depth;
              Seq.Nil
            end
            else Seq.Cons (u, go tl)
      in
      go (eval env a))

and eval_reduce env r a psym =
  let dbg = env.Env.dbg in
  let depth = Env.scope_depth env in
  let sym = if sym_on env then psym else no_sym in
  let result =
    match r with
    | Ast.Rcount ->
        let n = Seq.fold_left (fun acc _ -> acc + 1) 0 (eval env a) in
        Value.int_value ~sym Ctype.int (Int64.of_int n)
    | Ast.Rsum ->
        let acc =
          Seq.fold_left (Semantics.sum_step env) (Either.Left 0L) (eval env a)
        in
        Semantics.sum_result env ~sym acc
    | Ast.Rall ->
        let ok = Seq.for_all (fun v -> Value.truth dbg v) (eval env a) in
        Value.int_value ~sym Ctype.int (if ok then 1L else 0L)
    | Ast.Rany ->
        let ok = Seq.exists (fun v -> Value.truth dbg v) (eval env a) in
        Value.int_value ~sym Ctype.int (if ok then 1L else 0L)
  in
  Env.restore_scope_depth env depth;
  result

and eval_seq_eq env a b =
  let depth = Env.scope_depth env in
  let da = Seq.to_dispenser (eval env a) in
  let db = Seq.to_dispenser (eval env b) in
  let rec go () =
    match (da (), db ()) with
    | None, None -> true
    | Some _, None | None, Some _ -> false
    | Some u, Some v -> Ops.values_equal env u v && go ()
  in
  let equal = go () in
  Env.restore_scope_depth env depth;
  Ops.int_result env
    ~sym:(if sym_on env then Symbolic.atom (if equal then "1" else "0") else no_sym)
    (if equal then 1L else 0L)

(* The paper's while: all of the condition's values must be non-zero; the
   body's values are produced; then the whole thing repeats.  Iterations
   are bounded by [expansion_limit] — a `while (1) ...` must come back as
   a reported error, not hang the session (same contract as `-->` on a
   cyclic structure). *)
and eval_while env cond body =
  let limit = env.Env.flags.Env.expansion_limit in
  let cond_holds () =
    let depth = Env.scope_depth env in
    let ok = Seq.for_all (fun v -> Value.truth env.Env.dbg v) (eval env cond) in
    Env.restore_scope_depth env depth;
    ok
  in
  fun () ->
    let iters = ref 0 in
    let rec loop () =
      if cond_holds () then begin
        incr iters;
        if limit > 0 && !iters > limit then
          Error.failf "loop exceeded %d iterations (runaway condition?)" limit;
        Seq.append (eval env body) loop ()
      end
      else Seq.Nil
    in
    loop ()

and eval_for env init cond step body =
  let limit = env.Env.flags.Env.expansion_limit in
  let drain = function
    | None -> ()
    | Some e -> Seq.iter ignore (eval env e)
  in
  let cond_holds () =
    match cond with
    | None -> true
    | Some c ->
        let depth = Env.scope_depth env in
        let ok = Seq.for_all (fun v -> Value.truth env.Env.dbg v) (eval env c) in
        Env.restore_scope_depth env depth;
        ok
  in
  fun () ->
    drain init;
    let iters = ref 0 in
    let rec loop () =
      if cond_holds () then begin
        incr iters;
        if limit > 0 && !iters > limit then
          Error.failf "loop exceeded %d iterations (runaway condition?)" limit;
        Seq.append (eval env body) (fun () ->
            drain step;
            loop ())
          ()
      end
      else Seq.Nil
    in
    loop ()

and declare env (name, te) =
  let t = Semantics.resolve_type env ~eval_int:(eval_int env) te in
  let size =
    try Layout.size_of env.Env.dbg.Dbgi.abi t
    with Layout.Incomplete what ->
      Error.failf "cannot declare a variable of incomplete type %s" what
  in
  let addr = env.Env.dbg.Dbgi.alloc_space size in
  Env.define_alias env name (Value.lvalue ~sym:(Symbolic.atom name) t addr)
