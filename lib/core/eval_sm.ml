module Ctype = Duel_ctype.Ctype
module Layout = Duel_ctype.Layout
module Dbgi = Duel_dbgi.Dbgi

let no_sym = Symbolic.atom "?"
let sym_on env = env.Env.flags.Env.symbolic

(* One runtime node per IR node, carrying the paper's [state] and saved
   [value] plus per-operator auxiliary state. *)
type node = {
  expr : Ir.expr;
  kids : node array;
  mutable state : int;
  mutable saved : Value.t option;
  mutable counter : int64;
  mutable hi : int64;
  mutable depth : int;  (* scope depth captured at state 0 *)
  mutable work : Value.t list;  (* dfs/bfs worklist *)
  mutable buffer : Value.t array;  (* select buffer *)
  mutable buffered : int;
  mutable src_done : bool;
  mutable src_scopes : Env.stack;
  mutable visited : (int64, unit) Hashtbl.t option;
  mutable argvals : Value.t array;
}

let dummy_value = Value.int_value Ctype.int 0L

(* Sub-expressions that behave as generator operands, in evaluation
   order. *)
let subexprs (e : Ir.expr) : Ir.expr list =
  match e with
  | Ir.Lit _ | Ir.Name _ | Ir.Underscore | Ir.Frames_gen | Ir.Decl _
  | Ir.Sizeof_type _ ->
      []
  | Ir.Unary (_, a)
  | Ir.Incdec (_, a)
  | Ir.Braces a
  | Ir.Group a
  | Ir.Cast (_, _, a)
  | Ir.Def_alias (_, a)
  | Ir.Index_alias (a, _)
  | Ir.Reduce (_, a, _)
  | Ir.Seq_void a
  | Ir.Up_to a
  | Ir.To_inf a
  | Ir.Sizeof_expr (a, _)
  | Ir.Frame a ->
      [ a ]
  | Ir.Binary (_, a, b)
  | Ir.Logand (a, b)
  | Ir.Logor (a, b)
  | Ir.Filter (_, a, b)
  | Ir.Assign (_, a, b)
  | Ir.Index (a, b)
  | Ir.With (_, a, b)
  | Ir.To (a, b)
  | Ir.Alt (a, b)
  | Ir.Seq (a, b)
  | Ir.Imply (a, b)
  | Ir.Dfs (a, b)
  | Ir.Bfs (a, b)
  | Ir.Select (a, b)
  | Ir.Until (a, b)
  | Ir.Seq_eq (a, b)
  | Ir.While (a, b) ->
      [ a; b ]
  | Ir.Cond (a, b, c) | Ir.If (a, b, Some c) -> [ a; b; c ]
  | Ir.If (a, b, None) -> [ a; b ]
  | Ir.Call (_, args) -> args
  | Ir.For (i, c, s, b) ->
      List.filter_map Fun.id [ i; c; s ] @ [ b ]

let rec compile e =
  {
    expr = e;
    kids = Array.of_list (List.map compile (subexprs e));
    state = 0;
    saved = None;
    counter = 0L;
    hi = 0L;
    depth = 0;
    work = [];
    buffer = [||];
    buffered = 0;
    src_done = false;
    src_scopes = Env.empty_stack;
    visited = None;
    argvals = [||];
  }

let rec reset n =
  n.state <- 0;
  n.saved <- None;
  n.work <- [];
  n.buffered <- 0;
  n.src_done <- false;
  n.visited <- None;
  Array.iter reset n.kids

let get_saved n =
  match n.saved with Some v -> v | None -> assert false

(* --- the evaluator ------------------------------------------------------ *)

let rec next env n : Value.t option =
  match n.expr with
  | Ir.Lit l ->
      if n.state = 0 then begin
        n.state <- 1;
        Some l.Ir.l_value
      end
      else begin
        n.state <- 0;
        None
      end
  | Ir.Name name ->
      if n.state = 0 then begin
        n.state <- 1;
        Some (Semantics.name_value env name)
      end
      else begin
        n.state <- 0;
        None
      end
  | Ir.Underscore ->
      if n.state = 0 then begin
        n.state <- 1;
        Some (Env.current_scope env).Env.sc_value
      end
      else begin
        n.state <- 0;
        None
      end
  | Ir.Group _ -> next env n.kids.(0)
  | Ir.Braces _ -> (
      match next env n.kids.(0) with
      | Some v ->
          Some
            (if sym_on env then
               Value.with_sym v
                 (Symbolic.atom (Printer.scalar_literal env v))
             else v)
      | None -> None)
  | Ir.Unary (op, _) -> Option.map (Ops.unary env op) (next env n.kids.(0))
  | Ir.Incdec (op, _) -> Option.map (Ops.incdec env op) (next env n.kids.(0))
  | Ir.Cast (te, cast_text, _) -> (
      match next env n.kids.(0) with
      | None -> None
      | Some v ->
          let t = Semantics.resolve_type env ~eval_int:(eval_int env) te in
          let v' = Value.convert env.Env.dbg t v in
          Some
            (if sym_on env then
               Value.with_sym v' (Symbolic.unary cast_text v.Value.sym)
             else v'))
  | Ir.Def_alias (name, _) -> (
      match next env n.kids.(0) with
      | None -> None
      | Some v ->
          Env.define_alias env name v;
          Some v)
  (* Singleton fast path: an effect-free single-valued right operand is
     evaluated directly per left value, skipping the kid state machine —
     the slot cache makes [Semantics.single] one stamp check. *)
  | Ir.Binary (op, _, b) when Ir.pure_single b ->
      Option.map
        (fun u -> Ops.binary env op u (Semantics.single env b))
        (next env n.kids.(0))
  | Ir.Index (_, b) when Ir.pure_single b ->
      Option.map
        (fun u -> Ops.index env u (Semantics.single env b))
        (next env n.kids.(0))
  | Ir.Filter (f, _, b) when Ir.pure_single b ->
      let rec go () =
        match next env n.kids.(0) with
        | None -> None
        | Some u ->
            if Ops.filter_holds env f u (Semantics.single env b) then Some u
            else go ()
      in
      go ()
  | Ir.Binary (op, _, _) -> binary_like env n (Ops.binary env op)
  | Ir.Index _ -> binary_like env n (Ops.index env)
  | Ir.Assign (op, _, _) -> assign_sm env n op
  | Ir.Alt _ -> alt env n
  | Ir.To _ -> to_range env n
  | Ir.Up_to _ -> up_to env n
  | Ir.To_inf _ -> to_inf env n
  | Ir.Filter (f, _, _) -> filter env n f
  | Ir.Logand _ -> logand env n
  | Ir.Logor _ -> logor env n
  | Ir.Cond _ -> conditional env n ~has_else:true
  | Ir.If (_, _, Some _) -> conditional env n ~has_else:true
  | Ir.If (_, _, None) -> conditional env n ~has_else:false
  | Ir.With (kind, lhs, _) -> with_op env n kind lhs
  | Ir.Imply _ -> imply env n
  | Ir.Seq _ -> seq_op env n
  | Ir.Seq_void _ ->
      drain env n.kids.(0);
      None
  | Ir.Index_alias (_, name) -> index_alias env n name
  | Ir.Reduce (r, _, psym) -> reduce env n r psym
  | Ir.Seq_eq _ -> seq_eq env n
  | Ir.Dfs _ -> expand env n ~depth_first:true
  | Ir.Bfs _ -> expand env n ~depth_first:false
  | Ir.Select _ -> select env n
  | Ir.Until (_, stop) -> until env n stop
  | Ir.While _ -> while_op env n
  | Ir.For (init, cond, step, _) -> for_op env n init cond step
  | Ir.Call (callee, args) -> call env n callee (List.length args)
  | Ir.Decl decls ->
      List.iter (declare env) decls;
      None
  | Ir.Sizeof_expr (_, psym) -> sizeof_expr env n psym
  | Ir.Sizeof_type (te, psym) ->
      if n.state = 0 then begin
        n.state <- 1;
        let t = Semantics.resolve_type env ~eval_int:(eval_int env) te in
        let size =
          try Layout.size_of env.Env.dbg.Dbgi.abi t
          with Layout.Incomplete what ->
            Error.failf "sizeof incomplete type %s" what
        in
        let sym = if sym_on env then psym else no_sym in
        Some (Value.int_value ~sym Ctype.ulong (Int64.of_int size))
      end
      else begin
        n.state <- 0;
        None
      end
  | Ir.Frame _ -> (
      match next env n.kids.(0) with
      | None -> None
      | Some u ->
          let i = Int64.to_int (Value.to_int64 env.Env.dbg u) in
          let sym =
            if sym_on env then Symbolic.atom (Printf.sprintf "frame(%d)" i)
            else no_sym
          in
          Some (Value.int_value ~sym Ctype.int (Int64.of_int i)))
  | Ir.Frames_gen ->
      if n.state = 0 then begin
        n.counter <- 0L;
        n.hi <- Int64.of_int (Semantics.frame_count env);
        n.state <- 1
      end;
      if Int64.compare n.counter n.hi < 0 then begin
        let i = n.counter in
        n.counter <- Int64.add i 1L;
        let sym =
          if sym_on env then Symbolic.atom (Int64.to_string i) else no_sym
        in
        Some (Value.int_value ~sym Ctype.int i)
      end
      else begin
        n.state <- 0;
        None
      end

and drain env kid = match next env kid with Some _ -> drain env kid | None -> ()

and eval_int env e =
  let kid = compile e in
  let depth = Env.scope_depth env in
  match next env kid with
  | Some v ->
      let i = Value.to_int64 env.Env.dbg v in
      Env.restore_scope_depth env depth;
      i
  | None -> Error.fail "expected a value"

(* state 0: fetch the next left value; state 1: produce one combination per
   right value — the paper's bin0/bin1 code. *)
and binary_like env n f =
  if n.state = 0 then
    match next env n.kids.(0) with
    | None -> None
    | Some u ->
        n.saved <- Some u;
        n.state <- 1;
        binary_like env n f
  else
    match next env n.kids.(1) with
    | Some v -> Some (f (get_saved n) v)
    | None ->
        n.state <- 0;
        binary_like env n f

(* Assignment: like binary_like, but the right operand evaluates under the
   scope stack captured at state 0 — the left side's with-scope must not
   capture names on the right ([q->scope = scope] means the parameter). *)
and assign_sm env n op =
  match n.state with
  | 0 ->
      (* fresh evaluation: capture the stack before the left side can
         push its with-scopes *)
      n.src_scopes <- Env.stack env;
      n.state <- 2;
      assign_sm env n op
  | 2 -> (
      match next env n.kids.(0) with
      | None ->
          n.state <- 0;
          None
      | Some u ->
          n.saved <- Some u;
          n.state <- 1;
          assign_sm env n op)
  | _ -> (
      match isolated_next env n n.kids.(1) with
      | Some v -> Some (Ops.assign env op (get_saved n) v)
      | None ->
          n.state <- 2;
          assign_sm env n op)

(* Pull [kid] under the node's own scope stack [src_scopes], leaving the
   caller's stack as it was. *)
and isolated_next env n kid =
  let outer = Env.stack env in
  Env.set_stack env n.src_scopes;
  let v = next env kid in
  n.src_scopes <- Env.stack env;
  Env.set_stack env outer;
  v

and alt env n =
  if n.state = 0 then
    match next env n.kids.(0) with
    | Some v -> Some v
    | None ->
        n.state <- 1;
        alt env n
  else
    match next env n.kids.(1) with
    | Some v -> Some v
    | None ->
        n.state <- 0;
        None

and to_range env n =
  match n.state with
  | 0 -> (
      match next env n.kids.(0) with
      | None -> None
      | Some u ->
          n.saved <- Some u;
          n.state <- 1;
          to_range env n)
  | 1 -> (
      match next env n.kids.(1) with
      | None ->
          n.state <- 0;
          to_range env n
      | Some v ->
          n.counter <- Value.to_int64 env.Env.dbg (get_saved n);
          n.hi <- Value.to_int64 env.Env.dbg v;
          n.state <- 2;
          to_range env n)
  | _ ->
      if Int64.compare n.counter n.hi <= 0 then begin
        let i = n.counter in
        n.counter <- Int64.add i 1L;
        Some (make_int env i)
      end
      else begin
        n.state <- 1;
        to_range env n
      end

and make_int env i =
  let sym = if sym_on env then Symbolic.atom (Int64.to_string i) else no_sym in
  Value.int_value ~sym Ctype.int i

and up_to env n =
  match n.state with
  | 0 -> (
      match next env n.kids.(0) with
      | None -> None
      | Some u ->
          n.counter <- 0L;
          n.hi <- Int64.sub (Value.to_int64 env.Env.dbg u) 1L;
          n.state <- 1;
          up_to env n)
  | _ ->
      if Int64.compare n.counter n.hi <= 0 then begin
        let i = n.counter in
        n.counter <- Int64.add i 1L;
        Some (make_int env i)
      end
      else begin
        n.state <- 0;
        up_to env n
      end

(* [state] doubles as the pull count ([state - 1] values yielded so
   far): the open range is the one generator with no bound of its own,
   so it answers to [expansion_limit] exactly as {!Eval_seq} does. *)
and to_inf env n =
  match n.state with
  | 0 -> (
      match next env n.kids.(0) with
      | None -> None
      | Some u ->
          n.counter <- Value.to_int64 env.Env.dbg u;
          n.state <- 1;
          to_inf env n)
  | produced_1 ->
      let limit = env.Env.flags.Env.expansion_limit in
      if limit > 0 && produced_1 - 1 >= limit then
        Error.failf "open range exceeded %d values (runaway generator?)"
          limit;
      let i = n.counter in
      n.counter <- Int64.add i 1L;
      n.state <- n.state + 1;
      Some (make_int env i)

and filter env n f =
  if n.state = 0 then
    match next env n.kids.(0) with
    | None -> None
    | Some u ->
        n.saved <- Some u;
        n.state <- 1;
        filter env n f
  else
    match next env n.kids.(1) with
    | Some v ->
        if Ops.filter_holds env f (get_saved n) v then Some (get_saved n)
        else filter env n f
    | None ->
        n.state <- 0;
        filter env n f

and logand env n =
  if n.state = 0 then
    match next env n.kids.(0) with
    | None -> None
    | Some u ->
        if Value.truth env.Env.dbg u then begin
          n.saved <- Some u;
          n.state <- 1;
          logand env n
        end
        else logand env n
  else
    match next env n.kids.(1) with
    | Some v ->
        Some
          (if sym_on env then
             Value.with_sym v
               (Symbolic.binary Symbolic.prec_logand " && "
                  (get_saved n).Value.sym v.Value.sym)
           else v)
    | None ->
        n.state <- 0;
        logand env n

and logor env n =
  if n.state = 0 then
    match next env n.kids.(0) with
    | None -> None
    | Some u ->
        if Value.truth env.Env.dbg u then
          Some (Ops.int_result env ~sym:u.Value.sym 1L)
        else begin
          n.saved <- Some u;
          n.state <- 1;
          logor env n
        end
  else
    match next env n.kids.(1) with
    | Some v ->
        Some
          (if sym_on env then
             Value.with_sym v
               (Symbolic.binary Symbolic.prec_logor " || "
                  (get_saved n).Value.sym v.Value.sym)
           else v)
    | None ->
        n.state <- 0;
        logor env n

(* [if]/[?:]: the condition runs under the scope stack captured at state
   0, as an assignment's right side does, so the with-scopes it leaves
   open until it is exhausted never capture a branch's names.  States:
   0 fresh, 3 pulling the condition, 1/2 the then/else branch. *)
and conditional env n ~has_else =
  match n.state with
  | 0 ->
      n.src_scopes <- Env.stack env;
      n.state <- 3;
      conditional env n ~has_else
  | 3 -> (
      match isolated_next env n n.kids.(0) with
      | None ->
          n.state <- 0;
          None
      | Some u ->
          if Value.truth env.Env.dbg u then n.state <- 1
          else if has_else then n.state <- 2;
          conditional env n ~has_else)
  | branch -> (
      match next env n.kids.(branch) with
      | Some v -> Some v
      | None ->
          n.state <- 3;
          conditional env n ~has_else)

and with_op env n kind lhs =
  match lhs with
  | Ir.Frame _ | Ir.Frames_gen ->
      if n.state = 0 then
        match next env n.kids.(0) with
        | None -> None
        | Some u ->
            let i = Int64.to_int (Value.to_int64 env.Env.dbg u) in
            Env.push_scope env (Semantics.frame_scope env i);
            n.state <- 1;
            with_op env n kind lhs
      else begin
        match next env n.kids.(1) with
        | Some v -> Some v
        | None ->
            Env.pop_scope env;
            n.state <- 0;
            with_op env n kind lhs
      end
  | _ ->
      if n.state = 0 then
        match next env n.kids.(0) with
        | None -> None
        | Some u ->
            Env.push_scope env (Semantics.with_scope env kind u);
            n.state <- 1;
            with_op env n kind lhs
      else begin
        match next env n.kids.(1) with
        | Some v -> Some v
        | None ->
            Env.pop_scope env;
            n.state <- 0;
            with_op env n kind lhs
      end

and imply env n =
  if n.state = 0 then
    match next env n.kids.(0) with
    | None -> None
    | Some _ ->
        n.state <- 1;
        imply env n
  else
    match next env n.kids.(1) with
    | Some v -> Some v
    | None ->
        n.state <- 0;
        imply env n

and seq_op env n =
  if n.state = 0 then begin
    drain env n.kids.(0);
    n.state <- 1
  end;
  match next env n.kids.(1) with
  | Some v -> Some v
  | None ->
      n.state <- 0;
      None

and index_alias env n name =
  if n.state = 0 then begin
    n.counter <- 0L;
    n.state <- 1
  end;
  match next env n.kids.(0) with
  | Some u ->
      let i = n.counter in
      n.counter <- Int64.add i 1L;
      let sym =
        if sym_on env then Symbolic.atom (Int64.to_string i) else no_sym
      in
      Env.define_alias env name (Value.int_value ~sym Ctype.int i);
      Some u
  | None ->
      n.state <- 0;
      None

and reduce env n r psym =
  if n.state = 1 then begin
    n.state <- 0;
    None
  end
  else begin
    n.state <- 1;
    let dbg = env.Env.dbg in
    let depth = Env.scope_depth env in
    let sym = if sym_on env then psym else no_sym in
    let result =
      match r with
      | Ast.Rcount ->
          let rec count acc =
            match next env n.kids.(0) with
            | Some _ -> count (acc + 1)
            | None -> acc
          in
          Value.int_value ~sym Ctype.int (Int64.of_int (count 0))
      | Ast.Rsum ->
          let rec sum acc =
            match next env n.kids.(0) with
            | Some v -> sum (Semantics.sum_step env acc v)
            | None -> acc
          in
          Semantics.sum_result env ~sym (sum (Either.Left 0L))
      | Ast.Rall ->
          let rec all () =
            match next env n.kids.(0) with
            | Some v -> if Value.truth dbg v then all () else false
            | None -> true
          in
          let ok = all () in
          if not ok then reset n.kids.(0);
          Value.int_value ~sym Ctype.int (if ok then 1L else 0L)
      | Ast.Rany ->
          let rec any () =
            match next env n.kids.(0) with
            | Some v -> if Value.truth dbg v then true else any ()
            | None -> false
          in
          let ok = any () in
          if ok then reset n.kids.(0);
          Value.int_value ~sym Ctype.int (if ok then 1L else 0L)
    in
    Env.restore_scope_depth env depth;
    Some result
  end

and seq_eq env n =
  if n.state = 1 then begin
    n.state <- 0;
    None
  end
  else begin
    n.state <- 1;
    let depth = Env.scope_depth env in
    let rec go () =
      match (next env n.kids.(0), next env n.kids.(1)) with
      | None, None -> true
      | Some _, None | None, Some _ -> false
      | Some u, Some v -> Ops.values_equal env u v && go ()
    in
    let equal = go () in
    reset n.kids.(0);
    reset n.kids.(1);
    Env.restore_scope_depth env depth;
    Some (Ops.int_result env (if equal then 1L else 0L))
  end

(* The paper's dfs: pop a node, open its scope, stack its valid children,
   yield it. *)
and expand env n ~depth_first =
  let limit = env.Env.flags.Env.expansion_limit in
  if n.state = 0 then begin
    if env.Env.flags.Env.cycle_detect then n.visited <- Some (Hashtbl.create 64);
    n.counter <- 0L;
    n.state <- 1;
    n.work <- []
  end;
  let seen_before w =
    match n.visited with
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
  match n.work with
  | node :: rest ->
      n.counter <- Int64.add n.counter 1L;
      if limit > 0 && Int64.compare n.counter (Int64.of_int limit) > 0 then
        Error.failf "--> expansion exceeded %d nodes (cycle?)" limit
      else begin
        Env.push_scope env (Semantics.node_scope env node);
        let rec collect acc =
          match next env n.kids.(1) with
          | Some w -> (
              match Semantics.traversal_child_ok env w with
              | Some wf -> collect (wf :: acc)
              | None -> collect acc)
          | None -> List.rev acc
        in
        let kids = List.filter (fun w -> not (seen_before w)) (collect []) in
        Env.pop_scope env;
        n.work <- (if depth_first then kids @ rest else rest @ kids);
        Some node
      end
  | [] -> (
      match next env n.kids.(0) with
      | None ->
          n.state <- 0;
          None
      | Some u -> (
          match Semantics.traversal_child_ok env u with
          | Some uf when not (seen_before uf) ->
              n.work <- [ uf ];
              expand env n ~depth_first
          | _ -> expand env n ~depth_first))

and select env n =
  if n.state = 0 then begin
    n.buffer <- [||];
    n.buffered <- 0;
    n.src_done <- false;
    n.src_scopes <- Env.stack env;
    n.depth <- Env.scope_depth env;
    n.state <- 1
  end;
  let pull () =
    if n.src_done then false
    else
      match isolated_next env n n.kids.(0) with
      | None ->
          n.src_done <- true;
          false
      | Some v ->
          if n.buffered >= Array.length n.buffer then begin
            let grown = Array.make (max 16 (2 * Array.length n.buffer)) dummy_value in
            Array.blit n.buffer 0 grown 0 n.buffered;
            n.buffer <- grown
          end;
          n.buffer.(n.buffered) <- v;
          n.buffered <- n.buffered + 1;
          true
  in
  let rec nth i =
    if i < n.buffered then Some n.buffer.(i)
    else if pull () then nth i
    else None
  in
  match next env n.kids.(1) with
  | None ->
      reset n.kids.(0);
      n.state <- 0;
      None
  | Some idx -> (
      let i = Int64.to_int (Value.to_int64 env.Env.dbg idx) in
      if i < 0 then select env n
      else match nth i with Some v -> Some v | None -> select env n)

and until env n stop =
  if n.state = 0 then begin
    n.depth <- Env.scope_depth env;
    n.state <- 1
  end;
  match next env n.kids.(0) with
  | None ->
      n.state <- 0;
      None
  | Some u ->
      let fired =
        match stop with
        | Ir.Lit { Ir.l_source = true; l_value } ->
            Ops.values_equal env u l_value
        | _ ->
            (* the source's own scopes may be live; pop only the stop
               scope *)
            let stop_depth = Env.scope_depth env in
            Env.push_scope env (Semantics.node_scope env u);
            let rec any () =
              match next env n.kids.(1) with
              | Some v ->
                  if Value.truth env.Env.dbg v then true else any ()
              | None -> false
            in
            let f = any () in
            if f then reset n.kids.(1);
            Env.restore_scope_depth env stop_depth;
            f
      in
      if fired then begin
        reset n.kids.(0);
        Env.restore_scope_depth env n.depth;
        n.state <- 0;
        None
      end
      else Some u

(* The paper's while: check that all condition values are non-zero, yield
   the body, start over.  Iterations are bounded by [expansion_limit] —
   a runaway condition must surface as an error, not a hang (same
   contract as the traversal limit in [expand]). *)
and while_op env n =
  let limit = env.Env.flags.Env.expansion_limit in
  let cond_holds () =
    let depth = Env.scope_depth env in
    let rec check () =
      match next env n.kids.(0) with
      | Some v ->
          if Value.truth env.Env.dbg v then check ()
          else begin
            reset n.kids.(0);
            false
          end
      | None -> true
    in
    let ok = check () in
    Env.restore_scope_depth env depth;
    ok
  in
  if n.state = 0 then
    if cond_holds () then begin
      n.counter <- Int64.add n.counter 1L;
      if limit > 0 && Int64.compare n.counter (Int64.of_int limit) > 0 then
        Error.failf "loop exceeded %d iterations (runaway condition?)" limit;
      n.state <- 1;
      while_op env n
    end
    else None
  else
    match next env n.kids.(1) with
    | Some v -> Some v
    | None ->
        n.state <- 0;
        while_op env n

and for_op env n init cond step =
  let limit = env.Env.flags.Env.expansion_limit in
  let have_init = Option.is_some init in
  let have_cond = Option.is_some cond in
  let have_step = Option.is_some step in
  let cond_idx = if have_init then 1 else 0 in
  let step_idx = cond_idx + if have_cond then 1 else 0 in
  let body_idx = step_idx + if have_step then 1 else 0 in
  let cond_holds () =
    if not have_cond then true
    else begin
      let depth = Env.scope_depth env in
      let rec check () =
        match next env n.kids.(cond_idx) with
        | Some v ->
            if Value.truth env.Env.dbg v then check ()
            else begin
              reset n.kids.(cond_idx);
              false
            end
        | None -> true
      in
      let ok = check () in
      Env.restore_scope_depth env depth;
      ok
    end
  in
  match n.state with
  | 0 ->
      if have_init then drain env n.kids.(0);
      n.state <- 1;
      for_op env n init cond step
  | 1 ->
      if cond_holds () then begin
        n.counter <- Int64.add n.counter 1L;
        if limit > 0 && Int64.compare n.counter (Int64.of_int limit) > 0 then
          Error.failf "loop exceeded %d iterations (runaway condition?)" limit;
        n.state <- 2;
        for_op env n init cond step
      end
      else begin
        n.state <- 0;
        None
      end
  | _ -> (
      match next env n.kids.(body_idx) with
      | Some v -> Some v
      | None ->
          if have_step then drain env n.kids.(step_idx);
          n.state <- 1;
          for_op env n init cond step)

(* Cross product over the argument generators: a classic odometer.  State
   0 fills every wheel; afterwards the last wheel advances and exhausted
   wheels restart. *)
and call env n callee nargs =
  let produce () =
    Some (Semantics.call_function env callee (Array.to_list n.argvals))
  in
  if nargs = 0 then
    if n.state = 0 then begin
      n.state <- 1;
      produce ()
    end
    else begin
      n.state <- 0;
      None
    end
  else if n.state = 0 then begin
    n.argvals <- Array.make nargs dummy_value;
    let rec fill i =
      if i >= nargs then true
      else
        match next env n.kids.(i) with
        | Some v ->
            n.argvals.(i) <- v;
            fill (i + 1)
        | None -> false
    in
    if fill 0 then begin
      n.state <- 1;
      produce ()
    end
    else None
  end
  else begin
    let rec advance i =
      if i < 0 then false
      else
        match next env n.kids.(i) with
        | Some v ->
            n.argvals.(i) <- v;
            let rec refill j =
              if j >= nargs then true
              else
                match next env n.kids.(j) with
                | Some v ->
                    n.argvals.(j) <- v;
                    refill (j + 1)
                | None -> false
            in
            refill (i + 1)
        | None -> advance (i - 1)
    in
    if advance (nargs - 1) then produce ()
    else begin
      n.state <- 0;
      None
    end
  end

and declare env (name, te) =
  let t = Semantics.resolve_type env ~eval_int:(eval_int env) te in
  let size =
    try Layout.size_of env.Env.dbg.Dbgi.abi t
    with Layout.Incomplete what ->
      Error.failf "cannot declare a variable of incomplete type %s" what
  in
  let addr = env.Env.dbg.Dbgi.alloc_space size in
  Env.define_alias env name (Value.lvalue ~sym:(Symbolic.atom name) t addr)

and sizeof_expr env n psym =
  if n.state = 1 then begin
    n.state <- 0;
    None
  end
  else begin
    n.state <- 1;
    let depth = Env.scope_depth env in
    let t =
      match next env n.kids.(0) with
      | Some v -> v.Value.typ
      | None -> Error.fail "sizeof of an empty sequence"
    in
    reset n.kids.(0);
    Env.restore_scope_depth env depth;
    let size =
      try Layout.size_of env.Env.dbg.Dbgi.abi t
      with Layout.Incomplete what -> Error.failf "sizeof incomplete type %s" what
    in
    let sym = if sym_on env then psym else no_sym in
    Some (Value.int_value ~sym Ctype.ulong (Int64.of_int size))
  end

let eval env e =
  let root = compile e in
  Seq.of_dispenser (fun () -> next env root)
