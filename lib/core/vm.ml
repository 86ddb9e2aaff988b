(** The bytecode VM — the third evaluation engine.

    Executes {!Bytecode.program}s produced by {!Compile}.  Each region
    runs in a heap-allocated resumption {!frame} ([pc] + a view of the
    activation's registers + parent link): suspending a generator is
    saving an integer, and a suspended traversal is a plain value that
    can be held across commands and resumed later ({!start}/{!step}).
    Closure-chasing in {!Eval_seq} becomes a flat dispatch loop here;
    the shared helpers ({!Semantics}, {!Ops}, {!Value}) are the same, so
    the two engines are observationally identical — enforced by the
    three-engine differential battery in [test/test_vm.ml]. *)

module Ctype = Duel_ctype.Ctype
module B = Bytecode

type stats = {
  mutable v_dispatch : int;  (** instructions dispatched *)
  mutable v_super : int;  (** superinstruction executions *)
  mutable v_frames : int;  (** resumption frames allocated *)
  mutable v_fallback : int;  (** Eval_seq fallback generators spawned *)
  mutable v_fused : int;  (** elements folded inside fused reductions *)
}

let fresh_stats () =
  { v_dispatch = 0; v_super = 0; v_frames = 0; v_fallback = 0; v_fused = 0 }

let no_sym = Symbolic.atom "?"
let sym_on env = env.Env.flags.Env.symbolic

type gen =
  | Gnone
  | Gframe of frame
  | Gdisp of (unit -> Value.t option)  (** an {!Eval_seq} fallback *)
  | Gchase of chase  (** the fused [-->] traversal *)
  | Giso of iso  (** a generator with its own scope stack *)

(* The resumption frame: where this region's activation is suspended,
   plus its view of the register files (shared across the activation —
   regions have disjoint register ranges) and who spawned it. *)
and frame = {
  mutable pc : int;
  act : activation;
  parent : frame option;
}

and activation = {
  prog : B.program;
  env : Env.t;
  st : stats;
  regs : Value.t array;
  iregs : int64 array;
  gens : gen array;
}

and iso = { mutable iso_stack : Env.stack; iso_gen : gen }

and chase = {
  ch_step : B.operand;
  ch_df : bool;
  ch_roots : int;  (* gen slot of the roots generator *)
  mutable ch_work : Value.t list;
  ch_visited : (int64, unit) Hashtbl.t option;
  ch_limit : int;
  mutable ch_count : int;
}

let mk_range env i =
  let sym = if sym_on env then Symbolic.atom (Int64.to_string i) else no_sym in
  Value.int_value ~sym Ctype.int i

(* Inline-operand evaluation: exactly {!Semantics.single}. *)
let opv (a : activation) = function
  | B.Oreg r -> a.regs.(r)
  | B.Oconst i -> a.prog.B.consts.(i)
  | B.Oname i -> Semantics.name_value a.env a.prog.B.names.(i)
  | B.Ounder -> (Env.current_scope a.env).Env.sc_value

let is_super = function B.Oreg _ -> false | _ -> true

let seen_before ch w =
  match ch.ch_visited with
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

(* Fused reductions over [lo..hi]: the accumulator never leaves an
   int64.  Numerically identical to folding the produced range — range
   elements are int rvalues, so [sum_step] stays on the integer side and
   wraps the same way. *)
let reduce_range a r lo hi sym =
  let env = a.env in
  let n =
    if Int64.compare hi lo >= 0 then Int64.succ (Int64.sub hi lo) else 0L
  in
  a.st.v_fused <- a.st.v_fused + Int64.to_int n;
  match r with
  | Ast.Rcount -> Value.int_value ~sym Ctype.int n
  | Ast.Rsum ->
      let s = ref 0L in
      let i = ref lo in
      while Int64.compare !i hi <= 0 do
        s := Int64.add !s !i;
        i := Int64.succ !i
      done;
      Semantics.sum_result env ~sym (Either.Left !s)
  | Ast.Rall ->
      (* false iff the range contains 0 *)
      let ok = not (Int64.compare lo 0L <= 0 && Int64.compare 0L hi <= 0) in
      Value.int_value ~sym Ctype.int (if ok then 1L else 0L)
  | Ast.Rany ->
      (* true iff nonempty and not exactly [0..0] *)
      let ok =
        Int64.compare lo hi <= 0 && not (Int64.equal lo 0L && Int64.equal hi 0L)
      in
      Value.int_value ~sym Ctype.int (if ok then 1L else 0L)

(* --- the dispatch loop ---------------------------------------------------- *)

let rec run_frame (f : frame) : Value.t option =
  let a = f.act in
  let p = a.prog in
  let code = p.B.insns in
  let env = a.env in
  let st = a.st in
  let regs = a.regs and iregs = a.iregs and gens = a.gens in
  let pc = ref f.pc in
  let rec loop () =
    let i = code.(!pc) in
    st.v_dispatch <- st.v_dispatch + 1;
    incr pc;
    match i with
    | B.Iyield r ->
        f.pc <- !pc;
        Some regs.(r)
    | B.Ihalt ->
        f.pc <- !pc - 1;
        (* sticky: every further resume sees the halt *)
        None
    | B.Ijmp t ->
        pc := t;
        loop ()
    | B.Iload (d, o) ->
        regs.(d) <- opv a o;
        loop ()
    | B.Iunary (op, d, s) ->
        regs.(d) <- Ops.unary env op regs.(s);
        loop ()
    | B.Iincdec (op, d, s) ->
        regs.(d) <- Ops.incdec env op regs.(s);
        loop ()
    | B.Ibraces (d, s) ->
        let v = regs.(s) in
        regs.(d) <-
          (if sym_on env then
             Value.with_sym v (Symbolic.atom (Printer.scalar_literal env v))
           else v);
        loop ()
    | B.Ibinary (op, d, l, o) ->
        if is_super o then st.v_super <- st.v_super + 1;
        let rhs = opv a o in
        regs.(d) <- Ops.binary env op regs.(l) rhs;
        loop ()
    | B.Iindex (d, l, o) ->
        if is_super o then st.v_super <- st.v_super + 1;
        let rhs = opv a o in
        regs.(d) <- Ops.index env regs.(l) rhs;
        loop ()
    | B.Ilogand_sym (d, u, v) ->
        regs.(d) <-
          (if sym_on env then
             Value.with_sym regs.(v)
               (Symbolic.binary Symbolic.prec_logand " && " regs.(u).Value.sym
                  regs.(v).Value.sym)
           else regs.(v));
        loop ()
    | B.Ilogor_sym (d, u, v) ->
        regs.(d) <-
          (if sym_on env then
             Value.with_sym regs.(v)
               (Symbolic.binary Symbolic.prec_logor " || " regs.(u).Value.sym
                  regs.(v).Value.sym)
           else regs.(v));
        loop ()
    | B.Ilogor_true (d, u) ->
        regs.(d) <- Ops.int_result env ~sym:regs.(u).Value.sym 1L;
        loop ()
    | B.Idef_alias (six, r) ->
        Env.define_alias env p.B.strs.(six) regs.(r);
        loop ()
    | B.Iindex_alias (six, ic) ->
        let i = Int64.to_int iregs.(ic) in
        let sym =
          if sym_on env then Symbolic.atom (string_of_int i) else no_sym
        in
        Env.define_alias env p.B.strs.(six)
          (Value.int_value ~sym Ctype.int (Int64.of_int i));
        iregs.(ic) <- Int64.add iregs.(ic) 1L;
        loop ()
    | B.Ipush_with (kind, r) ->
        Env.push_scope env (Semantics.with_scope env kind regs.(r));
        loop ()
    | B.Ipop_scope ->
        Env.pop_scope env;
        loop ()
    | B.Ito_int (d, s) ->
        iregs.(d) <- Value.to_int64 env.Env.dbg regs.(s);
        loop ()
    | B.Iiconst (d, k) ->
        iregs.(d) <- k;
        loop ()
    | B.Iiadd (d, k) ->
        iregs.(d) <- Int64.add iregs.(d) k;
        loop ()
    | B.Iimov (d, s) ->
        iregs.(d) <- iregs.(s);
        loop ()
    | B.Irange_next (d, cur, hi, exh) ->
        if Int64.compare iregs.(cur) iregs.(hi) > 0 then pc := exh
        else begin
          regs.(d) <- mk_range env iregs.(cur);
          iregs.(cur) <- Int64.succ iregs.(cur)
        end;
        loop ()
    | B.Irange_from (d, cur, start) ->
        (* the open range answers to [expansion_limit] like runaway
           loops do; identical wording across all three engines *)
        let limit = env.Env.flags.Env.expansion_limit in
        if
          limit > 0
          && Int64.compare
               (Int64.sub iregs.(cur) iregs.(start))
               (Int64.of_int limit)
             >= 0
        then
          Error.failf "open range exceeded %d values (runaway generator?)"
            limit;
        regs.(d) <- mk_range env iregs.(cur);
        iregs.(cur) <- Int64.succ iregs.(cur);
        loop ()
    | B.Itruth (r, els) ->
        if not (Value.truth env.Env.dbg regs.(r)) then pc := els;
        loop ()
    | B.Ifilter (k, u, o, els) ->
        if is_super o then st.v_super <- st.v_super + 1;
        let rhs = opv a o in
        if not (Ops.filter_holds env k regs.(u) rhs) then pc := els;
        loop ()
    | B.Ispawn (g, rid) ->
        st.v_frames <- st.v_frames + 1;
        gens.(g) <- Gframe { pc = p.B.entries.(rid); act = a; parent = Some f };
        loop ()
    | B.Ifallback (g, ix) ->
        st.v_fallback <- st.v_fallback + 1;
        gens.(g) <- Gdisp (Seq.to_dispenser (Eval_seq.eval env p.B.irs.(ix)));
        loop ()
    | B.Iisolate g ->
        gens.(g) <- Giso { iso_stack = Env.stack env; iso_gen = gens.(g) };
        loop ()
    | B.Ichase (g, roots, step, df) ->
        st.v_super <- st.v_super + 1;
        gens.(g) <-
          Gchase
            {
              ch_step = step;
              ch_df = df;
              ch_roots = roots;
              ch_work = [];
              ch_visited =
                (if env.Env.flags.Env.cycle_detect then
                   Some (Hashtbl.create 64)
                 else None);
              ch_limit = env.Env.flags.Env.expansion_limit;
              ch_count = 0;
            };
        loop ()
    | B.Iresume (d, g, exh) -> (
        match resume a gens.(g) with
        | Some v ->
            regs.(d) <- v;
            loop ()
        | None ->
            pc := exh;
            loop ())
    | B.Ireduce (d, r, g, six) ->
        regs.(d) <- reduce a r gens.(g) p.B.syms.(six);
        loop ()
    | B.Ireduce_to (d, r, olo, ohi, six) ->
        st.v_super <- st.v_super + 1;
        let lo = Value.to_int64 env.Env.dbg (opv a olo) in
        let hi = Value.to_int64 env.Env.dbg (opv a ohi) in
        let sym = if sym_on env then p.B.syms.(six) else no_sym in
        regs.(d) <- reduce_range a r lo hi sym;
        loop ()
    | B.Ireduce_upto (d, r, o, six) ->
        st.v_super <- st.v_super + 1;
        let hi = Int64.pred (Value.to_int64 env.Env.dbg (opv a o)) in
        let sym = if sym_on env then p.B.syms.(six) else no_sym in
        regs.(d) <- reduce_range a r 0L hi sym;
        loop ()
  in
  loop ()

and resume a g =
  match g with
  | Gframe f -> run_frame f
  | Gdisp d -> d ()
  | Gchase ch -> chase_next a ch
  | Giso i ->
      (* [Eval_seq.isolated]: pull under the generator's own stack *)
      let outer = Env.stack a.env in
      Env.set_stack a.env i.iso_stack;
      let v = resume a i.iso_gen in
      i.iso_stack <- Env.stack a.env;
      Env.set_stack a.env outer;
      v
  | Gnone -> None

(* One step of the fused [-->]/[-->>] traversal: same order of effects
   as [Eval_seq.eval_expand] — children are collected under the node's
   scope *before* the node is yielded, the visited table is updated at
   the same points, and the expansion limit counts popped nodes. *)
and chase_next a ch =
  let env = a.env in
  a.st.v_super <- a.st.v_super + 1;
  match ch.ch_work with
  | node :: rest ->
      ch.ch_count <- ch.ch_count + 1;
      if ch.ch_limit > 0 && ch.ch_count > ch.ch_limit then
        Error.failf "--> expansion exceeded %d nodes (cycle?)" ch.ch_limit
      else begin
        let kids =
          let scope = Semantics.node_scope env node in
          Env.push_scope env scope;
          let w = opv a ch.ch_step in
          let r =
            match Semantics.traversal_child_ok env w with
            | Some wf -> [ wf ]
            | None -> []
          in
          Env.pop_scope env;
          r
        in
        let kids = List.filter (fun w -> not (seen_before ch w)) kids in
        ch.ch_work <- (if ch.ch_df then kids @ rest else rest @ kids);
        Some node
      end
  | [] -> (
      (* pull the next root *)
      match resume a a.gens.(ch.ch_roots) with
      | None -> None
      | Some u -> (
          match Semantics.traversal_child_ok env u with
          | None -> chase_next a ch
          | Some uf ->
              if seen_before ch uf then chase_next a ch
              else begin
                ch.ch_work <- [ uf ];
                chase_next a ch
              end))

(* The generic in-VM reduction: drain the generator and fold, restoring
   the scope depth afterwards — a transcription of
   [Eval_seq.eval_reduce] over a resumable generator. *)
and reduce a r g psym =
  let env = a.env in
  let dbg = env.Env.dbg in
  let depth = Env.scope_depth env in
  let sym = if sym_on env then psym else no_sym in
  let result =
    match r with
    | Ast.Rcount ->
        let n = ref 0 in
        let rec drain () =
          match resume a g with
          | Some _ ->
              incr n;
              drain ()
          | None -> ()
        in
        drain ();
        Value.int_value ~sym Ctype.int (Int64.of_int !n)
    | Ast.Rsum ->
        let rec fold acc =
          match resume a g with
          | Some v -> fold (Semantics.sum_step env acc v)
          | None -> acc
        in
        Semantics.sum_result env ~sym (fold (Either.Left 0L))
    | Ast.Rall ->
        let rec all () =
          match resume a g with
          | Some v -> if Value.truth dbg v then all () else false
          | None -> true
        in
        Value.int_value ~sym Ctype.int (if all () then 1L else 0L)
    | Ast.Rany ->
        let rec any () =
          match resume a g with
          | Some v -> if Value.truth dbg v then true else any ()
          | None -> false
        in
        Value.int_value ~sym Ctype.int (if any () then 1L else 0L)
  in
  Env.restore_scope_depth env depth;
  result

(* --- entry points --------------------------------------------------------- *)

(** A suspended program activation: pull values with {!step}; hold it
    across commands (its frames are plain heap values). *)
type run = { r_root : frame }

let start ?stats env (prog : B.program) : run =
  let st = match stats with Some s -> s | None -> fresh_stats () in
  let filler = Value.int_value Ctype.int 0L in
  let act =
    {
      prog;
      env;
      st;
      regs = Array.make (max 1 prog.B.nregs) filler;
      iregs = Array.make (max 1 prog.B.niregs) 0L;
      gens = Array.make (max 1 prog.B.ngens) Gnone;
    }
  in
  st.v_frames <- st.v_frames + 1;
  { r_root = { pc = prog.B.entries.(0); act; parent = None } }

let step (r : run) : Value.t option = run_frame r.r_root

(** The engine interface: forcing the outer thunk starts a fresh
    activation (the paper's restart-on-re-evaluation), the tail is
    ephemeral like {!Eval_sm}'s. *)
let eval ?stats env prog : Value.t Seq.t =
 fun () ->
  let h = start ?stats env prog in
  let rec next () =
    match step h with Some v -> Seq.Cons (v, next) | None -> Seq.Nil
  in
  next ()
