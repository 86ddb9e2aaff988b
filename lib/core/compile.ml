(* The IR -> bytecode compiler.

   Every generator subexpression becomes a region on a worklist; the
   emitted code for a composite node is a resume loop over its
   children's regions (or over inline operands when a child is
   pure_single — the superinstruction forms).  Register, integer
   register and generator-slot numbering is monotonic across the whole
   program: at most one activation of a region is live at a time within
   one program activation (lazy sequences are consumed sequentially and
   the IR is a tree, so a region can never be re-entered while
   suspended), which lets every frame share the activation's flat
   register file.

   Anything outside the native set compiles to [Ifallback]: the VM runs
   the subtree through an [Eval_seq] dispenser, inheriting the reference
   semantics — including error text and effect order — exactly. *)

module B = Bytecode

type builder = {
  mutable code : B.insn array;
  mutable len : int;
  mutable regions : (int * Ir.expr) list;  (* pending worklist *)
  mutable entries : (int * int) list;  (* region id -> entry pc *)
  mutable nregions : int;
  mutable consts : Value.t list;  (* reversed pools *)
  mutable nconsts : int;
  mutable names : Ir.name list;
  mutable nnames : int;
  mutable strs : string list;
  mutable nstrs : int;
  mutable syms : Symbolic.t list;
  mutable nsyms : int;
  mutable irs : Ir.expr list;
  mutable nirs : int;
  mutable nregs : int;
  mutable niregs : int;
  mutable ngens : int;
}

let emit c i =
  if c.len = Array.length c.code then begin
    let grown = Array.make (max 64 (2 * c.len)) B.Ihalt in
    Array.blit c.code 0 grown 0 c.len;
    c.code <- grown
  end;
  c.code.(c.len) <- i;
  c.len <- c.len + 1;
  c.len - 1

let reg c =
  c.nregs <- c.nregs + 1;
  c.nregs - 1

let ireg c =
  c.niregs <- c.niregs + 1;
  c.niregs - 1

let gen_slot c =
  c.ngens <- c.ngens + 1;
  c.ngens - 1

let const_ix c v =
  c.nconsts <- c.nconsts + 1;
  c.consts <- v :: c.consts;
  c.nconsts - 1

let name_ix c nm =
  c.nnames <- c.nnames + 1;
  c.names <- nm :: c.names;
  c.nnames - 1

let str_ix c s =
  c.nstrs <- c.nstrs + 1;
  c.strs <- s :: c.strs;
  c.nstrs - 1

let sym_ix c s =
  c.nsyms <- c.nsyms + 1;
  c.syms <- s :: c.syms;
  c.nsyms - 1

let ir_ix c e =
  c.nirs <- c.nirs + 1;
  c.irs <- e :: c.irs;
  c.nirs - 1

(* Forward jump targets: emit with a placeholder, record how to rebuild
   the instruction once the label binds. *)
type label = { mutable l_pc : int; mutable l_fixups : (int * (int -> B.insn)) list }

let label () = { l_pc = -1; l_fixups = [] }

let emit_to c lbl mk =
  if lbl.l_pc >= 0 then ignore (emit c (mk lbl.l_pc))
  else begin
    let pc = emit c (mk (-1)) in
    lbl.l_fixups <- (pc, mk) :: lbl.l_fixups
  end

let bind c lbl =
  lbl.l_pc <- c.len;
  List.iter (fun (pc, mk) -> c.code.(pc) <- mk lbl.l_pc) lbl.l_fixups;
  lbl.l_fixups <- []

let here c = c.len

(* [frame(i).e] and [frames.e] use frame scopes, not with-scopes — the
   generic With emission would be wrong for them, so they stay on the
   fallback path. *)
let plain_with_lhs = function
  | Ir.Frame _ | Ir.Frames_gen -> false
  | _ -> true

(* Shallow test: does this node compile natively?  (Its children are
   handled independently by [spawn].)  Every arm here must agree with
   the guards on [emit_body]'s arms: the root region is emitted without
   consulting [native], so [emit_body] falls through to its own
   fallback arm on exactly the same shapes. *)
let rec native e =
  match e with
  | Ir.Lit _ | Ir.Name _ | Ir.Underscore -> true
  | Ir.Group a -> native a
  | Ir.Braces _ | Ir.Unary _ | Ir.Incdec _ | Ir.Binary _ | Ir.Index _
  | Ir.Logand _ | Ir.Logor _ | Ir.Filter _ | Ir.Cond _ | Ir.If _ | Ir.Alt _
  | Ir.Seq _ | Ir.Seq_void _ | Ir.Imply _ | Ir.Def_alias _ | Ir.Index_alias _
  | Ir.To _ | Ir.To_inf _ | Ir.Up_to _ | Ir.Reduce _ ->
      true
  | Ir.Dfs (_, step) | Ir.Bfs (_, step) -> Ir.pure_single step
  | Ir.With (_, lhs, _) -> plain_with_lhs lhs
  | _ -> false

let rec operand_of c e =
  match e with
  | Ir.Lit l -> B.Oconst (const_ix c l.Ir.l_value)
  | Ir.Name nm -> B.Oname (name_ix c nm)
  | Ir.Underscore -> B.Ounder
  | Ir.Group a -> operand_of c a
  | _ -> invalid_arg "operand_of: not pure_single"

(* Queue a region for [e]; its body is emitted by the [compile] drain
   loop.  Returns the region id. *)
let region c e =
  let id = c.nregions in
  c.nregions <- c.nregions + 1;
  c.regions <- (id, e) :: c.regions;
  id

(* Emit the spawn of a child generator: a native child gets its own
   region and frame; anything else becomes an Eval_seq dispenser. *)
let spawn c e =
  let g = gen_slot c in
  if native e then ignore (emit c (B.Ispawn (g, region c e)))
  else ignore (emit c (B.Ifallback (g, ir_ix c e)));
  g

(* The standard resume loop over a child generator [a]:
     spawn gA            (then [isolate gA] if asked)
   L: resume rU <- gA, exhausted -> done
     <body rU>           (emitted by [body], may yield)
     jmp L
   done:
   The [done] label is returned unbound so callers can chain (Alt, With
   exhaust paths); [emit_region] binds it to Ihalt. *)
let resume_loop ?(isolate = false) c a body =
  let g = spawn c a in
  if isolate then ignore (emit c (B.Iisolate g));
  let l_next = label () and l_done = label () in
  bind c l_next;
  let r = reg c in
  emit_to c l_done (fun t -> B.Iresume (r, g, t));
  body r l_next;
  emit_to c l_next (fun t -> B.Ijmp t);
  l_done

(* Like [resume_loop], but when the producer is a pure-bound range the
   iteration runs inline in the consumer's own frame — integer-register
   loop, no child spawn, no per-element resume.  This is what makes
   [(1..N) + x] cost one superinstruction per element instead of a frame
   round-trip plus one. *)
let rec value_loop c a body =
  match fused_range a with
  | None -> resume_loop c a body
  | Some fr ->
      let ihi = ireg c and icur = ireg c in
      (match fr with
      | `To (a0, b0) ->
          let ilo = ireg c in
          let ta = reg c in
          ignore (emit c (B.Iload (ta, operand_of c a0)));
          ignore (emit c (B.Ito_int (ilo, ta)));
          let tb = reg c in
          ignore (emit c (B.Iload (tb, operand_of c b0)));
          ignore (emit c (B.Ito_int (ihi, tb)));
          ignore (emit c (B.Iimov (icur, ilo)))
      | `Up_to a0 ->
          let tb = reg c in
          ignore (emit c (B.Iload (tb, operand_of c a0)));
          ignore (emit c (B.Ito_int (ihi, tb)));
          ignore (emit c (B.Iiadd (ihi, -1L)));
          ignore (emit c (B.Iiconst (icur, 0L))));
      let l_next = label () and l_done = label () in
      bind c l_next;
      let d = reg c in
      emit_to c l_done (fun t -> B.Irange_next (d, icur, ihi, t));
      body d l_next;
      emit_to c l_next (fun t -> B.Ijmp t);
      l_done

(* [#/(a..b)] and friends: a reduction over a pure-operand range folds
   into a single instruction. *)
and fused_range inner =
  match inner with
  | Ir.Group a -> fused_range a
  | Ir.To (a, b) when Ir.pure_single a && Ir.pure_single b -> Some (`To (a, b))
  | Ir.Up_to a when Ir.pure_single a -> Some (`Up_to a)
  | _ -> None

(* Emit the full body for one region. *)
let rec emit_region c e =
  let l_done = emit_body c e in
  bind c l_done;
  ignore (emit c B.Ihalt)

(* Emit code that yields [e]'s sequence; returns the unbound exhaust
   label (control jumps there once the sequence is done). *)
and emit_body c e : label =
  match e with
  | Ir.Group a -> emit_body c a
  | Ir.Lit _ | Ir.Name _ | Ir.Underscore ->
      let op = operand_of c e in
      let r = reg c in
      ignore (emit c (B.Iload (r, op)));
      ignore (emit c (B.Iyield r));
      let l_done = label () in
      emit_to c l_done (fun t -> B.Ijmp t);
      l_done
  | Ir.Unary (op, a) ->
      resume_loop c a (fun r _ ->
          let d = reg c in
          ignore (emit c (B.Iunary (op, d, r)));
          ignore (emit c (B.Iyield d)))
  | Ir.Incdec (op, a) ->
      resume_loop c a (fun r _ ->
          let d = reg c in
          ignore (emit c (B.Iincdec (op, d, r)));
          ignore (emit c (B.Iyield d)))
  | Ir.Braces a ->
      resume_loop c a (fun r _ ->
          let d = reg c in
          ignore (emit c (B.Ibraces (d, r)));
          ignore (emit c (B.Iyield d)))
  | Ir.Binary (op, a, b) when Ir.pure_single b ->
      (* superinstruction: the rhs collapses into an inline operand *)
      let rand = operand_of c b in
      value_loop c a (fun r _ ->
          let d = reg c in
          ignore (emit c (B.Ibinary (op, d, r, rand)));
          ignore (emit c (B.Iyield d)))
  | Ir.Binary (op, a, b) ->
      resume_loop c a (fun ru _ ->
          let l_inner =
            resume_loop c b (fun rv _ ->
                let d = reg c in
                ignore (emit c (B.Ibinary (op, d, ru, B.Oreg rv)));
                ignore (emit c (B.Iyield d)))
          in
          bind c l_inner)
  | Ir.Index (a, b) when Ir.pure_single b ->
      let rand = operand_of c b in
      value_loop c a (fun r _ ->
          let d = reg c in
          ignore (emit c (B.Iindex (d, r, rand)));
          ignore (emit c (B.Iyield d)))
  | Ir.Index (a, b) ->
      resume_loop c a (fun ru _ ->
          let l_inner =
            resume_loop c b (fun rv _ ->
                let d = reg c in
                ignore (emit c (B.Iindex (d, ru, B.Oreg rv)));
                ignore (emit c (B.Iyield d)))
          in
          bind c l_inner)
  | Ir.Logand (a, b) ->
      resume_loop c a (fun ru l_next ->
          emit_to c l_next (fun t -> B.Itruth (ru, t));
          let l_inner =
            resume_loop c b (fun rv _ ->
                let d = reg c in
                ignore (emit c (B.Ilogand_sym (d, ru, rv)));
                ignore (emit c (B.Iyield d)))
          in
          bind c l_inner)
  | Ir.Logor (a, b) ->
      resume_loop c a (fun ru l_next ->
          let l_false = label () in
          emit_to c l_false (fun t -> B.Itruth (ru, t));
          let d = reg c in
          ignore (emit c (B.Ilogor_true (d, ru)));
          ignore (emit c (B.Iyield d));
          emit_to c l_next (fun t -> B.Ijmp t);
          bind c l_false;
          let l_inner =
            resume_loop c b (fun rv _ ->
                let d2 = reg c in
                ignore (emit c (B.Ilogor_sym (d2, ru, rv)));
                ignore (emit c (B.Iyield d2)))
          in
          bind c l_inner)
  | Ir.Filter (f, a, b) when Ir.pure_single b ->
      let rand = operand_of c b in
      value_loop c a (fun ru l_next ->
          emit_to c l_next (fun t -> B.Ifilter (f, ru, rand, t));
          ignore (emit c (B.Iyield ru)))
  | Ir.Filter (f, a, b) ->
      (* the general form yields u once per matching v *)
      resume_loop c a (fun ru _ ->
          let l_inner =
            resume_loop c b (fun rv l_inner_next ->
                emit_to c l_inner_next (fun t ->
                    B.Ifilter (f, ru, B.Oreg rv, t));
                ignore (emit c (B.Iyield ru)))
          in
          bind c l_inner)
  | Ir.Cond (cnd, t, f) -> emit_cond c cnd t (Some f)
  | Ir.If (cnd, t, f) -> emit_cond c cnd t f
  | Ir.Alt (a, b) ->
      let l_b = resume_loop c a (fun r _ -> ignore (emit c (B.Iyield r))) in
      bind c l_b;
      resume_loop c b (fun r _ -> ignore (emit c (B.Iyield r)))
  | Ir.Seq (a, b) ->
      let l_b = resume_loop c a (fun _ _ -> ()) in
      bind c l_b;
      resume_loop c b (fun r _ -> ignore (emit c (B.Iyield r)))
  | Ir.Seq_void a -> resume_loop c a (fun _ _ -> ())
  | Ir.Imply (a, b) ->
      resume_loop c a (fun _ _ ->
          let l_inner =
            resume_loop c b (fun rv _ -> ignore (emit c (B.Iyield rv)))
          in
          bind c l_inner)
  | Ir.Def_alias (name, a) ->
      let six = str_ix c name in
      resume_loop c a (fun r _ ->
          ignore (emit c (B.Idef_alias (six, r)));
          ignore (emit c (B.Iyield r)))
  | Ir.Index_alias (a, name) ->
      let six = str_ix c name in
      let ic = ireg c in
      ignore (emit c (B.Iiconst (ic, 0L)));
      resume_loop c a (fun r _ ->
          ignore (emit c (B.Iindex_alias (six, ic)));
          ignore (emit c (B.Iyield r)))
  | Ir.To (a, b) ->
      let ilo = ireg c and ihi = ireg c and icur = ireg c in
      resume_loop c a (fun ru _ ->
          ignore (emit c (B.Ito_int (ilo, ru)));
          let l_inner =
            resume_loop c b (fun rv l_inner_next ->
                ignore (emit c (B.Ito_int (ihi, rv)));
                ignore (emit c (B.Iimov (icur, ilo)));
                let d = reg c in
                let l_r = label () in
                bind c l_r;
                emit_to c l_inner_next (fun t ->
                    B.Irange_next (d, icur, ihi, t));
                ignore (emit c (B.Iyield d));
                emit_to c l_r (fun t -> B.Ijmp t))
          in
          bind c l_inner)
  | Ir.To_inf a ->
      let icur = ireg c and istart = ireg c in
      resume_loop c a (fun ru _ ->
          ignore (emit c (B.Ito_int (icur, ru)));
          ignore (emit c (B.Iimov (istart, icur)));
          let d = reg c in
          let l_r = label () in
          bind c l_r;
          ignore (emit c (B.Irange_from (d, icur, istart)));
          ignore (emit c (B.Iyield d));
          emit_to c l_r (fun t -> B.Ijmp t))
  | Ir.Up_to a ->
      let ihi = ireg c and icur = ireg c in
      resume_loop c a (fun ru l_next ->
          ignore (emit c (B.Ito_int (ihi, ru)));
          ignore (emit c (B.Iiadd (ihi, -1L)));
          ignore (emit c (B.Iiconst (icur, 0L)));
          let d = reg c in
          let l_r = label () in
          bind c l_r;
          emit_to c l_next (fun t -> B.Irange_next (d, icur, ihi, t));
          ignore (emit c (B.Iyield d));
          emit_to c l_r (fun t -> B.Ijmp t))
  | Ir.Reduce (r, inner, psym) ->
      let six = sym_ix c psym in
      let d = reg c in
      (match fused_range inner with
      | Some (`To (a, b)) ->
          let oa = operand_of c a in
          let ob = operand_of c b in
          ignore (emit c (B.Ireduce_to (d, r, oa, ob, six)))
      | Some (`Up_to a) ->
          let oa = operand_of c a in
          ignore (emit c (B.Ireduce_upto (d, r, oa, six)))
      | None ->
          let g = spawn c inner in
          ignore (emit c (B.Ireduce (d, r, g, six))));
      ignore (emit c (B.Iyield d));
      let l_done = label () in
      emit_to c l_done (fun t -> B.Ijmp t);
      l_done
  | Ir.Dfs (roots, step) | Ir.Bfs (roots, step) when Ir.pure_single step ->
      let df = match e with Ir.Dfs _ -> true | _ -> false in
      let rand = operand_of c step in
      let groots = spawn c roots in
      let g = gen_slot c in
      ignore (emit c (B.Ichase (g, groots, rand, df)));
      let l_next = label () and l_done = label () in
      bind c l_next;
      let r = reg c in
      emit_to c l_done (fun t -> B.Iresume (r, g, t));
      ignore (emit c (B.Iyield r));
      emit_to c l_next (fun t -> B.Ijmp t);
      l_done
  | Ir.With (kind, lhs, rhs) when plain_with_lhs lhs && Ir.pure_single rhs ->
      (* fused member pull: scope push, one slot/operand read, yield —
         the pop runs on re-entry, so the scope lingers over the yielded
         value exactly like [Eval_seq.scoped] *)
      let rand = operand_of c rhs in
      resume_loop c lhs (fun ru _ ->
          ignore (emit c (B.Ipush_with (kind, ru)));
          let d = reg c in
          ignore (emit c (B.Iload (d, rand)));
          ignore (emit c (B.Iyield d));
          ignore (emit c B.Ipop_scope))
  | Ir.With (kind, lhs, rhs) when plain_with_lhs lhs ->
      resume_loop c lhs (fun ru l_next ->
          ignore (emit c (B.Ipush_with (kind, ru)));
          let g = spawn c rhs in
          let l_rnext = label () and l_exh = label () in
          bind c l_rnext;
          let rv = reg c in
          emit_to c l_exh (fun t -> B.Iresume (rv, g, t));
          ignore (emit c (B.Iyield rv));
          emit_to c l_rnext (fun t -> B.Ijmp t);
          bind c l_exh;
          ignore (emit c B.Ipop_scope);
          emit_to c l_next (fun t -> B.Ijmp t))
  | _ ->
      (* a non-native root (fallback regions are only reachable through
         [spawn], which guards with [native]) *)
      let g = gen_slot c in
      ignore (emit c (B.Ifallback (g, ir_ix c e)));
      let l_next = label () and l_done = label () in
      bind c l_next;
      let r = reg c in
      emit_to c l_done (fun t -> B.Iresume (r, g, t));
      ignore (emit c (B.Iyield r));
      emit_to c l_next (fun t -> B.Ijmp t);
      l_done

(* The condition runs isolated, as in [Eval_seq]: the with-scopes it
   keeps open until exhausted must not capture the branches' names. *)
and emit_cond c cnd t f =
  resume_loop ~isolate:true c cnd (fun ru l_next ->
      let l_false = label () in
      emit_to c l_false (fun tgt -> B.Itruth (ru, tgt));
      let l_t =
        resume_loop c t (fun rv _ -> ignore (emit c (B.Iyield rv)))
      in
      bind c l_t;
      (match f with
      | None -> bind c l_false
      | Some fe ->
          emit_to c l_next (fun tgt -> B.Ijmp tgt);
          bind c l_false;
          let l_f =
            resume_loop c fe (fun rv _ -> ignore (emit c (B.Iyield rv)))
          in
          bind c l_f))

let compile (ir : Ir.expr) : B.program =
  let c =
    {
      code = Array.make 64 B.Ihalt;
      len = 0;
      regions = [];
      entries = [];
      nregions = 0;
      consts = [];
      nconsts = 0;
      names = [];
      nnames = 0;
      strs = [];
      nstrs = 0;
      syms = [];
      nsyms = 0;
      irs = [];
      nirs = 0;
      nregs = 0;
      niregs = 0;
      ngens = 0;
    }
  in
  let root = region c ir in
  assert (root = 0);
  (* drain the worklist: emitting one region's body may enqueue more *)
  let rec drain () =
    match c.regions with
    | [] -> ()
    | (id, e) :: rest ->
        c.regions <- rest;
        c.entries <- (id, c.len) :: c.entries;
        emit_region c e;
        drain ()
  in
  drain ();
  let entries = Array.make (max 1 c.nregions) 0 in
  List.iter (fun (id, pc) -> entries.(id) <- pc) c.entries;
  let of_rev n l =
    let a = Array.of_list (List.rev l) in
    assert (Array.length a = n);
    a
  in
  {
    B.insns = Array.sub c.code 0 c.len;
    entries;
    consts = of_rev c.nconsts c.consts;
    names = of_rev c.nnames c.names;
    strs = of_rev c.nstrs c.strs;
    syms = of_rev c.nsyms c.syms;
    irs = of_rev c.nirs c.irs;
    nregs = c.nregs;
    niregs = c.niregs;
    ngens = c.ngens;
    quiet = Ir.silent ir;
  }
