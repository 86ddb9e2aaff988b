(** The compiled form of a DUEL command: a flat instruction array with a
    constant pool.

    {!Compile} translates {!Ir.expr} into one of these; {!Vm} executes
    it.  Every generator subexpression becomes a {e region} — a
    contiguous run of instructions entered through {!program.entries} —
    executed in its own heap-allocated resumption frame, so a suspended
    traversal is a plain value (see {!Vm.frame}).  Sub-generators are
    wired with [Ispawn]/[Iresume]; anything the compiler does not handle
    natively falls back to an {!Eval_seq} dispenser via [Ifallback],
    which keeps the reference semantics bit-for-bit on the long tail.

    Superinstructions cover the hot shapes the benches expose: binary /
    index / filter ops whose right operand is {!Ir.pure_single} take an
    inline {!operand} instead of a nested region; [-->]-chase with a
    single-name step runs as one [Ichase] generator pulling child
    pointers straight through {!Semantics.name_value} (and so the data
    cache); [..] ranges iterate in integer registers ([Irange_next]);
    and [#/]-style reductions over pure ranges fold entirely inside the
    VM ([Ireduce_to]/[Ireduce_upto]) so the accumulator never
    materializes as a sequence. *)

(** An inline operand for superinstructions — the compiled form of an
    {!Ir.pure_single} expression (evaluated exactly like
    {!Semantics.single}). *)
type operand =
  | Oreg of int  (** a value register *)
  | Oconst of int  (** index into {!program.consts} *)
  | Oname of int  (** index into {!program.names}: resolved through slots *)
  | Ounder  (** [_]: the innermost scope's subject *)

type insn =
  (* straight-line value ops (registers are per-activation) *)
  | Iload of int * operand  (** dst <- operand *)
  | Iunary of Ast.unop * int * int  (** dst <- op src *)
  | Iincdec of Ast.incdec * int * int
  | Ibraces of int * int  (** dst <- src with literal symbolic *)
  | Ibinary of Ast.binop * int * int * operand  (** dst <- lhs op operand *)
  | Iindex of int * int * operand  (** dst <- lhs[operand] *)
  | Ilogand_sym of int * int * int  (** dst <- v under [u && v] symbolic *)
  | Ilogor_sym of int * int * int  (** dst <- v under [u || v] symbolic *)
  | Ilogor_true of int * int  (** dst <- 1 carrying u's symbolic *)
  | Idef_alias of int * int  (** strs index, src: [name := src] *)
  | Iindex_alias of int * int  (** strs index, counter ireg: [e # name] *)
  | Ipush_with of Ast.with_kind * int  (** push [with]-scope over src *)
  | Ipop_scope
  (* integer registers: range generators and counters *)
  | Ito_int of int * int  (** ireg dst <- to_int64 src *)
  | Iiconst of int * int64
  | Iiadd of int * int64
  | Iimov of int * int  (** ireg dst <- ireg src *)
  | Irange_next of int * int * int * int
      (** dst, cur, hi, exhaust pc: yield machinery for [lo..hi] *)
  | Irange_from of int * int * int
      (** dst, cur, start: [lo..] never exhausts on its own — the VM
          bounds [cur - start] by [expansion_limit] *)
  (* control *)
  | Ijmp of int
  | Itruth of int * int  (** fall through if truthy, else jump *)
  | Ifilter of Ast.filter * int * operand * int
      (** fall through if [u op? operand] holds, else jump *)
  (* generators *)
  | Ispawn of int * int  (** gen slot <- fresh frame for region id *)
  | Ifallback of int * int
      (** gen slot <- {!Eval_seq} dispenser over {!program.irs} entry *)
  | Iisolate of int
      (** gen slot <- the same generator, run under its own copy of the
          scope stack as it is now: the condition of [if] and [?:] *)
  | Ichase of int * int * operand * bool
      (** gen slot, roots gen slot, step operand, depth-first? — the
          fused [-->]-with-single-step traversal *)
  | Iresume of int * int * int  (** dst <- next value of gen, else jump *)
  | Ireduce of int * Ast.reduction * int * int
      (** dst, reduction, gen slot, sym index: drain and fold in the VM *)
  | Ireduce_to of int * Ast.reduction * operand * operand * int
      (** dst <- reduction over [lo..hi], both operands pure: the fully
          fused loop — the accumulator never leaves an int64 *)
  | Ireduce_upto of int * Ast.reduction * operand * int
      (** dst <- reduction over [0..op-1] *)
  | Iyield of int  (** suspend the frame, producing a value *)
  | Ihalt  (** region exhausted (sticky) *)

type program = {
  insns : insn array;
  entries : int array;  (** region id -> entry pc; region 0 is the root *)
  consts : Value.t array;  (** literal pool (Lower's interned values) *)
  names : Ir.name array;  (** shared slot records: the inline name cache *)
  strs : string array;  (** alias names *)
  syms : Symbolic.t array;  (** precomputed reduction symbolics *)
  irs : Ir.expr array;  (** fallback subtrees, evaluated by {!Eval_seq} *)
  nregs : int;
  niregs : int;
  ngens : int;
  quiet : bool;  (** [;]-terminated command: values not displayed *)
}

(** Share the immutable parts (instructions, constants, symbolics),
    refresh the mutable ones: name-slot records are stamped against one
    {!Env}, so a program cached across sessions must hand each user its
    own copies ({!Ir.clone_name}), including the names buried in
    fallback subtrees. *)
let clone p =
  {
    p with
    names = Array.map Ir.clone_name p.names;
    irs = Array.map Ir.clone p.irs;
  }
