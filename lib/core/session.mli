(** A DUEL session: the [duel] command.

    Owns the environment (aliases persist across commands, as in the
    original), parses command strings, lowers the AST to slotted IR
    ({!Lower}), drives the selected evaluation engine, and formats each
    produced value as the paper does — [symbolic = value] with
    [-->a[[n]]] compression — or a structured error message ("Illegal
    memory reference in ...: sym = lvalue 0x..").
*)

type engine =
  | Seq_engine  (** the reference recursive-[Seq.t] evaluator *)
  | Sm_engine  (** the explicit state-machine evaluator *)
  | Vm_engine  (** the bytecode VM ({!Compile} + {!Vm}) *)

type t = {
  env : Env.t;
  mutable engine : engine;
  mutable max_values : int;  (** cap on printed values per command; 0 = no cap *)
  mutable lower : bool;
      (** [true] (default): lower with resolution slots; [false]: the
          ablation — identical IR with every slot pinned dynamic
          ([set lower off]) *)
  vstats : Vm.stats;  (** VM counters, accumulated across commands *)
  mutable vm_plan : (Ir.expr * Bytecode.program) option;
      (** one-entry compile memo keyed by physical IR identity, so
          re-driving the same tree (benchmarks, watchpoints) compiles
          once *)
}

val create : ?engine:engine -> Duel_dbgi.Dbgi.t -> t
(** Wires the environment's external-state probe to the data cache's
    coherence probe when [dbg] was wrapped with one, so slot caches see
    the same store-generation the dcache snoops. *)

val parse : t -> string -> Ast.expr
(** @raise Parser.Error / Lexer.Error *)

val compile : t -> Ast.expr -> Ir.expr
(** The lowering step, honouring the session's [lower] flag. *)

val eval : t -> Ast.expr -> Value.t Seq.t
(** [compile] then evaluate with the session's engine (no printing). *)

val eval_ir : t -> Ir.expr -> Value.t Seq.t
(** Evaluate already-lowered IR (re-running a compiled command hits the
    slots populated by earlier runs). *)

val drive : t -> Ast.expr -> int
(** Evaluate and discard all values (the benchmark path: no display
    formatting); returns the number of values produced. *)

val drive_ir : t -> Ir.expr -> int
(** [drive] for pre-compiled IR — benchmarks separate the one-time
    lowering cost from steady-state evaluation with this. *)

val format_value : t -> Value.t -> string
(** One output line: [symbolic = value]. *)

val exec : t -> string -> string list
(** The [duel] command: parse, lower, evaluate, format.  All errors
    (lexical, syntax, evaluation) come back as output lines rather than
    exceptions; the scope stack is restored afterwards, whatever
    happened. *)

val exec_program : t -> Bytecode.program -> string list
(** [exec] for an already-compiled program (the serve layer's plan
    cache): runs it on the VM with the same output and error contract as
    [exec] on the program's source text.  Share programs across sessions
    only via {!Bytecode.clone}. *)

val exec_string : t -> string -> string
(** [exec] joined with newlines. *)

val cache_stats : t -> string list
(** Human-readable {!Duel_dbgi.Dcache} counters for the session's
    debugger interface (the [info cache] command), or a single
    "memory cache: off" line when the interface is uncached.  [exec] and
    [drive] flush the cache's coalesced writes when a command finishes,
    so memory is consistent between commands. *)

val prefetch_stats : t -> string list
(** Human-readable {!Duel_dbgi.Prefetch} counters for the session's
    interface (the [info prefetch] command): block fills and the
    speculative lines they issued, useful, wasted and still resident —
    or a single "prefetch: off" line when no read-ahead is attached. *)

val set_prefetch : t -> bool -> bool
(** Turn read-ahead on or off on the session's interface (the [set
    prefetch on|off] command; off means one-line fills), attaching it
    first if the interface is cached but was started without it.
    [false] when there is no data cache to read ahead into. *)

val lower_stats : t -> string list
(** Human-readable resolution-cache counters (the [info lower] command):
    whether lowering is on, plus slot hit/miss/stale/dynamic counts from
    {!Env.lstats}. *)

val vm_stats : t -> string list
(** Human-readable VM counters (the [info vm] command): engine mode,
    instruction dispatches, superinstruction hits, frame allocations,
    fallback generators and fused reduce elements. *)
