module Tenv = Duel_ctype.Tenv
module Dbgi = Duel_dbgi.Dbgi

type engine = Seq_engine | Sm_engine | Vm_engine

type t = {
  env : Env.t;
  mutable engine : engine;
  mutable max_values : int;
  mutable lower : bool;
  vstats : Vm.stats;
  mutable vm_plan : (Ir.expr * Bytecode.program) option;
}

(* The resolution cache snoops the same write-generation counter as the
   data cache (when the interface has one): a store that bypassed us
   invalidates cached global slots exactly when it drops cached lines. *)
let create ?(engine = Seq_engine) dbg =
  let probe = Duel_dbgi.Dcache.coherence_probe dbg in
  {
    env = Env.create ?probe dbg;
    engine;
    max_values = 0;
    lower = true;
    vstats = Vm.fresh_stats ();
    vm_plan = None;
  }

let parse session src =
  let tenv = session.env.Env.dbg.Dbgi.tenv in
  let is_typename name = Tenv.find_typedef tenv name <> None in
  Parser.parse ~is_typename ~abi:session.env.Env.dbg.Dbgi.abi src

let compile session ast =
  let mode = if session.lower then Lower.Cached else Lower.Dynamic in
  Lower.lower ~mode session.env ast

(* The VM engine compiles the IR once and re-uses the program on
   re-drives of the same tree (the memo is keyed by physical identity —
   exactly the benchmark/watchpoint pattern). *)
let vm_program session ir =
  match session.vm_plan with
  | Some (ir0, prog) when ir0 == ir -> prog
  | _ ->
      let prog = Compile.compile ir in
      session.vm_plan <- Some (ir, prog);
      prog

let eval_ir session ir =
  match session.engine with
  | Seq_engine -> Eval_seq.eval session.env ir
  | Sm_engine -> Eval_sm.eval session.env ir
  | Vm_engine ->
      Vm.eval ~stats:session.vstats session.env (vm_program session ir)

let eval session ast = eval_ir session (compile session ast)

(* Commands are flush points: any stores the data cache coalesced during
   evaluation reach the target before control returns, so the inferior's
   own code (and tests reading memory directly) see consistent state. *)
let flush_writes session = Duel_dbgi.Dcache.flush session.env.Env.dbg

let drive_ir session ir =
  let depth = Env.scope_depth session.env in
  let n = Seq.fold_left (fun acc _ -> acc + 1) 0 (eval_ir session ir) in
  Env.restore_scope_depth session.env depth;
  flush_writes session;
  n

let drive session ast = drive_ir session (compile session ast)

let format_value session v =
  let threshold = session.env.Env.flags.Env.compress in
  let sym = Symbolic.compress ~threshold (Symbolic.to_string v.Value.sym) in
  (* A Duel_error raised while rendering (e.g. fetching an unreadable
     scalar lvalue) propagates: the command reports the error itself. *)
  sym ^ " = " ^ Printer.value_to_string session.env v

(* Values of a command ending in ';' are evaluated for side effects only
   and not displayed. *)
let rec silent = function
  | Ast.Seq_void _ -> true
  | Ast.Seq (_, b) -> silent b
  | _ -> false

(* The shared command wrapper: evaluate a lazily-produced sequence,
   format (or count) its values, map every failure to the session's
   error lines, restore the scope stack, flush coalesced writes. *)
let exec_with session (produce : unit -> bool * Value.t Seq.t) =
  let depth = Env.scope_depth session.env in
  let lines = ref [] in
  let emit line = lines := line :: !lines in
  (try
     let quiet, seq = produce () in
     let count = ref 0 in
     let consume v =
       incr count;
       if not quiet then
         if session.max_values = 0 || !count <= session.max_values then
           emit (format_value session v)
         else if !count = session.max_values + 1 then emit "..."
     in
     Seq.iter consume seq
   with
  | Lexer.Error (msg, pos) ->
      emit (Printf.sprintf "syntax error at character %d: %s" pos msg)
  | Parser.Error (msg, pos) ->
      emit (Printf.sprintf "parse error at character %d: %s" pos msg)
  | Error.Duel_error err -> emit (Error.to_string err)
  | Dbgi.Target_fault { addr; len } ->
      emit
        (Printf.sprintf "Illegal memory reference: address 0x%x (%d-byte access)"
           addr len)
  | Dbgi.Target_transient { addr; len } ->
      (* the transport flaked, not the program: the command failed but the
         session (aliases, scopes, caches) is intact — rerunning it is the
         right response, and the data cache has already marked itself
         stale so the rerun re-reads the target *)
      emit
        (Printf.sprintf
           "Transient target fault: address 0x%x (%d-byte access); the \
            command may be retried"
           addr len)
  | Stack_overflow -> emit "evaluation too deep (stack overflow)"
  | Out_of_memory as e -> raise e
  | e ->
      (* a command prompt is a main loop: surface anything a backend or
         called target function may throw, then keep the session alive *)
      emit (Printexc.to_string e));
  Env.restore_scope_depth session.env depth;
  (* The end-of-command flush talks to the target too: over a flaky
     transport it can fault after a perfectly good evaluation.  Keep the
     contract that exec never raises — the cache keeps the unflushed
     ranges buffered and marks itself stale, so the next flush point
     retries the batch. *)
  (try flush_writes session with
  | Dbgi.Target_fault { addr; len } ->
      emit
        (Printf.sprintf
           "Illegal memory reference: address 0x%x (%d-byte access)" addr len)
  | Dbgi.Target_transient { addr; len } ->
      emit
        (Printf.sprintf
           "Transient target fault: address 0x%x (%d-byte access); the \
            command may be retried"
           addr len));
  List.rev !lines

let exec session src =
  exec_with session (fun () ->
      let ast = parse session src in
      (silent ast, eval session ast))

(* Run an already-compiled program (the serve layer's plan cache): same
   output contract as [exec] on the program's source text.  Always the
   VM — a cached plan *is* VM bytecode. *)
let exec_program session prog =
  exec_with session (fun () ->
      ( prog.Bytecode.quiet,
        Vm.eval ~stats:session.vstats session.env prog ))

let exec_string session src = String.concat "\n" (exec session src)

let cache_stats session =
  let dbg = session.env.Env.dbg in
  match Duel_dbgi.Dcache.stats dbg with
  | None -> [ "memory cache: off" ]
  | Some st ->
      Printf.sprintf "memory cache: on (%d lines resident)"
        (Duel_dbgi.Dcache.cached_lines dbg)
      :: Duel_dbgi.Dcache.to_lines st

let prefetch_stats session =
  let dbg = session.env.Env.dbg in
  match Duel_dbgi.Prefetch.stats dbg with
  | None ->
      [
        (if Duel_dbgi.Dcache.is_cached dbg then
           "prefetch: off (no read-ahead attached; set prefetch on attaches it)"
         else "prefetch: off (no data cache to read ahead into)");
      ]
  | Some st ->
      Duel_dbgi.Prefetch.to_lines ~on:(Duel_dbgi.Prefetch.enabled dbg) st

let set_prefetch session on =
  let dbg = session.env.Env.dbg in
  (* started with --no-prefetch: attach lazily if there is a cache *)
  if on then ignore (Duel_dbgi.Prefetch.attach dbg);
  Duel_dbgi.Prefetch.set_enabled dbg on

let lower_stats session =
  let ls = session.env.Env.lstats in
  [
    Printf.sprintf "lowering: %s" (if session.lower then "on" else "off");
    Printf.sprintf "slot lookups: %d hits, %d misses (%d stale), %d dynamic"
      ls.Env.l_hits ls.Env.l_misses ls.Env.l_stale ls.Env.l_dynamic;
  ]

let vm_stats session =
  let vs = session.vstats in
  [
    Printf.sprintf "vm engine: %s"
      (match session.engine with
      | Vm_engine -> "on (bytecode)"
      | Seq_engine -> "off (seq engine)"
      | Sm_engine -> "off (sm engine)");
    Printf.sprintf "dispatch: %d instructions, %d superinstructions"
      vs.Vm.v_dispatch vs.Vm.v_super;
    Printf.sprintf "frames: %d allocated, %d fallback generators, %d fused \
                    reduce elements"
      vs.Vm.v_frames vs.Vm.v_fallback vs.Vm.v_fused;
  ]
