(* oduel — an interactive DUEL session against a simulated debuggee.

   Two modes:
   - scenario mode (default): pick a prebuilt debuggee and explore it with
     DUEL expressions, emulating the paper's `gdb> duel <expr>` sessions;
   - program mode (--program file.c): load a mini-C program, set
     breakpoints/watchpoints/assertions with DUEL conditions, run
     functions, and interrogate the paused program — the paper's
     Discussion section as a working debugger.

   `help` lists commands; anything that is not a command is evaluated as
   a DUEL expression. *)

module Session = Duel_core.Session
module Env = Duel_core.Env
module Inferior = Duel_target.Inferior
module Scenarios = Duel_scenarios.Scenarios
module Interp = Duel_minic.Interp
module Debugger = Duel_debug.Debugger
module Chaos = Duel_chaos.Chaos
module Backend = Duel_backend.Backend
module Fleet = Duel_fleet.Fleet
module Fdiff = Duel_fleet.Diff

let make_inferior scenario =
  match Backend.scenario_of_name scenario with
  | Ok inf -> inf
  | Error msg ->
      Printf.eprintf "unknown scenario %s: %s\n" scenario msg;
      exit 2

let help_text =
  {|Commands:
  duel <expr>            evaluate a DUEL expression (the `duel` prefix is optional)
  set symbolic on|off    compute symbolic values (default on)
  set cycles on|off      cycle detection for --> (default off)
  set engine vm|ir|ast   evaluation engine: bytecode VM, lowered-IR walker
                         (default; alias seq, plus sm for the state machine),
                         or the unlowered ablation
  set lower on|off       lower names to cached resolution slots (default on)
  set prefetch on|off    page-block read-ahead on wire misses (default on)
  set compress <n>       -->a[[n]] compression threshold (default 4)
  set limit <n>          cap displayed values (0 = unlimited)
  info scenario          describe the loaded debuggee
  info backend           the resolved --target spec tree, caps, health
  info cache             target-memory data cache counters (see --no-cache)
  info prefetch          read-ahead counters (see --no-prefetch)
  info lower             name-resolution cache counters (hits/misses/stale)
  info vm                bytecode-VM counters (dispatch/superinsns/frames)
  info chaos             fault-injection and retry counters (see --chaos)
  help                   this text
  quit                   exit
With --program file.c also:
  run <func> [ints...]   run a mini-C function under the debugger
  break <func>[:line] [if <duel-cond>]
  watch <duel-expr>      stop when the expression's values change
  assert <duel-expr>     stop when any produced value is zero
  delete <id>            remove a breakpoint/watchpoint/assertion
  funcs                  list program functions
At a stop prompt: any DUEL expression, plus `continue` and `abort`.
Examples from the paper:
  x[1..4,8,12..50] >? 5 <? 10
  (hash[..1024] !=? 0)->scope >? 5
  hash[0]-->next->scope
  L-->next#i->value ==? L-->next#j->value => if (i < j) L-->next[[i,j]]->value|}

let scenario_info scenario =
  match scenario with
  | "all" ->
      "Kitchen-sink debuggee: hash (struct symbol *[1024]), L, head \
       (struct node *), root (struct tnode *), x[100], w[10], v[8], s, \
       argc/argv, paint (enum color), pk (bit-fields), dd, i0; 3 frames \
       of fib; libc printf/puts/strlen/strcmp/strchr/abs/atoi/malloc/free."
  | "symtab" -> "Just the hash symbol table."
  | "faulty" -> "cyc (cyclic list), dang (dangling tail), lone (NULL)."
  | s -> s

let on_off flags field value =
  match value with
  | "on" -> field flags true
  | "off" -> field flags false
  | _ -> print_endline "expected on or off"

let flush_target inf =
  let out = Inferior.take_output inf in
  if out <> "" then begin
    print_string out;
    if out.[String.length out - 1] <> '\n' then print_newline ()
  end

let eval_and_print session inf line =
  let expr =
    let t = String.trim line in
    if String.length t > 5 && String.sub t 0 5 = "duel " then
      String.sub t 5 (String.length t - 5)
    else t
  in
  List.iter print_endline (Session.exec session expr);
  flush_target inf

(* --- program mode: breakpoint commands ---------------------------------- *)

let parse_break_spec rest =
  (* <func>[:line] [if <cond>] *)
  let find_if s =
    let n = String.length s in
    let rec go i =
      if i + 4 > n then None
      else if String.sub s i 4 = " if " then Some i
      else go (i + 1)
    in
    go 0
  in
  let cond, spec =
    match find_if rest with
    | Some i ->
        ( Some (String.trim (String.sub rest (i + 4) (String.length rest - i - 4))),
          String.trim (String.sub rest 0 i) )
    | None -> (None, String.trim rest)
  in
  match String.split_on_char ':' spec with
  | [ func ] -> (func, None, cond)
  | [ func; line ] -> (func, int_of_string_opt line, cond)
  | _ -> (spec, None, cond)

let stop_prompt dbg reason =
  Printf.printf "stopped: %s\n" (Debugger.describe_stop reason);
  let rec loop () =
    print_string "(stopped) duel> ";
    flush stdout;
    match input_line stdin with
    | "continue" | "c" -> Debugger.Continue
    | "abort" | "a" -> Debugger.Abort
    | "" -> loop ()
    | line ->
        List.iter print_endline (Debugger.query dbg line);
        loop ()
    | exception End_of_file -> Debugger.Abort
  in
  loop ()

let handle_program_command dbg line =
  let words =
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun w -> w <> "")
  in
  match words with
  | "run" :: func :: args ->
      let args = List.filter_map int_of_string_opt args in
      (match Debugger.run_int dbg func args with
      | Ok v -> Printf.printf "%s returned %Ld\n" func v
      | Error msg -> Printf.printf "stopped: %s\n" msg);
      true
  | "break" :: rest ->
      let func, line, cond = parse_break_spec (String.concat " " rest) in
      let id = Debugger.break_at dbg ?condition:cond ?line func in
      Printf.printf "breakpoint %d at %s%s%s\n" id func
        (match line with Some l -> Printf.sprintf ":%d" l | None -> "")
        (match cond with Some c -> " if " ^ c | None -> "");
      true
  | "watch" :: rest ->
      let expr = String.concat " " rest in
      Printf.printf "watchpoint %d on %s\n" (Debugger.watch dbg expr) expr;
      true
  | "assert" :: rest ->
      let expr = String.concat " " rest in
      Printf.printf "assertion %d on %s\n" (Debugger.add_assertion dbg expr) expr;
      true
  | [ "delete"; id ] ->
      (match int_of_string_opt id with
      | Some id -> Debugger.delete dbg id
      | None -> print_endline "expected a numeric id");
      true
  | [ "funcs" ] ->
      List.iter print_endline
        (List.sort compare (Interp.functions (Debugger.interp dbg)));
      true
  | _ -> false

let handle_command session inf scenario program built line =
  let flags = session.Session.env.Env.flags in
  match String.split_on_char ' ' (String.trim line) with
  | [ "" ] -> ()
  | [ "help" ] -> print_endline help_text
  | [ "info"; "scenario" ] -> print_endline (scenario_info scenario)
  | [ "info"; "backend" ] -> (
      match built with
      | Some b -> List.iter print_endline (Backend.describe b)
      | None -> print_endline "backend: debugger-owned (program mode)")
  | [ "info"; "cache" ] ->
      List.iter print_endline (Session.cache_stats session)
  | [ "info"; "prefetch" ] ->
      List.iter print_endline (Session.prefetch_stats session)
  | [ "info"; "lower" ] ->
      List.iter print_endline (Session.lower_stats session)
  | [ "info"; "vm" ] -> List.iter print_endline (Session.vm_stats session)
  | [ "info"; "chaos" ] -> (
      match built with
      | Some b when b.Backend.b_rigs <> [] ->
          List.iter
            (fun (label, r) ->
              Printf.printf "%s:\n" label;
              List.iter print_endline (Chaos.rig_report r))
            b.Backend.b_rigs
      | _ ->
          print_endline
            "chaos: off (enable with --chaos or a +chaos(...) spec)")
  | [ "set"; "symbolic"; v ] -> on_off flags (fun f b -> f.Env.symbolic <- b) v
  | [ "set"; "cycles"; v ] -> on_off flags (fun f b -> f.Env.cycle_detect <- b) v
  | [ "set"; "engine"; "seq" ] -> session.Session.engine <- Session.Seq_engine
  | [ "set"; "engine"; "sm" ] -> session.Session.engine <- Session.Sm_engine
  | [ "set"; "engine"; "vm" ] -> session.Session.engine <- Session.Vm_engine
  | [ "set"; "engine"; "ir" ] ->
      (* lowered IR on the reference walker — the VM's comparison point *)
      session.Session.engine <- Session.Seq_engine;
      session.Session.lower <- true
  | [ "set"; "engine"; "ast" ] ->
      (* the unlowered ablation: same walker, every slot pinned dynamic *)
      session.Session.engine <- Session.Seq_engine;
      session.Session.lower <- false
  | [ "set"; "lower"; "on" ] -> session.Session.lower <- true
  | [ "set"; "lower"; "off" ] -> session.Session.lower <- false
  | [ "set"; "prefetch"; (("on" | "off") as v) ] ->
      if not (Session.set_prefetch session (v = "on")) then
        print_endline "prefetch: no data cache to read ahead into"
  | [ "set"; "prefetch"; _ ] -> print_endline "expected on or off"
  | [ "set"; "compress"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 2 -> flags.Env.compress <- n
      | _ -> print_endline "expected an integer >= 2")
  | [ "set"; "limit"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 0 -> session.Session.max_values <- n
      | _ -> print_endline "expected a non-negative integer")
  | _ -> (
      match program with
      | Some dbg when handle_program_command dbg line -> flush_target inf
      | _ -> eval_and_print session inf line)

let repl session inf scenario program built =
  Printf.printf
    "oduel — DUEL on a simulated debuggee (%s). Type help for help.\n"
    (match program with
    | Some _ -> "mini-C program loaded"
    | None -> "target: " ^ scenario);
  let rec loop () =
    print_string "duel> ";
    flush stdout;
    match input_line stdin with
    | "quit" | "exit" -> ()
    | line ->
        (try handle_command session inf scenario program built line
         with e -> Printf.printf "error: %s\n" (Printexc.to_string e));
        loop ()
    | exception End_of_file -> ()
  in
  loop ()

(* "--chaos seed=N,profile=P" (either part optional, a bare word is a
   profile) — kept as a deprecated alias that rewrites into a
   +chaos(...) decorator on the synthesized --target spec. *)
let parse_chaos spec =
  let seed = ref 0 and profile = ref "mild" in
  List.iter
    (fun part ->
      let part = String.trim part in
      match String.index_opt part '=' with
      | None -> if part <> "" then profile := part
      | Some i -> (
          let k = String.sub part 0 i
          and v = String.sub part (i + 1) (String.length part - i - 1) in
          match (k, int_of_string_opt v) with
          | "seed", Some n -> seed := n
          | "seed", None ->
              Printf.eprintf "--chaos: bad seed %s\n" v;
              exit 2
          | "profile", _ -> profile := v
          | _ ->
              Printf.eprintf "--chaos: unknown key %s (want seed=, profile=)\n" k;
              exit 2))
    (String.split_on_char ',' spec);
  (match Chaos.profile_of_string !profile with
  | Ok _ -> ()
  | Error msg ->
      Printf.eprintf "--chaos: %s\n" msg;
      exit 2);
  (!seed, !profile)

(* The legacy flags, rewritten into a backend spec.  --rsp --chaos used
   to get the byte mangler on the loopback wire for free; the rewritten
   spec keeps that wiring explicit. *)
let spec_of_legacy scenario use_rsp no_cache no_prefetch chaos =
  let base = (if use_rsp then "rsp:" else "direct:") ^ scenario in
  let mangle, chaos_deco =
    match chaos with
    | None -> ("", "")
    | Some spec ->
        let seed, profile = parse_chaos spec in
        ( (if use_rsp then
             Printf.sprintf "+mangle(seed=%d,profile=corrupt,rate=0.01)" seed
           else ""),
          Printf.sprintf "+chaos(seed=%d,profile=%s)" seed profile )
  in
  base ^ mangle ^ chaos_deco
  ^ (if no_cache then "" else "+cache")
  ^ if no_cache || no_prefetch then "" else "+prefetch"

let build_target ?make_inf spec_str =
  match Backend.of_string ?make_inf spec_str with
  | Ok built -> built
  | Error msg ->
      Printf.eprintf "oduel: bad target %s: %s\n" spec_str msg;
      exit 2

(* --engine names: vm (bytecode), ir (lowered walker; seq is the legacy
   alias), sm (state machine), ast (unlowered walker — the ablation,
   which also pins lowering off). *)
let engine_of_string s =
  match s with
  | "sm" -> (Session.Sm_engine, None)
  | "vm" -> (Session.Vm_engine, None)
  | "ast" -> (Session.Seq_engine, Some false)
  | _ -> (Session.Seq_engine, None)

let run target scenario engine use_rsp no_cache no_prefetch chaos program_file
    exprs =
  let engine, lower_override = engine_of_string engine in
  let program_src =
    Option.map
      (fun path ->
        let ic = open_in_bin path in
        let n = in_channel_length ic in
        let src = really_input_string ic n in
        close_in ic;
        src)
      program_file
  in
  let spec_str =
    match target with
    | Some t -> t
    | None -> spec_of_legacy scenario use_rsp no_cache no_prefetch chaos
  in
  let inf, program, session, built =
    match program_src with
    | Some src ->
        if target <> None || chaos <> None then
          prerr_endline "oduel: --target/--chaos are ignored in program mode";
        let inf = Inferior.create () in
        Duel_target.Stdfuncs.register_all inf;
        let interp = Interp.load inf src in
        let dbg = Debugger.create interp in
        Debugger.on_stop dbg stop_prompt;
        if use_rsp then begin
          (* the program's own inferior, served through the loopback *)
          let spec =
            "rsp:all"
            ^ (if no_cache then "" else "+cache")
            ^ if no_cache || no_prefetch then "" else "+prefetch"
          in
          let built = build_target ~make_inf:(fun _ -> inf) spec in
          (inf, Some dbg, Session.create ~engine built.Backend.b_dbg, Some built)
        end
        else begin
          let s = Debugger.session dbg in
          s.Session.engine <- engine;
          (inf, Some dbg, s, None)
        end
    | None ->
        let built = build_target spec_str in
        ( built.Backend.b_inf,
          None,
          Session.create ~engine built.Backend.b_dbg,
          Some built )
  in
  Option.iter (fun b -> session.Session.lower <- b) lower_override;
  let scenario_display = if program = None then spec_str else scenario in
  (match exprs with
  | [] -> repl session inf scenario_display program built
  | exprs ->
      List.iter
        (fun e ->
          Printf.printf "duel> %s\n" e;
          (try handle_command session inf scenario_display program built e
           with ex -> Printf.printf "error: %s\n" (Printexc.to_string ex)))
        exprs);
  Option.iter (fun b -> b.Backend.b_close ()) built

(* --- serve: the network query service ------------------------------------ *)

module Serve_server = Duel_serve.Server
module Serve_sharded = Duel_serve.Sharded
module Serve_client = Duel_serve.Client

(* "unix:PATH" | "HOST:PORT" | "PORT", for the listening side. *)
let parse_listen addr =
  if String.length addr > 5 && String.sub addr 0 5 = "unix:" then
    `Unix (String.sub addr 5 (String.length addr - 5))
  else
    let host, port =
      match String.rindex_opt addr ':' with
      | Some i ->
          ( String.sub addr 0 i,
            String.sub addr (i + 1) (String.length addr - i - 1) )
      | None -> ("127.0.0.1", addr)
    in
    let host = if host = "" || host = "localhost" then "127.0.0.1" else host in
    match int_of_string_opt port with
    | Some p -> `Tcp (host, p)
    | None ->
        Printf.eprintf "bad listen address %s (want unix:PATH or HOST:PORT)\n"
          addr;
        exit 2

let serve scenario listen idle_timeout max_conns shards =
  if shards < 1 then begin
    Printf.eprintf "--shards must be >= 1 (got %d)\n" shards;
    exit 2
  end;
  (* the positional accepts either one scenario name (a one-member
     fleet) or a whole fleet:
     fleet(good=deep_list:40,bad=deep_list_buggy:40,...) *)
  let is_fleet = Fleet.is_fleet_spec scenario in
  let fleet =
    if not is_fleet then
      Fleet.of_inferior ~spec:scenario (make_inferior scenario)
    else
      match Fleet.of_string scenario with
      | Ok f -> f
      | Error msg ->
          Printf.eprintf "oduel serve: %s\n" msg;
          exit 2
  in
  let config =
    { Serve_server.default_config with idle_timeout; max_conns }
  in
  let srv = Serve_sharded.create ~config ~shards fleet in
  let what =
    if is_fleet then
      Printf.sprintf "fleet %s (%d targets)" (Fleet.describe fleet)
        (Fleet.size fleet)
    else "scenario " ^ scenario
  in
  (match parse_listen listen with
  | `Unix path ->
      Serve_sharded.listen_unix srv path;
      Printf.printf "oduel serving %s on unix:%s (%d shard%s)\n%!" what path
        shards
        (if shards = 1 then "" else "s")
  | `Tcp (host, port) ->
      let port = Serve_sharded.listen_tcp srv ~host ~port in
      Printf.printf "oduel serving %s on %s:%d (%d shard%s)\n%!" what host port
        shards
        (if shards = 1 then "" else "s"));
  Sys.set_signal Sys.sigint
    (Sys.Signal_handle (fun _ -> Serve_sharded.shutdown srv));
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  Serve_sharded.run srv;
  print_endline "oduel server: shut down";
  List.iter print_endline (Serve_sharded.stats_to_lines srv)

(* --- connect: a thin client over the wire -------------------------------- *)

let connect_help =
  {|Commands:
  <expr>                 evaluate locally over the network interface
  remote <expr>          ship the whole query to the server (qDuelEval)
  all [ids] <expr>       fan the query across fleet targets (qDuelEvalAll);
                         ids comma-separated, or * (default) for every target
  use <id>               bind this connection to fleet target <id>
                         (plain <expr> keeps the local twin's symbols;
                         use remote/all to query the bound target)
  info targets           the server's fleet roster (qDuelTargets)
  info server            the server's counters (qDuelStats)
  info cache             local data-cache counters
  info prefetch          local read-ahead counters
  set prefetch on|off    toggle local page-block read-ahead
  help                   this text
  quit                   exit|}

let print_server_stats cl =
  List.iter
    (fun (k, v) -> Printf.printf "%-12s %d\n" k v)
    (Serve_client.server_stats cl)

(* `all [ids] <expr>`: fan out across fleet targets and print each
   leg's lines under its target id. *)
let fan_out cl rest =
  (* a leading "*", comma-joined id list, or single known target id
     selects the targets; anything else is already the expression
     (= all targets) *)
  let looks_like_ids w =
    w = "*"
    || (String.contains w ','
       && String.for_all
            (fun c ->
              c = ','
              || (c >= 'a' && c <= 'z')
              || (c >= 'A' && c <= 'Z')
              || (c >= '0' && c <= '9')
              || c = '_' || c = '-' || c = '.')
            w)
    || List.mem_assoc w (Serve_client.targets cl)
  in
  let ids, expr =
    match rest with
    | first :: more when more <> [] && looks_like_ids first ->
        ((if first = "*" then [] else String.split_on_char ',' first), more)
    | _ -> ([], rest)
  in
  List.iter
    (fun (id, result) ->
      match result with
      | Ok lines ->
          Printf.printf "%s:\n" id;
          List.iter (fun l -> print_endline ("  " ^ l)) lines
      | Error msg -> Printf.printf "%s: failed: %s\n" id msg)
    (Serve_client.eval_all cl ids (String.concat " " expr))

let connect_command session cl line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "" ] -> ()
  | [ "help" ] -> print_endline connect_help
  | [ "info"; "server" ] -> print_server_stats cl
  | [ "info"; "targets" ] -> (
      match Serve_client.targets cl with
      | [] -> print_endline "no targets listed"
      | roster ->
          List.iter
            (fun (id, spec) -> Printf.printf "%-12s %s\n" id spec)
            roster)
  | [ "info"; "cache" ] ->
      List.iter print_endline (Session.cache_stats session)
  | [ "info"; "prefetch" ] ->
      List.iter print_endline (Session.prefetch_stats session)
  | [ "set"; "prefetch"; (("on" | "off") as v) ] ->
      if not (Session.set_prefetch session (v = "on")) then
        print_endline "prefetch: no data cache to read ahead into"
  | [ "set"; "prefetch"; _ ] -> print_endline "expected on or off"
  | [ "use"; id ] ->
      Serve_client.use_target cl id;
      Printf.printf "bound to target %s\n" id
  | "all" :: rest when rest <> [] -> fan_out cl rest
  | "remote" :: rest ->
      List.iter print_endline (Serve_client.eval cl (String.concat " " rest))
  | _ -> List.iter print_endline (Session.exec session (String.trim line))

let connect addr scenario engine no_cache no_prefetch exprs =
  (* The gdb model: debug info (symbols, types, frame layouts) comes from
     a locally built twin of the served scenario — the builders are
     deterministic, so addresses match — while live memory, allocation
     and calls go over the wire. *)
  let local = make_inferior scenario in
  let di = Duel_rsp.Client.debug_info_of_inferior local in
  let cl =
    try Serve_client.connect addr
    with Serve_client.Error f ->
      Printf.eprintf "cannot connect to %s: %s\n" addr
        (Serve_client.failure_message f);
      exit 1
  in
  let dbgi =
    Serve_client.dbgi ~cache:(not no_cache)
      ~prefetch:(not (no_cache || no_prefetch))
      cl di
  in
  let engine, lower_override = engine_of_string engine in
  let session = Session.create ~engine dbgi in
  Option.iter (fun b -> session.Session.lower <- b) lower_override;
  let eval_line line =
    try connect_command session cl line
    with e -> Printf.printf "error: %s\n" (Printexc.to_string e)
  in
  (match exprs with
  | [] ->
      Printf.printf
        "oduel — connected to %s (scenario %s for symbols). Type help for \
         help.\n"
        addr scenario;
      let rec loop () =
        print_string "duel> ";
        flush stdout;
        match input_line stdin with
        | "quit" | "exit" -> ()
        | line ->
            eval_line line;
            loop ()
        | exception End_of_file -> ()
      in
      loop ()
  | exprs ->
      List.iter
        (fun e ->
          Printf.printf "duel> %s\n" e;
          eval_line e)
        exprs);
  Serve_client.close cl

(* --- diff: relative debugging across two fleet targets ------------------- *)

(* Evaluate one expression on two targets of a served fleet and report
   the first divergence symbolically.  Exit status: 0 identical, 1
   diverged (the grep convention), 2 error. *)
let diff addr id_a id_b expr =
  let cl =
    try Serve_client.connect addr
    with Serve_client.Error f ->
      Printf.eprintf "oduel diff: cannot connect to %s: %s\n" addr
        (Serve_client.failure_message f);
      exit 2
  in
  let results =
    try Serve_client.eval_all cl [ id_a; id_b ] expr
    with Serve_client.Error f ->
      Printf.eprintf "oduel diff: %s\n" (Serve_client.failure_message f);
      exit 2
  in
  Serve_client.close cl;
  let leg id =
    match List.assoc_opt id results with
    | Some (Ok lines) -> lines
    | Some (Error msg) ->
        Printf.eprintf "oduel diff: target %s failed: %s\n" id msg;
        exit 2
    | None ->
        Printf.eprintf "oduel diff: no reply for target %s\n" id;
        exit 2
  in
  let outcome = Fdiff.diff (leg id_a) (leg id_b) in
  List.iter print_endline (Fdiff.report ~id_a ~id_b outcome);
  exit (match outcome with Fdiff.Equal _ -> 0 | _ -> 1)

open Cmdliner

let target_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "target" ] ~docv:"SPEC"
        ~doc:
          "Backend spec — the one addressing scheme for every stack: \
           $(b,direct:all+cache), \
           $(b,rsp:big:400+chaos(seed=3,profile=mild)+cache), \
           $(b,dispatch(tcp://a:7777,tcp://b:7777;trip=2)).  Overrides \
           the legacy --scenario/--rsp/--no-cache/--chaos flags, which \
           are kept as aliases that rewrite into a spec.  Inspect the \
           result with `info backend`.")

let scenario_arg =
  Arg.(
    value & opt string "all"
    & info [ "scenario" ] ~doc:"Debuggee: all, symtab, faulty, big:<n>.")

let engine_arg =
  Arg.(
    value & opt string "seq"
    & info [ "engine" ] ~doc:"Evaluation engine: vm, ir (alias seq), sm or ast.")

let rsp_arg =
  Arg.(
    value & flag
    & info [ "rsp" ]
        ~doc:
          "Talk to the debuggee through the in-process GDB \
           remote-serial-protocol stub instead of directly.")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:
          "Disable the target-memory data cache; every DUEL memory access \
           becomes a backend round-trip (useful for measuring the cache, \
           see `info cache`).")

let no_prefetch_arg =
  Arg.(
    value & flag
    & info [ "no-prefetch" ]
        ~doc:
          "Disable read-ahead into the data cache: over a wire, a miss \
           then fills one line instead of its whole page block, and cold \
           traversals pay one round-trip per line again (useful for \
           measuring it, see `info prefetch`).")

let chaos_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "chaos" ] ~docv:"SPEC"
        ~doc:
          "Deterministic fault injection: $(docv) is seed=N,profile=P (a \
           bare word is a profile: off, mild, nasty).  Wraps the backend \
           in the chaos proxy plus the retry layer — and, with --rsp, the \
           byte-stream mangler on the loopback wire.  Inspect with `info \
           chaos`.")

let program_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "program" ] ~doc:"Load a mini-C $(docv) and debug it." ~docv:"FILE")

let exprs_arg =
  Arg.(
    value & opt_all string []
    & info [ "e"; "eval" ] ~doc:"Evaluate $(docv) and exit (repeatable).")

let repl_term =
  Term.(
    const run $ target_arg $ scenario_arg $ engine_arg $ rsp_arg
    $ no_cache_arg $ no_prefetch_arg $ chaos_arg $ program_arg $ exprs_arg)

let serve_cmd =
  let scenario_pos =
    Arg.(
      value & pos 0 string "all"
      & info [] ~docv:"SCENARIO"
          ~doc:
            "Debuggee: all, symtab, faulty, big:<n>, deep_list:<n>, \
             deep_tree:<n> and the _buggy twins — or a whole fleet \
             $(b,fleet(id=scenario,id=dead:scenario,...)) to host several \
             named targets at once.")
  in
  let listen_arg =
    Arg.(
      value
      & opt string "127.0.0.1:0"
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:
            "Listen address: unix:PATH, HOST:PORT, or PORT (port 0 picks a \
             free port, printed on startup).")
  in
  let idle_arg =
    Arg.(
      value & opt float 30.0
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:"Reap connections silent this long (<= 0 disables).")
  in
  let max_conns_arg =
    Arg.(
      value & opt int 64
      & info [ "max-conns" ] ~docv:"N" ~doc:"Concurrent connection cap.")
  in
  let shards_arg =
    Arg.(
      value
      & opt int (Domain.recommended_domain_count ())
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Event-loop shards, one OCaml domain each (default: the \
             machine's recommended domain count).  TCP shards share the \
             port via SO_REUSEPORT; with 1 the loop runs on the main \
             domain and no domain is spawned.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a scenario to network clients over RSP (a select loop per \
          shard, many connections; SIGINT shuts down gracefully).")
    Term.(
      const serve $ scenario_pos $ listen_arg $ idle_arg $ max_conns_arg
      $ shards_arg)

let connect_cmd =
  let addr_pos =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ADDR" ~doc:"Server address: unix:PATH or HOST:PORT.")
  in
  let scenario_opt =
    Arg.(
      value & opt string "all"
      & info [ "scenario" ]
          ~doc:
            "Scenario the server is running — built locally for symbols and \
             types (the scenario builders are deterministic, so addresses \
             match the served target).")
  in
  Cmd.v
    (Cmd.info "connect"
       ~doc:
         "Connect to an oduel server: evaluate DUEL locally over the \
          network interface, or `remote <expr>` to run queries \
          server-side in one round-trip.")
    Term.(
      const connect $ addr_pos $ scenario_opt $ engine_arg $ no_cache_arg
      $ no_prefetch_arg $ exprs_arg)

let diff_cmd =
  let addr_pos =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ADDR" ~doc:"Server address: unix:PATH or HOST:PORT.")
  in
  let id_a_pos =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"ID_A" ~doc:"First fleet target id.")
  in
  let id_b_pos =
    Arg.(
      required
      & pos 2 (some string) None
      & info [] ~docv:"ID_B" ~doc:"Second fleet target id.")
  in
  let expr_pos =
    Arg.(
      required
      & pos 3 (some string) None
      & info [] ~docv:"EXPR" ~doc:"The DUEL expression to evaluate on both.")
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Relative debugging: evaluate one DUEL expression on two targets \
          of a served fleet (qDuelEvalAll) and report the first divergence \
          symbolically.  Exits 0 when the streams are identical, 1 on a \
          divergence, 2 on error.")
    Term.(const diff $ addr_pos $ id_a_pos $ id_b_pos $ expr_pos)

let cmd =
  let doc =
    "DUEL, a very high-level debugging language (USENIX W'93), on a \
     simulated C debuggee"
  in
  Cmd.group ~default:repl_term (Cmd.info "oduel" ~doc)
    [ serve_cmd; connect_cmd; diff_cmd ]

let () = exit (Cmd.eval cmd)
