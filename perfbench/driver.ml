(* The repo benchmark driver.

   driver.exe --workload W --seed N --seconds S --trace 0|1
              --oduel PATH --dir DIR
   driver.exe --self-test

   Five workloads run through the entry points users reach: Session over
   Backend.of_string stacks (repl_local, remote_rtt, remote_tree), the
   built oduel binary serving a fleet to Duel_serve.Client connections
   (serve_mixed), and Debugger watchpoints over a mini-C program
   (watch_step).  With --trace 0 it times what the user waits for and
   prints the end-to-end metrics; with --trace 1 it replays the workload
   through the layers' public functions under spans and prints the
   per-layer breakdown.  The last stdout line is the JSON result.  The
   driver also runs itself as a child (--cold-setup, --fill-in-for) for
   the sampled set-ups and the traced run's fill-in passes.  README.md has
   the details. *)

module Session = Duel_core.Session
module Env = Duel_core.Env
module Ast = Duel_core.Ast
module Dbgi = Duel_dbgi.Dbgi
module Dcache = Duel_dbgi.Dcache
module Prefetch = Duel_dbgi.Prefetch
module Memory = Duel_mem.Memory
module Inferior = Duel_target.Inferior
module Backend = Duel_backend.Backend
module Client = Duel_serve.Client
module Packet = Duel_rsp.Packet
module Interp = Duel_minic.Interp
module Debugger = Duel_debug.Debugger

let now = Unix.gettimeofday

exception Invariant of string

let invariant cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Invariant msg)) fmt

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  oduel : string;
  dir : string;  (** the benchmark's own directory, for its input files *)
}

(* A run's result: commands attempted and failed, and named values. *)
type outcome = { attempted : int; failed : int; values : (string * float) list }

let timed f =
  let t0 = now () in
  let v = f () in
  (now () -. t0, v)

let ms s = s *. 1000.
let arr l = Array.of_list l
let per n x = if n = 0 then 0. else x /. float_of_int n
let ratio a b = if a + b = 0 then 0. else float_of_int a /. float_of_int (a + b)

(* A command whose output is not its golden counts as failed; the first
   few are shown on stderr. *)
let mismatches = ref 0

let matches text golden lines =
  lines = golden
  || begin
       incr mismatches;
       if !mismatches <= 5 then
         Printf.eprintf "driver: %s\n  expected: %s\n  got:      %s\n%!" text
           (String.concat " | " golden) (String.concat " | " lines);
       false
     end

(* --- process measurements ---------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let s = In_channel.input_all ic in
  close_in ic;
  s

(* VmHWM of a process ("self" or a pid), in MiB. *)
let peak_rss_mb pid =
  let status = read_file (Printf.sprintf "/proc/%s/status" pid) in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

(* User + system CPU seconds of a child, from /proc/<pid>/stat (fields 14
   and 15, in clock ticks of 1/100 s). *)
let proc_cpu_s pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let close = String.rindex stat ')' in
  let fields =
    String.sub stat (close + 2) (String.length stat - close - 2)
    |> String.split_on_char ' ' |> Array.of_list
  in
  float_of_int (int_of_string fields.(11) + int_of_string fields.(12)) /. 100.

let cpu_self () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Servers still running; killed and reaped however the driver exits. *)
let children = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !children)

(* Run [argv] with stdin at end of file; its stdout and exit status. *)
let spawn_collect argv =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  Unix.close in_w;
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process argv.(0) argv in_r out_w Unix.stderr in
  Unix.close in_r;
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (out, status)

(* One spawn of the real binary: its wall time, and whether it printed
   [expect] and exited with [code]. *)
let spawn_timed ~code ~expect argv =
  let t0 = now () in
  let out, status = spawn_collect argv in
  (now () -. t0, out = expect && status = Unix.WEXITED code)

(* One cold set-up of [o]'s workload in a fresh driver process
   (driver.exe --cold-setup), which prints its time.  Every sampled
   set-up then starts from the same empty process as the run's own first
   one, and the stacks the samples build never count towards the run's
   peak_rss_mb: a closed stack stays reachable from the Dcache and Dbgi
   registries for the life of its process. *)
let setup_in_child o =
  let out, status =
    spawn_collect
      [| Sys.executable_name; "--cold-setup"; "--workload"; o.workload;
         "--seed"; string_of_int o.seed; "--oduel"; o.oduel; "--dir"; o.dir |]
  in
  match (status, float_of_string_opt (String.trim out)) with
  | Unix.WEXITED 0, Some s -> s
  | _ -> failwith ("cold set-up in a child process failed: " ^ out)

(* Median wall time of [reps] spawns, and how many of them failed. *)
let oneshot ~reps ~code ~expect argv =
  let runs = List.init reps (fun _ -> spawn_timed ~code ~expect argv) in
  ( Bstats.median (arr (List.map fst runs)),
    List.length (List.filter (fun (_, ok) -> not ok) runs) )

(* The timed phase's clock, which the interleaved samples stop. *)
type clock = { t_start : float; mutable paused : float }

let clock () = { t_start = now (); paused = 0. }
let active c = now () -. c.t_start -. c.paused

(* Set-ups and one-shot spawns are sampled across the whole timed phase
   rather than in one burst, so that their medians see the same machine
   as the commands do: sample i of n runs, with the clock stopped, once
   (i + 1/2)/n of [seconds] have passed. *)
type sampler = {
  n : int;
  window : float;  (** seconds the samples are spread over *)
  run : int -> unit;
  mutable next : int;
}

let sampler ~n ~seconds run = { n; window = seconds; run; next = 0 }
let no_samples = sampler ~n:0 ~seconds:1. ignore

let sample sp clk =
  if
    sp.next < sp.n
    && active clk >= (float_of_int sp.next +. 0.5) /. float_of_int sp.n *. sp.window
  then begin
    let t0 = now () in
    sp.run sp.next;
    sp.next <- sp.next + 1;
    clk.paused <- clk.paused +. (now () -. t0)
  end

let finish_samples sp =
  while sp.next < sp.n do
    sp.run sp.next;
    sp.next <- sp.next + 1
  done

(* What the samples of an end-to-end run collect: cold set-up times and
   one-shot spawn times. *)
type samples = {
  mutable setups : float list;
  mutable spawns : float list;
  mutable spawn_failures : int;
}

(* [setups] cold set-ups in all, the first of which is the one timed
   before the phase starts, and [spawns] one-shot spawns. *)
let e2e_sampler ~seconds ~setups ~spawns ~setup ~spawn (acc : samples) =
  sampler ~n:(max (setups - 1) spawns) ~seconds (fun i ->
      if i < setups - 1 then acc.setups <- setup () :: acc.setups;
      if i < spawns then begin
        let dt, ok = spawn () in
        acc.spawns <- dt :: acc.spawns;
        if not ok then acc.spawn_failures <- acc.spawn_failures + 1
      end)

let spawns_per_run = 15

(* The end-to-end figures of one timed phase. *)
let e2e_values (acc : samples) ~tail ~lat ~heavy ~cmds ~elapsed ~rss_mb =
  [
    ("setup_s", Bstats.median (arr acc.setups));
    ("cmd_p50_ms", ms (Bstats.median (arr lat)));
    ("cmd_tail_ms", ms (Bstats.percentile (arr lat) tail));
    ("cmds_per_s", float_of_int cmds /. elapsed);
    ("heavy_p50_ms", ms (Bstats.median (arr heavy)));
    ("oneshot_ms", ms (Bstats.median (arr acc.spawns)));
    ("peak_rss_mb", rss_mb);
  ]

(* The timed phase: whole cycles of [len] commands, at least [seconds]
   and at least [min_cmds] commands, but never more than three times
   [seconds].  Whole cycles keep every seed's command mix the same. *)
let timed_stop ~seconds ~min_cmds ~len ~elapsed ~cmds =
  (cmds mod len = 0 && elapsed >= seconds && cmds >= min_cmds)
  || elapsed >= 3. *. seconds

(* A traced run's first pass: whole cycles of [len] commands, at least
   one, until [budget] seconds have passed. *)
let budget_stop ~budget ~len ~elapsed ~cmds =
  cmds > 0 && cmds mod len = 0 && elapsed >= budget

let same_count n ~elapsed:_ ~cmds = cmds >= n

(* --- counters of an in-process Session stack --------------------------- *)

type counters = {
  packets : int;
  hits : int;
  misses : int;
  fills : int;
  invalidations : int;
  round_trips : int;
  issued : int;
  useful : int;
  wasted : int;
  l_hits : int;
  l_misses : int;
  l_stale : int;
  minor : float;
  major : int;
  cpu : float;
  wall : float;
}

let counters ~packets (s : Session.t) =
  let dbg = s.Session.env.Env.dbg in
  let dc = Dcache.stats dbg and pf = Prefetch.stats dbg in
  let ls = s.Session.env.Env.lstats in
  let gc = Gc.quick_stat () in
  let d f = match dc with Some st -> f st | None -> 0 in
  let p f = match pf with Some st -> f st | None -> 0 in
  {
    packets;
    hits = d (fun s -> s.Dcache.hits);
    misses = d (fun s -> s.Dcache.misses);
    fills = d (fun s -> s.Dcache.fills);
    invalidations = d (fun s -> s.Dcache.invalidations);
    round_trips = d Dcache.round_trips;
    issued = p (fun s -> s.Prefetch.issued);
    useful = p (fun s -> s.Prefetch.useful);
    wasted = p (fun s -> s.Prefetch.wasted);
    l_hits = ls.Env.l_hits;
    l_misses = ls.Env.l_misses;
    l_stale = ls.Env.l_stale;
    minor = gc.Gc.minor_words;
    major = gc.Gc.major_collections;
    cpu = cpu_self ();
    wall = now ();
  }

(* Per-command layer figures from the counter deltas of an untraced pass
   of [n] commands. *)
let counter_layers n c0 c1 =
  let d f = f c1 - f c0 in
  let pc f = per n (float_of_int (d f)) in
  [
    ("slots.hit_ratio", ratio (d (fun c -> c.l_hits)) (d (fun c -> c.l_misses)));
    ("slots.stale_per_cmd", pc (fun c -> c.l_stale));
    ("gc.minor_mw_per_cmd", per n (c1.minor -. c0.minor) /. 1e6);
    ("gc.major_per_kcmd", 1000. *. pc (fun c -> c.major));
    ("dcache.hit_ratio", ratio (d (fun c -> c.hits)) (d (fun c -> c.misses)));
    ("dcache.fills_per_cmd", pc (fun c -> c.fills));
    ("dcache.round_trips_per_cmd", pc (fun c -> c.round_trips));
    ("dcache.invalidations_per_cmd", pc (fun c -> c.invalidations));
    ("prefetch.issued_per_cmd", pc (fun c -> c.issued));
    ( "prefetch.useful_ratio",
      let i = d (fun c -> c.issued) in
      if i = 0 then 0. else float_of_int (d (fun c -> c.useful)) /. float_of_int i );
    ("prefetch.wasted_per_cmd", pc (fun c -> c.wasted));
    ("rsp.packets_per_cmd", pc (fun c -> c.packets));
    ("wire.wait_ms", ms (per n (c1.wall -. c0.wall -. (c1.cpu -. c0.cpu))));
    ("client.cpu_ms_per_cmd", ms (per n (c1.cpu -. c0.cpu)));
  ]

let rec silent = function
  | Ast.Seq_void _ -> true
  | Ast.Seq (_, b) -> silent b
  | _ -> false

(* Session.exec taken apart into its public steps, one span each: every
   pull of the engine's value sequence and every formatted value gets its
   own span, in the order exec interleaves them, so the memory traffic is
   the same as exec's.  Fills and packets ride along as span arguments. *)
let traced_exec tr ~packets (s : Session.t) src =
  let env = s.Session.env in
  let dbg = env.Env.dbg in
  let fills () =
    match Dcache.stats dbg with Some st -> st.Dcache.fills | None -> 0
  in
  let span name f =
    let f0 = fills () and p0 = packets () in
    Btrace.span tr name f ~args:(fun () ->
        [ ("fills", float_of_int (fills () - f0));
          ("packets", float_of_int (packets () - p0)) ])
  in
  let depth = Env.scope_depth env in
  let lines =
    try
      let ast = span "parse" (fun () -> Session.parse s src) in
      let ir = span "lower" (fun () -> Session.compile s ast) in
      let rec pull acc next =
        match span "engine" next with
        | Seq.Nil -> List.rev acc
        | Seq.Cons (v, rest) ->
            if silent ast then pull acc rest
            else pull (span "format" (fun () -> Session.format_value s v) :: acc) rest
      in
      pull [] (fun () -> Session.eval_ir s ir ())
    with e -> [ "error: " ^ Printexc.to_string e ]
  in
  Env.restore_scope_depth env depth;
  span "dcache.flush" (fun () -> Dcache.flush dbg);
  lines

(* Mean self time per command of the named spans, in ms. *)
let span_layers tr n =
  let self = Btrace.self_by_name (Btrace.spans tr) in
  List.map
    (fun (metric, span) -> (metric, ms (per n (self span))))
    [ ("parse.ms", "parse"); ("lower.ms", "lower"); ("engine.ms", "engine");
      ("format.ms", "format"); ("dcache.flush_ms", "dcache.flush") ]

(* The figures [f] computes, if the traced run takes any of [names] from
   this pass; a pass skips the costly measurements nobody reads. *)
let wanted want names f = if List.exists want names then f () else []

(* --- repl_local, remote_rtt and remote_tree ---------------------------- *)

module Repl = struct
  (* A Session stack: its spec, the global a resume rewrites (cell i at
     4i bytes in), and the command its one-shot CLI run evaluates. *)
  type stack = {
    spec : string;
    resume_var : string;
    oneshot_cmd : string;
    oneshot_out : string list;
  }

  let local =
    {
      spec = "direct:all+cache+prefetch";
      resume_var = "x";
      oneshot_cmd = "x[1..4,8,12..50] >? 5 <? 10";
      oneshot_out = [ "x[3] = 7"; "x[18] = 9"; "x[47] = 6" ];
    }

  (* Its one-shot is one of golden.txt's scans, long enough (about 0.4 s)
     that the declared round trips, not the CPU, set its time: the short
     one-shot moved by a sixth between two sets of runs, with the
     machine's speed. *)
  let remote =
    {
      local with
      spec = "rsp:all+stall(ms=1,rate=1.0)+cache+prefetch";
      oneshot_cmd = "(hash[..1024] !=? 0)->scope >? 5";
      oneshot_out = [ "hash[42]->scope = 7"; "hash[529]->scope = 8" ];
    }

  let tree =
    {
      spec =
        Printf.sprintf "rsp:deep_tree:%d+stall(ms=1,rate=1.0)+cache+prefetch"
          Gen.tree_depth;
      resume_var = "droot";
      oneshot_cmd = "#/(droot-->(left,right))";
      oneshot_out =
        [ Printf.sprintf "#/(droot-->(left,right)) = %d" ((1 lsl Gen.tree_depth) - 1) ];
    }

  type rig = { built : Backend.built; s : Session.t; resume_addr : int }

  let make stack =
    match Backend.of_string stack.spec with
    | Error msg -> failwith ("backend " ^ stack.spec ^ ": " ^ msg)
    | Ok built ->
        let s = Session.create ~engine:Session.Seq_engine built.Backend.b_dbg in
        let resume_addr =
          match Inferior.find_variable built.Backend.b_inf stack.resume_var with
          | Some v -> v.Dbgi.v_addr
          | None -> failwith ("scenario has no " ^ stack.resume_var)
        in
        { built; s; resume_addr }

  let close rig = rig.built.Backend.b_close ()
  let packets rig () = !(rig.built.Backend.b_packets)

  (* The program ran and stopped again: one cell is rewritten with the
     value it holds, behind the cache's back. *)
  let resume rig i =
    let mem = Inferior.mem rig.built.Backend.b_inf in
    let addr = rig.resume_addr + (4 * i) in
    Memory.write mem ~addr (Memory.read mem ~addr ~len:4)

  (* Each distinct step once, in an order that does not depend on the
     seed. *)
  let distinct (steps : Gen.step array) =
    List.sort_uniq
      (fun (a : Gen.step) b -> compare a.cmd.Gen.text b.cmd.Gen.text)
      (Array.to_list steps)

  (* Cold start to ready: the stack built, every distinct command run once. *)
  let setup ?(tweak = ignore) stack steps () =
    let rig = make stack in
    tweak rig.s;
    List.iter
      (fun (st : Gen.step) ->
        resume rig st.resume;
        ignore (Session.exec rig.s st.cmd.Gen.text))
      (distinct steps);
    rig

  type pass = {
    lat : float list;  (** every command, seconds *)
    heavy : float list;  (** the heavy scan *)
    outputs : string list list;  (** newest first, when kept *)
    cmds : int;
    failed : int;
    resumes : int;  (** resumes a later read could observe *)
    elapsed : float;  (** the timed phase, samples excluded *)
    c0 : counters;
    c1 : counters;
  }

  let run ?tr ?(check = true) ?(keep = false) ?(sp = no_samples) rig steps ~stop =
    let count () = counters ~packets:(packets rig ()) rig.s in
    let c0 = count () in
    let clk = clock () in
    let lat = ref [] and heavy = ref [] and outs = ref [] in
    let cmds = ref 0 and failed = ref 0 and resumes = ref 0 in
    let n = Array.length steps in
    (* a resume is observable once a cached read follows it; commands
       that touch no target memory leave the next resume to coalesce *)
    let reads () =
      match Dcache.stats rig.s.Session.env.Env.dbg with
      | Some st -> st.Dcache.hits + st.Dcache.misses
      | None -> 0
    in
    let reads_at = ref (-1) in
    let observe () = if !reads_at >= 0 && reads () > !reads_at then incr resumes in
    while not (stop ~elapsed:(active clk) ~cmds:!cmds) do
      sample sp clk;
      let { Gen.cmd = c; resume = k } = steps.(!cmds mod n) in
      observe ();
      (match tr with
      | Some tr ->
          Btrace.set_cmd tr !cmds;
          Btrace.span tr "resume" (fun () -> resume rig k)
      | None -> resume rig k);
      reads_at := reads ();
      let t0 = now () in
      let lines =
        match tr with
        | None -> Session.exec rig.s c.Gen.text
        | Some tr ->
            Btrace.span tr "cmd" (fun () ->
                traced_exec tr ~packets:(packets rig) rig.s c.Gen.text)
      in
      let dt = now () -. t0 in
      lat := dt :: !lat;
      if c.Gen.kind = Gen.Heavy then heavy := dt :: !heavy;
      if keep then outs := lines :: !outs;
      if check && not (matches c.Gen.text c.Gen.golden lines) then incr failed;
      incr cmds
    done;
    observe ();
    let c1 = count () in
    finish_samples sp;
    { lat = !lat; heavy = !heavy; outputs = !outs; cmds = !cmds;
      failed = !failed; resumes = !resumes; elapsed = active clk;
      c0; c1 }

  (* Every resume that a read observes drops the cache: the coherence
     probe sees the store. *)
  let check_invalidations name p =
    let inv = p.c1.invalidations - p.c0.invalidations in
    invariant (inv >= p.resumes)
      "%s: %d cache invalidations for %d resumes" name inv p.resumes

  (* The CLI's default stack needs no --target. *)
  let oneshot_argv o stack cmd =
    if stack.spec = local.spec then [| o.oduel; "-e"; cmd |]
    else [| o.oduel; "--target"; stack.spec; "-e"; cmd |]

  let oneshot_expect cmd out =
    String.concat "" (List.map (fun l -> l ^ "\n") (("duel> " ^ cmd) :: out))

  let e2e o ~stack ~setups ~min_cmds ~tail steps =
    Gc.full_major ();
    let setup_s, rig = timed (setup stack steps) in
    let acc = { setups = [ setup_s ]; spawns = []; spawn_failures = 0 } in
    let sp =
      e2e_sampler ~seconds:o.seconds ~setups ~spawns:spawns_per_run acc
        ~setup:(fun () -> setup_in_child o)
        ~spawn:(fun () ->
          spawn_timed ~code:0
            ~expect:(oneshot_expect stack.oneshot_cmd stack.oneshot_out)
            (oneshot_argv o stack stack.oneshot_cmd))
    in
    let p =
      run ~sp rig steps
        ~stop:(timed_stop ~seconds:o.seconds ~min_cmds ~len:(Array.length steps))
    in
    check_invalidations o.workload p;
    close rig;
    {
      attempted = p.cmds + spawns_per_run;
      failed = p.failed + acc.spawn_failures;
      values =
        e2e_values acc ~tail ~lat:p.lat ~heavy:p.heavy ~cmds:p.cmds
          ~elapsed:p.elapsed ~rss_mb:(peak_rss_mb "self");
    }

  let layers o ~want ~stack ~budget steps =
    let len = Array.length steps in
    (* untraced reference pass *)
    let rig = setup stack steps () in
    let a = run ~keep:true rig steps ~stop:(budget_stop ~budget ~len) in
    close rig;
    check_invalidations o.workload a;
    (* the same steps under spans, from the same cold start *)
    let tr = Btrace.create o.workload in
    let rig = setup stack steps () in
    let b = run ~tr ~keep:true rig steps ~stop:(same_count a.cmds) in
    close rig;
    invariant (b.outputs = a.outputs)
      "%s: the traced pass printed other lines than the untraced one" o.workload;
    invariant
      (b.c1.packets - b.c0.packets = a.c1.packets - a.c0.packets
      && b.c1.fills - b.c0.fills = a.c1.fills - a.c0.fills)
      "%s: the traced pass made %d packets / %d fills, the untraced one %d / %d"
      o.workload (b.c1.packets - b.c0.packets) (b.c1.fills - b.c0.fills)
      (a.c1.packets - a.c0.packets) (a.c1.fills - a.c0.fills);
    (* The same commands with prefetch switched off, paired: each step
       runs on a prefetching stack and then on a twin without, so the
       machine's drift hits both sides alike.  On the direct stack, also
       what prefetch does to the heavy scan alone. *)
    let prefetch_cost () =
      let on = setup stack steps () in
      let off = setup ~tweak:(fun s -> ignore (Session.set_prefetch s false)) stack steps () in
      let time_on rig (st : Gen.step) =
        resume rig st.resume;
        fst (timed (fun () -> Session.exec rig.s st.cmd.Gen.text))
      in
      let pairs =
        List.init a.cmds (fun i ->
            let st = steps.(i mod len) in
            let d = time_on on st -. time_on off st in
            (st.cmd.Gen.kind, d))
      in
      close on;
      close off;
      let mean_diff keep =
        let ds = List.filter_map (fun (k, d) -> if keep k then Some d else None) pairs in
        ms (Bstats.mean (arr ds))
      in
      ("prefetch.cost_ms", mean_diff (fun _ -> true))
      ::
      (if stack.spec = local.spec then
         [ ("prefetch.direct_cost_ms", mean_diff (( = ) Gen.Heavy)) ]
       else [])
    in
    (* what a one-shot CLI run adds on top of building the stack and
       running a command that reads no target memory (the paper's first
       one-liner), so that the command's own cost does not drown it *)
    let process () =
      let probe = "1 + (double)3/2" and probe_out = [ "1+(double)3/2 = 2.5" ] in
      Btrace.set_cmd tr (-1);
      let build_s, cold =
        timed (fun () -> Btrace.span tr "target.build" (fun () -> make stack))
      in
      let cold_cmd, _ =
        timed (fun () -> Btrace.span tr "oneshot.cmd" (fun () -> Session.exec cold.s probe))
      in
      close cold;
      let oneshot_s, _ =
        oneshot ~reps:5 ~code:0 ~expect:(oneshot_expect probe probe_out)
          (oneshot_argv o stack probe)
      in
      [ ("target.build_ms", ms build_s);
        ("cli.process_ms", ms (oneshot_s -. build_s -. cold_cmd)) ]
    in
    let n = a.cmds in
    ( {
        attempted = a.cmds + b.cmds;
        failed = a.failed + b.failed;
        values =
          [ ( "trace.overhead_ms",
              ms (Bstats.median (arr b.lat) -. Bstats.median (arr a.lat)) ) ]
          @ wanted want [ "prefetch.cost_ms"; "prefetch.direct_cost_ms" ] prefetch_cost
          @ wanted want [ "target.build_ms"; "cli.process_ms" ] process
          @ span_layers tr n
          @ counter_layers n a.c0 a.c1;
      },
      tr )
end

(* --- serve_mixed ---------------------------------------------------------- *)

module Serve = struct
  let nodes = 1000

  let fleet =
    Printf.sprintf "fleet(main=all,good=deep_list:%d,bad=deep_list_buggy:%d)"
      nodes nodes

  (* The heavy connection's schedule: one fan-out every [period] seconds. *)
  let period = 0.75

  type server = { pid : int; port : int; out : Unix.file_descr }

  let read_line fd =
    let b = Buffer.create 80 and c = Bytes.create 1 in
    let rec go () =
      match Unix.read fd c 0 1 with
      | 0 -> Buffer.contents b
      | _ when Bytes.get c 0 = '\n' -> Buffer.contents b
      | _ ->
          Buffer.add_bytes b c;
          go ()
    in
    go ()

  (* Spawn the real binary; ready once it prints its listen line. *)
  let spawn o =
    let in_r, in_w = Unix.pipe ~cloexec:true () in
    Unix.close in_w;
    let out_r, out_w = Unix.pipe ~cloexec:true () in
    let pid =
      Unix.create_process o.oduel
        [| o.oduel; "serve"; "--shards"; "1"; "--listen"; "127.0.0.1:0"; fleet |]
        in_r out_w Unix.stderr
    in
    Unix.close in_r;
    Unix.close out_w;
    children := pid :: !children;
    let line = read_line out_r in
    let port =
      List.find_map
        (fun w -> try Scanf.sscanf w "127.0.0.1:%d%!" Option.some with _ -> None)
        (String.split_on_char ' ' line)
    in
    match port with
    | Some port -> { pid; port; out = out_r }
    | None -> failwith ("oduel serve printed: " ^ line)

  let stop srv =
    Unix.kill srv.pid Sys.sigint;
    let buf = Bytes.create 4096 in
    let rec drain () = if Unix.read srv.out buf 0 4096 > 0 then drain () in
    drain ();
    Unix.close srv.out;
    ignore (Unix.waitpid [] srv.pid);
    children := List.filter (( <> ) srv.pid) !children

  let connect port =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    fd

  (* The heavy connection speaks qDuelEvalAll directly on its socket, so
     one single-threaded driver can keep a fan-out in flight while the
     light connection's Client waits on its own reply. *)
  type inflight = {
    h_cmd : string * (string * string list) list;
    due : float;
    chunks : (string, (int * string) list) Hashtbl.t;
    mutable legs : (string * string list) list;
    mutable leg_errors : int;
  }

  type heavy = {
    fd : Unix.file_descr;
    dfr : Packet.Deframer.t;
    buf : Bytes.t;
    cycle : (string * (string * string list) list) array;
    mutable sending : bool;
    mutable next_due : float;
    mutable sent : int;
    mutable cur : inflight option;
    mutable lat : float list;  (** due to last frame *)
    mutable late : float list;  (** due to send *)
    mutable done_ : int;
    mutable failed : int;
    mutable leg_errors : int;
    mutable on_done : inflight -> float -> unit;
  }

  let hex s = int_of_string ("0x" ^ s)

  let finish h f =
    let t = now () in
    h.cur <- None;
    h.done_ <- h.done_ + 1;
    h.lat <- (t -. f.due) :: h.lat;
    h.leg_errors <- h.leg_errors + f.leg_errors;
    let _, golden = f.h_cmd in
    if
      f.leg_errors > 0
      || List.exists (fun (id, g) -> List.assoc_opt id f.legs <> Some g) golden
    then h.failed <- h.failed + 1;
    h.on_done f t

  let frame h f p =
    let body = String.sub p 1 (String.length p - 1) in
    let cut s c =
      let i = String.index s c in
      (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    in
    match p.[0] with
    | 'R' ->
        let head, text = cut body ';' in
        let id, idx = cut head ',' in
        let prev = Option.value (Hashtbl.find_opt f.chunks id) ~default:[] in
        Hashtbl.replace f.chunks id ((hex idx, text) :: prev)
    | 'Z' ->
        let id, count = cut body ',' in
        let lines =
          Option.value (Hashtbl.find_opt f.chunks id) ~default:[]
          |> List.sort compare
          |> List.concat_map (fun (_, t) -> String.split_on_char '\n' t)
        in
        if hex count <> List.length lines then f.leg_errors <- f.leg_errors + 1;
        f.legs <- (id, if hex count = 0 then [] else lines) :: f.legs
    | 'X' -> f.leg_errors <- f.leg_errors + 1
    | 'T' -> finish h f
    | _ -> failwith ("unexpected fan-out frame " ^ p)

  let rec drain h =
    match Unix.read h.fd h.buf 0 (Bytes.length h.buf) with
    | 0 -> failwith "the server closed the heavy connection"
    | n ->
        List.iter
          (function
            | Packet.Deframer.Ack -> ()
            | Packet.Deframer.Frame p -> (
                match h.cur with
                | Some f -> frame h f p
                | None -> failwith "fan-out frame with nothing in flight")
            | Packet.Deframer.Nak | Packet.Deframer.Bad _ ->
                failwith "damaged frame on loopback")
          (Packet.Deframer.feed h.dfr h.buf 0 n);
        drain h
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()

  let send ?cmd h ~due =
    let ((text, _) as cmd) =
      match cmd with
      | Some c -> c
      | None -> h.cycle.(h.sent mod Array.length h.cycle)
    in
    h.sent <- h.sent + 1;
    h.cur <-
      Some { h_cmd = cmd; due; chunks = Hashtbl.create 2; legs = []; leg_errors = 0 };
    h.late <- (now () -. due) :: h.late;
    let req = Packet.encode ("qDuelEvalAll:good,bad;" ^ text) in
    ignore (Unix.write_substring h.fd req 0 (String.length req))

  (* Read what has arrived; send the next fan-out if it is due. *)
  let tick h =
    drain h;
    if h.sending && h.cur = None && now () >= h.next_due then begin
      send h ~due:h.next_due;
      h.next_due <- h.next_due +. period
    end

  let wait_heavy h light_fd =
    let timeout =
      if h.sending && h.cur = None then
        Float.max 0. (Float.min 0.05 (h.next_due -. now ()))
      else 0.05
    in
    (try ignore (Unix.select (h.fd :: light_fd) [] [] timeout)
     with Unix.Unix_error (Unix.EINTR, _, _) -> ());
    tick h

  (* A fan-out run to completion with nothing else going on. *)
  let heavy_once ?cmd h =
    send ?cmd h ~due:(now ());
    while h.cur <> None do
      wait_heavy h []
    done

  type rig = {
    srv : server;
    spawn_s : float;  (** spawn until the listen line *)
    cl : Client.t;
    h : heavy;
    light : Gen.cmd array;
  }

  let setup o ~light ~heavy () =
    let spawn_s, srv = timed (fun () -> spawn o) in
    let lfd = connect srv.port in
    let hfd = connect srv.port in
    Unix.set_nonblock hfd;
    let h =
      {
        fd = hfd; dfr = Packet.Deframer.create (); buf = Bytes.create 65536;
        cycle = heavy; sending = false; next_due = 0.; sent = 0; cur = None;
        lat = []; late = []; done_ = 0; failed = 0; leg_errors = 0;
        on_done = (fun _ _ -> ());
      }
    in
    (* the light connection services the heavy one whenever it waits *)
    let cl = Client.of_fd ~pump:(fun () -> wait_heavy h [ lfd ]) lfd in
    Client.use_target cl "main";
    let seen = Hashtbl.create 64 in
    Array.iter
      (fun c ->
        if not (Hashtbl.mem seen c.Gen.text) then begin
          Hashtbl.add seen c.Gen.text ();
          ignore (Client.eval cl c.Gen.text)
        end)
      light;
    Array.iter (fun _ -> heavy_once h) heavy;
    { srv; spawn_s; cl; h; light }

  let teardown r =
    Client.close r.cl;
    Unix.close r.h.fd;
    stop r.srv

  let reset h =
    h.lat <- []; h.late <- []; h.done_ <- 0; h.failed <- 0; h.leg_errors <- 0

  type phase = {
    lat : float list;
    cmds : int;
    failed : int;
    elapsed : float;
    heavies : int;
  }

  (* The light connection back to back (closed loop) while the heavy one
     sends on its fixed schedule (open loop), if [with_heavy]. *)
  let phase ?tr ?(sp = no_samples) r ~with_heavy ~stop =
    let h = r.h in
    reset h;
    h.sending <- with_heavy;
    h.next_due <- now () +. (period /. 2.);
    let clk = clock () in
    let lat = ref [] and cmds = ref 0 and failed = ref 0 in
    let n = Array.length r.light in
    while not (stop ~elapsed:(active clk) ~cmds:!cmds) do
      (* the schedule stands still while a sample runs *)
      let paused = clk.paused in
      sample sp clk;
      h.next_due <- h.next_due +. (clk.paused -. paused);
      tick h;
      let c = r.light.(!cmds mod n) in
      let eval () =
        try Client.eval r.cl c.Gen.text
        with Client.Error f -> [ "error: " ^ Client.failure_message f ]
      in
      let dt, lines =
        match tr with
        | None -> timed eval
        | Some tr ->
            Btrace.set_cmd tr !cmds;
            timed (fun () -> Btrace.span tr "client.eval" eval)
      in
      lat := dt :: !lat;
      if not (matches c.Gen.text c.Gen.golden lines) then incr failed;
      incr cmds
    done;
    let elapsed = active clk in
    h.sending <- false;
    while h.cur <> None do
      wait_heavy h []
    done;
    finish_samples sp;
    { lat = !lat; cmds = !cmds; failed = !failed; elapsed; heavies = h.done_ }

  let check_schedule h =
    List.iter
      (fun late ->
        invariant (late < period)
          "serve_mixed: a fan-out went out %.1f ms late (period %.0f ms)"
          (ms late) (ms period))
      h.late

  let diff_cmd = "deep-->next->value"

  let diff_argv o port =
    [| o.oduel; "diff"; Printf.sprintf "127.0.0.1:%d" port; "good"; "bad"; diff_cmd |]

  (* The report oduel diff prints for the seeded divergence. *)
  let diff_expect =
    let k = nodes / 2 in
    let side id v =
      [ Printf.sprintf "  %-8s %s" (id ^ ":") (Gen.path "deep" "next" k "->value");
        Printf.sprintf "  %-8s = %d" "" v ]
    in
    String.concat ""
      (List.map (fun l -> l ^ "\n")
         ((Printf.sprintf "first divergence at value #%d:" k :: side "good" (3 * k))
         @ side "bad" ((3 * k) + 1)))

  let inputs o paper =
    let light = Gen.serve_light_cycle ~seed:o.seed
        (List.filter (fun c -> c.Gen.kind = Gen.Light) paper) in
    let heavy = Gen.serve_heavy_cycle ~seed:o.seed (Gen.heavy_cmds ~seed:o.seed nodes) in
    (light, heavy)

  let e2e o ~setups ~min_cmds ~tail paper =
    let light, heavy = inputs o paper in
    Gc.full_major ();
    let setup_s, r = timed (setup o ~light ~heavy) in
    let acc = { setups = [ setup_s ]; spawns = []; spawn_failures = 0 } in
    let sp =
      e2e_sampler ~seconds:o.seconds ~setups ~spawns:spawns_per_run acc
        ~setup:(fun () ->
          Gc.full_major ();
          let dt, r = timed (setup o ~light ~heavy) in
          teardown r;
          dt)
        ~spawn:(fun () ->
          spawn_timed ~code:1 ~expect:diff_expect (diff_argv o r.srv.port))
    in
    (* a sample first lets the fan-out in flight finish *)
    let sp =
      { sp with run = (fun i -> while r.h.cur <> None do wait_heavy r.h [] done; sp.run i) }
    in
    let p =
      phase ~sp r ~with_heavy:true
        ~stop:(timed_stop ~seconds:o.seconds ~min_cmds ~len:(Array.length light))
    in
    check_schedule r.h;
    let rss = peak_rss_mb (string_of_int r.srv.pid) in
    let heavy = r.h.lat and heavies = r.h.done_ and hfailed = r.h.failed in
    teardown r;
    {
      attempted = p.cmds + heavies + spawns_per_run;
      failed = p.failed + hfailed + acc.spawn_failures;
      values =
        e2e_values acc ~tail ~lat:p.lat ~heavy ~cmds:p.cmds ~elapsed:p.elapsed
          ~rss_mb:rss;
    }

  let stat st k = float_of_int (Option.value (List.assoc_opt k st) ~default:0)

  (* symbolic.ms: the fan-out's commands run in-process on both twins with
     symbolic values on and off. *)
  let symbolic_cost heavy =
    let session spec =
      let b = Result.get_ok (Backend.of_string spec) in
      (b, Session.create b.Backend.b_dbg)
    in
    let twins =
      [ session (Printf.sprintf "direct:deep_list:%d+cache+prefetch" nodes);
        session (Printf.sprintf "direct:deep_list_buggy:%d+cache+prefetch" nodes) ]
    in
    let sweep () =
      fst (timed (fun () ->
          Array.iter
            (fun (text, _) ->
              List.iter (fun (_, s) -> ignore (Session.exec s text)) twins)
            heavy))
    in
    ignore (sweep ());
    let on = sweep () in
    List.iter (fun (_, s) -> s.Session.env.Env.flags.Env.symbolic <- false) twins;
    ignore (sweep ());
    let off = sweep () in
    List.iter (fun (b, _) -> b.Backend.b_close ()) twins;
    ms (per (Array.length heavy) (on -. off))

  let layers o ~want ~budget paper =
    let light, heavy = inputs o paper in
    let tr = Btrace.create o.workload in
    Btrace.set_cmd tr (-1);
    let r = Btrace.span tr "setup" (fun () -> setup o ~light ~heavy ()) in
    (* oduel diff against the running server, minus the same fan-out *)
    let process =
      wanted want [ "target.build_ms"; "cli.process_ms" ] (fun () ->
          let oneshot_s, _ =
            oneshot ~reps:5 ~code:1 ~expect:diff_expect (diff_argv o r.srv.port)
          in
          let fanout_s =
            let cmd = List.find (fun (t, _) -> t = diff_cmd) (Array.to_list heavy) in
            Bstats.median
              (Array.init 5 (fun _ -> fst (timed (fun () -> heavy_once ~cmd r.h))))
          in
          invariant (r.h.failed = 0) "serve_mixed: the diff command's fan-out failed";
          [ ("target.build_ms", ms r.spawn_s); ("cli.process_ms", ms (oneshot_s -. fanout_s)) ])
    in
    let third = Float.max (budget /. 3.) (4. *. period) in
    let stop ~elapsed ~cmds:_ = elapsed >= third in
    let st0 = Client.server_stats r.cl in
    let u = phase r ~with_heavy:true ~stop in
    let st1 = Client.server_stats r.cl in
    let u_heavies = r.h.done_ in
    let idle = phase ~tr r ~with_heavy:false ~stop in
    let st2 = Client.server_stats r.cl in
    (* the heavy spans: due time to the last frame, one command id each *)
    r.h.on_done <-
      (fun f t ->
        Btrace.set_cmd tr (-2 - r.h.done_);
        ignore (Btrace.add tr "fanout" ~t0:f.due ~t1:t));
    let cpu0 = cpu_self () and scpu0 = proc_cpu_s r.srv.pid and wall0 = now () in
    let t = phase ~tr r ~with_heavy:true ~stop in
    let cpu1 = cpu_self () and scpu1 = proc_cpu_s r.srv.pid and wall1 = now () in
    let st3 = Client.server_stats r.cl in
    check_schedule r.h;
    let d a b k = stat b k -. stat a k in
    (* every request is one packet, traced or not *)
    let per_cmd_packets a b cmds = per cmds (d a b "packets" -. 1.) in
    invariant
      (per_cmd_packets st0 st1 (u.cmds + u_heavies)
      = per_cmd_packets st2 st3 (t.cmds + t.heavies))
      "serve_mixed: the traced pass made %.3f packets per command, the \
       untraced one %.3f"
      (per_cmd_packets st2 st3 (t.cmds + t.heavies))
      (per_cmd_packets st0 st1 (u.cmds + u_heavies));
    let n = t.cmds + t.heavies in
    let late = arr r.h.late and leg_errors = r.h.leg_errors in
    let failed = u.failed + idle.failed + t.failed + r.h.failed in
    let symbolic =
      wanted want [ "symbolic.ms" ] (fun () -> [ ("symbolic.ms", symbolic_cost heavy) ])
    in
    teardown r;
    let light_mean p = ms (Bstats.mean (arr p.lat)) in
    ( {
        attempted = u.cmds + idle.cmds + t.cmds + u_heavies + t.heavies;
        failed;
        values =
          process @ symbolic
          @ [
            ("rsp.packets_per_cmd", per n (d st2 st3 "packets"));
            ("wire.wait_ms", ms (per n (wall1 -. wall0 -. (cpu1 -. cpu0))));
            ("serve.cpu_ms_per_cmd", ms (per n (scpu1 -. scpu0)));
            ("client.cpu_ms_per_cmd", ms (per n (cpu1 -. cpu0)));
            ("serve.hol_ms", light_mean t -. light_mean idle);
            ( "plan.hit_ratio",
              let h = d st2 st3 "plan_hits" and m = d st2 st3 "plan_misses" in
              if h +. m = 0. then 0. else h /. (h +. m) );
            ("plan.compiles", d st2 st3 "plan_compiles");
            ("serve.bytes_out_per_cmd", per n (d st2 st3 "bytes_out"));
            ( "serve.values_per_heavy",
              per t.heavies (d st2 st3 "tgt.good.values" +. d st2 st3 "tgt.bad.values") );
            ("fleet.leg_errors", float_of_int leg_errors);
            ("loadgen.late_p99_ms", ms (Bstats.percentile late 99.));
            ( "trace.overhead_ms",
              ms (Bstats.median (arr t.lat) -. Bstats.median (arr u.lat)) );
          ];
      },
      tr )
end

(* --- watch_step ------------------------------------------------------------ *)

module Watch = struct
  let length = 100
  let expr = "#/(first-->next->value >? 0)"

  type rig = {
    dbg : Debugger.t;
    wid : int;
    ones : bool array;  (** the model: which cells, from the head, hold 1 *)
  }

  let source o = read_file (Filename.concat o.dir "bump.c")

  let load src =
    let inf = Inferior.create () in
    Duel_target.Stdfuncs.register_all inf;
    Interp.load inf src

  (* build(n) pushes i % 2 for i = 0..n-1, so the head holds (n-1) % 2. *)
  let make ?(tweak = ignore) src =
    let dbg = Debugger.create (load src) in
    tweak (Debugger.session dbg);
    invariant (Debugger.run_int dbg "build" [ length ] = Ok (Int64.of_int length))
      "watch_step: build did not return %d" length;
    let wid = Debugger.watch dbg expr in
    { dbg; wid; ones = Array.init length (fun j -> (length - 1 - j) mod 2 = 1) }

  (* One command: bump(k) must return k and fire the watchpoint k times. *)
  let bump r k =
    let h0 = Debugger.hits r.dbg r.wid in
    let ret = Debugger.run_int r.dbg "bump" [ k ] in
    for j = 0 to k - 1 do
      r.ones.(j) <- not r.ones.(j)
    done;
    (ret, Debugger.hits r.dbg r.wid - h0)

  let count r = Array.fold_left (fun n b -> if b then n + 1 else n) 0 r.ones

  (* The list has the length it started with, and the values the model
     says. *)
  let check_state r =
    invariant
      (Debugger.query r.dbg "#/(first-->next)"
      = [ Printf.sprintf "#/(first-->next) = %d" length ])
      "watch_step: the list no longer has %d cells" length;
    invariant
      (Debugger.query r.dbg expr = [ Printf.sprintf "%s = %d" expr (count r) ])
      "watch_step: the cells do not hold what bump() should have left"

  let setup ?tweak src cycle () =
    let r = make ?tweak src in
    List.iter (fun k -> ignore (bump r k))
      (List.sort_uniq compare (Array.to_list (Array.map fst cycle)));
    r

  type pass = {
    lat : float list;
    heavy : float list;
    results : ((int64, string) result * int) list;
    cmds : int;
    failed : int;
    fires : int;
    elapsed : float;
    c0 : counters;
    c1 : counters;
  }

  (* The watch expression evaluated once through the debugger's Session,
     step by step under spans. *)
  let replay tr r =
    ignore (traced_exec tr ~packets:(fun () -> 0) (Debugger.session r.dbg) expr)

  let run ?tr ?(sp = no_samples) r cycle ~stop =
    let s = Debugger.session r.dbg in
    let c0 = counters ~packets:0 s in
    let clk = clock () in
    let lat = ref [] and heavy = ref [] and results = ref [] in
    let cmds = ref 0 and failed = ref 0 and fires = ref 0 in
    let n = Array.length cycle in
    while not (stop ~elapsed:(active clk) ~cmds:!cmds) do
      sample sp clk;
      let k, kind = cycle.(!cmds mod n) in
      let dt, ((ret, fired) as res) =
        match tr with
        | None -> timed (fun () -> bump r k)
        | Some tr ->
            Btrace.set_cmd tr !cmds;
            let res = timed (fun () -> Btrace.span tr "debugger.run" (fun () -> bump r k)) in
            Btrace.span tr "watch.replay" (fun () -> replay tr r);
            res
      in
      lat := dt :: !lat;
      if kind = Gen.Heavy then heavy := dt :: !heavy;
      results := res :: !results;
      fires := !fires + fired;
      if ret <> Ok (Int64.of_int k) || fired <> k then incr failed;
      incr cmds
    done;
    let c1 = counters ~packets:0 s in
    finish_samples sp;
    { lat = !lat; heavy = !heavy; results = !results; cmds = !cmds;
      failed = !failed; fires = !fires; elapsed = active clk; c0; c1 }

  let oneshot_argv o =
    [| o.oduel; "--program"; Filename.concat o.dir "bump.c";
       "-e"; Printf.sprintf "run build %d" length; "-e"; "watch " ^ expr;
       "-e"; "run bump 2" |]

  (* The first toggle changes the count; with stdin at end of file the
     stop prompt aborts the run. *)
  let oneshot_expect =
    let c0 = length / 2 in
    let stop =
      Printf.sprintf "stopped: watchpoint 1: %s changed: %s = %d -> %s = %d" expr
        expr c0 expr (c0 - 1)
    in
    String.concat ""
      [ Printf.sprintf "duel> run build %d\nbuild returned %d\n" length length;
        Printf.sprintf "duel> watch %s\nwatchpoint 1 on %s\n" expr expr;
        "duel> run bump 2\n"; stop; "\n(stopped) duel> "; stop; "\n" ]

  let e2e o ~setups ~min_cmds ~tail =
    let src = source o in
    let cycle = Gen.watch_cycle ~seed:o.seed in
    Gc.full_major ();
    let setup_s, r = timed (setup src cycle) in
    let acc = { setups = [ setup_s ]; spawns = []; spawn_failures = 0 } in
    let sp =
      e2e_sampler ~seconds:o.seconds ~setups ~spawns:spawns_per_run acc
        ~setup:(fun () -> setup_in_child o)
        ~spawn:(fun () ->
          spawn_timed ~code:0 ~expect:oneshot_expect (oneshot_argv o))
    in
    let p =
      run ~sp r cycle
        ~stop:(timed_stop ~seconds:o.seconds ~min_cmds ~len:(Array.length cycle))
    in
    check_state r;
    {
      attempted = p.cmds + spawns_per_run;
      failed = p.failed + acc.spawn_failures;
      values =
        e2e_values acc ~tail ~lat:p.lat ~heavy:p.heavy ~cmds:p.cmds
          ~elapsed:p.elapsed ~rss_mb:(peak_rss_mb "self");
    }

  let mean_ms (p : pass) = ms (Bstats.mean (arr p.lat))

  let layers o ~want ~budget =
    let src = source o in
    let cycle = Gen.watch_cycle ~seed:o.seed in
    let len = Array.length cycle in
    let r = setup src cycle () in
    let a = run r cycle ~stop:(budget_stop ~budget ~len) in
    check_state r;
    let tr = Btrace.create o.workload in
    let r = setup src cycle () in
    let b = run ~tr r cycle ~stop:(same_count a.cmds) in
    check_state r;
    invariant (b.results = a.results)
      "watch_step: the traced pass returned or fired otherwise than the \
       untraced one";
    (* the same commands with symbolic values off *)
    let symbolic () =
      let r =
        setup ~tweak:(fun s -> s.Session.env.Env.flags.Env.symbolic <- false) src cycle ()
      in
      let nosym = run r cycle ~stop:(same_count a.cmds) in
      [ ("symbolic.ms", mean_ms a -. mean_ms nosym) ]
    in
    (* the bare program: the same commands with no debugger attached *)
    let twin = load src in
    let stmts = ref 0 in
    ignore (Interp.call_int twin "build" [ length ]);
    Interp.set_hook twin
      (Some (function Interp.Stmt _ -> incr stmts | _ -> ()));
    let bare, () =
      timed (fun () ->
          for i = 0 to a.cmds - 1 do
            ignore (Interp.call_int twin "bump" [ fst cycle.(i mod len) ])
          done)
    in
    let stmts_per_cmd = per a.cmds (float_of_int !stmts) in
    (* the watch is evaluated on entry and after every statement *)
    let evals = stmts_per_cmd +. 1. in
    (* what a one-shot CLI run adds on top of building and one cold command *)
    let process () =
      Btrace.set_cmd tr (-1);
      let build_s, cold =
        timed (fun () -> Btrace.span tr "target.build" (fun () -> make src))
      in
      (* the one-shot's stop prompt reads end of file and aborts the run *)
      Debugger.on_stop cold.dbg (fun _ _ -> Debugger.Abort);
      let cold_cmd, _ = timed (fun () -> bump cold 2) in
      let oneshot_s, _ =
        oneshot ~reps:3 ~code:0 ~expect:oneshot_expect (oneshot_argv o)
      in
      [ ("target.build_ms", ms build_s);
        ("cli.process_ms", ms (oneshot_s -. build_s -. cold_cmd)) ]
    in
    let n = a.cmds in
    let replay_layers =
      List.map
        (fun (k, v) -> if k = "dcache.flush_ms" then (k, v) else (k, v *. evals))
        (span_layers tr n)
    in
    let self = Btrace.self_by_name (Btrace.spans tr) in
    let replay_ms =
      ms (per n (List.fold_left (fun acc k -> acc +. self k) 0.
                   [ "parse"; "lower"; "engine"; "format"; "watch.replay" ]))
    in
    let run_lat = arr b.lat in
    ( {
        attempted = a.cmds + b.cmds;
        failed = a.failed + b.failed;
        values =
          wanted want [ "symbolic.ms" ] symbolic
          @ wanted want [ "target.build_ms"; "cli.process_ms" ] process
          @ [
            ( "trace.overhead_ms",
              ms (Bstats.median run_lat -. Bstats.median (arr a.lat)) );
            ("minic.ms_per_cmd", ms (per n bare));
            ("watch.stmts_per_cmd", stmts_per_cmd);
            ("watch.eval_ms", replay_ms *. evals);
            ("watch.fires_per_cmd", per n (float_of_int a.fires));
          ]
          @ replay_layers
          @ counter_layers n a.c0 a.c1;
      },
      tr )
end

(* --- the metric tables ------------------------------------------------------ *)

(* name, unit: must match BENCHMARK.json *)
let end_to_end =
  [ ("setup_s", "s"); ("cmd_p50_ms", "ms"); ("cmd_tail_ms", "ms");
    ("cmds_per_s", "1/s"); ("heavy_p50_ms", "ms"); ("oneshot_ms", "ms");
    ("peak_rss_mb", "MiB") ]

(* name, unit, and the workloads the layer map measures it on (its last
   column; [] for every workload).  A traced run of workload W takes a
   metric from W itself when W is one of them, and otherwise from a short
   traced pass of the first. *)
let per_layer =
  let every = [] in
  let core = [ "repl_local"; "watch_step" ] in
  let cache = [ "remote_rtt"; "remote_tree"; "repl_local" ] in
  let wire = [ "remote_rtt"; "remote_tree"; "serve_mixed" ] in
  let serve = [ "serve_mixed" ] and watch = [ "watch_step" ] in
  [
    ("target.build_ms", "ms", every); ("cli.process_ms", "ms", every);
    ("parse.ms", "ms", core); ("lower.ms", "ms", core); ("engine.ms", "ms", core);
    ("format.ms", "ms", core); ("symbolic.ms", "ms", [ "serve_mixed"; "watch_step" ]);
    ("slots.hit_ratio", "ratio", [ "repl_local" ]);
    ("slots.stale_per_cmd", "count/cmd", [ "repl_local" ]);
    ("gc.minor_mw_per_cmd", "Mword/cmd", [ "watch_step"; "repl_local" ]);
    ("gc.major_per_kcmd", "count/kcmd", [ "watch_step"; "repl_local" ]);
    ("dcache.hit_ratio", "ratio", cache); ("dcache.fills_per_cmd", "count/cmd", cache);
    ("dcache.round_trips_per_cmd", "count/cmd", cache);
    ("dcache.invalidations_per_cmd", "count/cmd", cache); ("dcache.flush_ms", "ms", cache);
    ("prefetch.issued_per_cmd", "count/cmd", cache); ("prefetch.useful_ratio", "ratio", cache);
    ("prefetch.wasted_per_cmd", "count/cmd", cache); ("prefetch.cost_ms", "ms", cache);
    ("prefetch.direct_cost_ms", "ms", [ "repl_local" ]);
    ("rsp.packets_per_cmd", "count/cmd", wire); ("wire.wait_ms", "ms", wire);
    ("serve.cpu_ms_per_cmd", "ms", serve); ("client.cpu_ms_per_cmd", "ms", every);
    ("serve.hol_ms", "ms", serve); ("plan.hit_ratio", "ratio", serve);
    ("plan.compiles", "count", serve); ("serve.bytes_out_per_cmd", "B/cmd", serve);
    ("serve.values_per_heavy", "count", serve); ("fleet.leg_errors", "count", serve);
    ("loadgen.late_p99_ms", "ms", serve); ("minic.ms_per_cmd", "ms", watch);
    ("watch.stmts_per_cmd", "count/cmd", watch); ("watch.eval_ms", "ms", watch);
    ("watch.fires_per_cmd", "count/cmd", watch); ("trace.overhead_ms", "ms", every);
  ]

(* The workload a traced run of [w] takes [metric] from. *)
let source w metric =
  match List.find (fun (m, _, _) -> m = metric) per_layer with
  | _, _, homes when homes = [] || List.mem w homes -> w
  | _, _, homes -> List.hd homes

(* Per workload: cold set-ups per run, and the least timed command count
   (the tail percentile is the one that leaves ten samples beyond it at
   that count). *)
let shape = function
  | "repl_local" -> (15, 1000)
  | "remote_rtt" -> (3, 200)
  | "remote_tree" -> (5, 500)
  | "serve_mixed" -> (5, 50000)
  | "watch_step" -> (15, 500)
  | w -> failwith ("unknown workload " ^ w)

let workloads =
  [ "repl_local"; "remote_rtt"; "remote_tree"; "serve_mixed"; "watch_step" ]

(* The Session workloads: their stack and their seeded cycle. *)
let session_workload o paper =
  match o.workload with
  | "repl_local" -> Some (Repl.local, Gen.repl_cycle ~seed:o.seed paper)
  | "remote_rtt" -> Some (Repl.remote, Gen.repl_cycle ~seed:o.seed paper)
  | "remote_tree" -> Some (Repl.tree, Gen.tree_cycle ~seed:o.seed)
  | _ -> None

let e2e o paper =
  let setups, min_cmds = shape o.workload in
  let tail = Bstats.tail_level min_cmds in
  match (session_workload o paper, o.workload) with
  | Some (stack, steps), _ -> Repl.e2e o ~stack ~setups ~min_cmds ~tail steps
  | None, "serve_mixed" -> Serve.e2e o ~setups ~min_cmds ~tail paper
  | None, _ -> Watch.e2e o ~setups ~min_cmds ~tail

(* One pass of the traced run of workload [traced]: [o.workload] under
   spans, reporting the per-layer metrics that run takes from it.  Its
   spans go to perfbench/out/trace-<traced>-<seed>[-<workload>].json. *)
let pass o paper ~traced =
  let want m = source traced m = o.workload in
  let budget = o.seconds *. if o.workload = traced then 0.3 else 0.1 in
  let out, tr =
    match (session_workload o paper, o.workload) with
    | Some (stack, steps), _ -> Repl.layers o ~want ~stack ~budget steps
    | None, "serve_mixed" -> Serve.layers o ~want ~budget paper
    | None, _ -> Watch.layers o ~want ~budget
  in
  let out_dir = Filename.concat o.dir "out" in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  Btrace.write_chrome
    (Filename.concat out_dir
       (if o.workload = traced then Printf.sprintf "trace-%s-%d.json" traced o.seed
        else Printf.sprintf "trace-%s-%d-%s.json" traced o.seed o.workload))
    [ tr ];
  { out with values = List.filter (fun (m, _) -> want m) out.values }

(* A fill-in pass, in a fresh driver process (driver.exe --fill-in-for
   TRACED): its figures, its garbage collections above all, then do not
   depend on what the passes before it left in the heap.  The child
   prints "attempted N", "failed N" and one "metric value" line each. *)
let pass_in_child o ~traced w =
  let out, status =
    spawn_collect
      [| Sys.executable_name; "--workload"; w; "--seed"; string_of_int o.seed;
         "--seconds"; Printf.sprintf "%.17g" o.seconds; "--trace"; "1";
         "--fill-in-for"; traced; "--oduel"; o.oduel; "--dir"; o.dir |]
  in
  (match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED 3 -> raise (Invariant (Printf.sprintf "in the %s fill-in pass, above" w))
  | _ -> failwith (Printf.sprintf "the %s fill-in pass failed" w));
  List.fold_left
    (fun acc line ->
      match String.split_on_char ' ' line with
      | [ "attempted"; n ] -> { acc with attempted = int_of_string n }
      | [ "failed"; n ] -> { acc with failed = int_of_string n }
      | [ m; v ] -> { acc with values = acc.values @ [ (m, float_of_string v) ] }
      | _ -> acc)
    { attempted = 0; failed = 0; values = [] }
    (String.split_on_char '\n' out)

let print_fill_in out =
  Printf.printf "attempted %d\nfailed %d\n" out.attempted out.failed;
  List.iter (fun (m, v) -> Printf.printf "%s %.17g\n" m v) out.values

(* The traced run: a pass of the named workload, then one of each
   workload that some per-layer metric comes from instead (the named one
   has no server, no watchpoint or no RSP, or the layer map names another
   workload for the metric). *)
let layers o paper =
  let fill_ins =
    List.sort_uniq compare
      (List.filter_map
         (fun (m, _, _) ->
           let w = source o.workload m in
           if w = o.workload then None else Some w)
         per_layer)
  in
  List.fold_left
    (fun acc w ->
      let r = pass_in_child o ~traced:o.workload w in
      { attempted = acc.attempted + r.attempted; failed = acc.failed + r.failed;
        values = acc.values @ r.values })
    (pass o paper ~traced:o.workload)
    fill_ins

(* One cold set-up, timed, for --cold-setup (see setup_in_child). *)
let cold_setup o paper =
  let dt =
    match (session_workload o paper, o.workload) with
    | Some (stack, steps), _ ->
        let dt, rig = timed (Repl.setup stack steps) in
        Repl.close rig;
        dt
    | None, "watch_step" ->
        fst (timed (Watch.setup (Watch.source o) (Gen.watch_cycle ~seed:o.seed)))
    | None, w -> failwith ("no cold set-up in a child process for " ^ w)
  in
  Printf.printf "%.17g\n" dt

(* --- output ---------------------------------------------------------------- *)

let print_result out table =
  let metric (name, unit_) =
    let v =
      match List.assoc_opt name out.values with
      | Some v when Float.is_finite v -> v
      | Some _ -> raise (Invariant ("no samples for " ^ name))
      | None -> raise (Invariant ("not measured: " ^ name))
    in
    Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}" (Btrace.json_string name)
      v (Btrace.json_string unit_)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (out.failed = 0) out.attempted out.failed
    (String.concat ", " (List.map metric table))

(* --- self-test --------------------------------------------------------------- *)

let self_test dir =
  let paper = Gen.load_paper (Filename.concat dir "golden.txt") in
  let ok = ref true in
  let check name c =
    Printf.printf "%s %s\n" (if c then "ok  " else "FAIL") name;
    if not c then ok := false
  in
  let texts seed =
    Array.map
      (fun (st : Gen.step) -> st.cmd.Gen.text ^ "@" ^ string_of_int st.resume)
      (Gen.repl_cycle ~seed paper)
  in
  check "same seed, same local/remote sequence" (texts 7 = texts 7);
  check "another seed, another order" (texts 7 <> texts 8);
  check "same seed, same serve schedule"
    (Gen.serve_heavy_cycle ~seed:3 (Gen.heavy_cmds ~seed:3 100)
    = Gen.serve_heavy_cycle ~seed:3 (Gen.heavy_cmds ~seed:3 100));
  check "same seed, same watch sequence" (Gen.watch_cycle ~seed:5 = Gen.watch_cycle ~seed:5);
  check "same seed, same tree sequence" (Gen.tree_cycle ~seed:5 = Gen.tree_cycle ~seed:5);
  check "preorder keys: the root's right child follows its left subtree"
    (Gen.tree_key [ "right" ] = 1 lsl (Gen.tree_depth - 1)
    && Gen.tree_key [ "left"; "left" ] = 2);
  check "runs of four or more steps compress"
    (Gen.fields_path "r" [ "l"; "l"; "l"; "l"; "n"; "l" ] "->k" = "r-->l[[4]]->n->l->k"
    && Gen.fields_path "r" [ "l"; "l"; "l" ] "" = "r->l->l->l");
  let kinds seed =
    List.sort compare
      (Array.to_list
         (Array.map (fun (st : Gen.step) -> st.cmd.Gen.kind) (Gen.repl_cycle ~seed paper)))
  in
  check "every seed has the same command mix" (kinds 1 = kinds 2);
  let search_lengths seed =
    List.sort compare
      (Array.to_list
         (Array.map (fun (st : Gen.step) -> List.length st.cmd.Gen.golden) (Gen.tree_cycle ~seed)))
  in
  check "every seed searches the same path lengths" (search_lengths 1 = search_lengths 2);
  check "nodes at a depth count from the left"
    (Gen.node_at 3 0 = [ "left"; "left"; "left" ] && Gen.node_at 3 5 = [ "right"; "left"; "right" ]);
  check "a tree search prints the path down to its key"
    ((Gen.tree_search [ "right"; "left" ]).Gen.golden
    = [ "droot->key = 0"; "droot->right->key = 512"; "droot->right->left->key = 513" ]);
  check "tail at 1000 samples is p99" (Bstats.tail_level 1000 = 99.);
  check "tail at 999 samples is p98" (Bstats.tail_level 999 = 98.);
  check "tail at 4000 samples is p99.5" (Bstats.tail_level 4000 = 99.5);
  check "tail at 20 samples is p50" (Bstats.tail_level 20 = 50.);
  check "ten samples beyond p99 of 1000"
    (Bstats.beyond 1000 99. = 10 && Bstats.beyond 1000 99.5 < 10);
  let xs = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  check "p99 of 1..1000 is 990" (Bstats.percentile xs 99. = 990.);
  (* root [0,10] with children a [1,4] and b [3,6] (overlapping), a with
     child c [2,3]; d [20,21] is another root *)
  let tr = Btrace.create "test" in
  let id name ?parent t0 t1 = Btrace.add tr ?parent name ~t0 ~t1 in
  let root = id "root" 0. 10. in
  let a = id "a" ~parent:root 1. 4. in
  ignore (id "b" ~parent:root 3. 6.);
  ignore (id "c" ~parent:a 2. 3.);
  ignore (id "d" 20. 21.);
  let self = Btrace.self_by_name (Btrace.spans tr) in
  let near x y = Float.abs (x -. y) < 1e-9 in
  check "self time: root minus the union of its children" (near (self "root") 5.);
  check "self time: a minus its child" (near (self "a") 2.);
  check "self time: leaves keep their duration"
    (near (self "b") 3. && near (self "c") 1. && near (self "d") 1.);
  check "goldens loaded" (List.length paper > 20);
  if not !ok then exit 1

(* --- main -------------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let oduel = ref "" and dir = ref "perfbench" and selftest = ref false in
  let cold = ref false and fill_for = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced breakdown");
      ("--oduel", Arg.Set_string oduel, "PATH the built oduel binary");
      ("--dir", Arg.Set_string dir, "DIR the benchmark's directory");
      ("--self-test", Arg.Set selftest, " check the driver's own helpers");
      ("--cold-setup", Arg.Set cold, " time one cold set-up and print its seconds");
      ( "--fill-in-for",
        Arg.Set_string fill_for,
        "NAME run one fill-in pass of NAME's traced run and print its figures" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "driver.exe --workload NAME --seed N --seconds S --trace 0|1 --oduel PATH";
  if !selftest then self_test !dir
  else begin
    if not (List.mem !workload workloads) then begin
      prerr_endline ("driver: unknown workload " ^ !workload);
      exit 2
    end;
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
    let o =
      { workload = !workload; seed = !seed; seconds = !seconds;
        trace = !trace = 1; oduel = !oduel; dir = !dir }
    in
    let paper = Gen.load_paper (Filename.concat o.dir "golden.txt") in
    try
      if !cold then cold_setup o paper
      else if !fill_for <> "" then print_fill_in (pass o paper ~traced:!fill_for)
      else if o.trace then
        print_result (layers o paper) (List.map (fun (m, u, _) -> (m, u)) per_layer)
      else print_result (e2e o paper) end_to_end
    with Invariant msg ->
      prerr_endline ("driver: invariant broken: " ^ msg);
      exit 3
  end
