(* Benchmark harness: regenerates every quantitative claim in the paper's
   evaluation (experiments B1-B6 and C1 in DESIGN.md / EXPERIMENTS.md).

   The paper has no numbered tables or figures; its measurable claims are
   in the Implementation section.  For each experiment we print the
   measured numbers and the paper's claim next to a PASS/CHECK verdict on
   the *shape* (who is faster, by roughly what factor), since absolute
   numbers are hardware-bound (the paper used a DECstation 5000).

   Run with: dune exec bench/main.exe *)

open Bechamel
module Session = Duel_core.Session
module Env = Duel_core.Env
module Scenarios = Duel_scenarios.Scenarios
module Cquery = Duel_cquery.Cquery
module Conciseness = Duel_cquery.Conciseness
module Backend = Duel_backend.Backend
module Dbgi = Duel_dbgi.Dbgi
module Dispatcher = Duel_dbgi.Dispatcher

let ( // ) a b = if b = 0.0 then Float.nan else a /. b

(* Backends are built from spec strings (lib/backend): the configuration
   a tier measures is the same value a user can hand to oduel --target. *)
let backend_of spec =
  match Backend.of_string spec with
  | Ok b -> b
  | Error m -> failwith (spec ^ ": " ^ m)

(* --- tiny driver on top of bechamel ------------------------------------ *)

let measure (tests : (string * (unit -> unit)) list) : (string * float) list =
  let elts =
    List.map (fun (name, fn) -> Test.make ~name (Staged.stage fn)) tests
  in
  let grouped = Test.make_grouped ~name:"g" ~fmt:"%s%s" elts in
  let cfg =
    Benchmark.cfg ~limit:400 ~quota:(Time.second 0.4) ~stabilize:false
      ~start:10 ()
  in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] grouped in
  let label = Measure.label Toolkit.Instance.monotonic_clock in
  let ols_of arr =
    let ols =
      Analyze.OLS.ols ~bootstrap:0 ~r_square:false ~responder:label
        ~predictors:[| Measure.run |] arr
    in
    match Analyze.OLS.estimates ols with
    | Some (est :: _) -> est
    | _ -> Float.nan
  in
  List.map
    (fun (name, _) ->
      let key = "g" ^ name in
      match Hashtbl.find_opt raw key with
      | Some b -> (name, ols_of b.Benchmark.lr)
      | None -> (name, Float.nan))
    tests

let ns v =
  if Float.is_nan v then "n/a"
  else if v >= 1e9 then Printf.sprintf "%8.2f s " (v /. 1e9)
  else if v >= 1e6 then Printf.sprintf "%8.2f ms" (v /. 1e6)
  else if v >= 1e3 then Printf.sprintf "%8.2f us" (v /. 1e3)
  else Printf.sprintf "%8.0f ns" v

let header title = Printf.printf "\n=== %s ===\n" title
let row name v = Printf.printf "  %-42s %s\n" name (ns v)

let verdict ok claim =
  Printf.printf "  -> %s %s\n" (if ok then "[shape holds]" else "[CHECK]") claim

let session_of inf = Session.create (Duel_target.Backend.direct inf)

let prepared session query =
  let ast = Session.parse session query in
  fun () -> ignore (Session.drive session ast)

(* --- B1: the x[..10000] >? 0 sweep -------------------------------------- *)

let b1 () =
  header "B1  sweep: big[..10000] >? 0   (paper: ~5 s on a DECstation 5000)";
  let inf = Scenarios.big_array 10000 in
  let s = session_of inf in
  let query = "big[..10000] >? 0" in
  let eval_only = prepared s query in
  let parse_and_eval () = ignore (Session.drive s (Session.parse s query)) in
  let eval_1k = prepared s "big[..1000] >? 0" in
  let results =
    measure
      [
        ("b1_eval_10k", eval_only);
        ("b1_parse_eval_10k", parse_and_eval);
        ("b1_eval_1k", eval_1k);
      ]
  in
  List.iter (fun (n, v) -> row n v) results;
  let t10k = List.assoc "b1_eval_10k" results in
  let t1k = List.assoc "b1_eval_1k" results in
  verdict
    (t10k < 5e9 && t10k > t1k && t10k // t1k < 30.0)
    (Printf.sprintf
       "well under the interactive threshold; cost scales ~linearly (10k/1k \
        = %.1fx)"
       (t10k // t1k))

(* --- B2: name lookup dominates 1..100+i ---------------------------------- *)

let b2 () =
  header
    "B2  lookup: 1..100+i   (paper: most time goes to the 100 lookups of i; \
     measured at 5000 iterations so the lookup term dominates the noise)";
  let inf = Scenarios.all () in
  let s = session_of inf in
  (* symbolic computation off so the measurement isolates name lookup *)
  s.Session.env.Env.flags.Env.symbolic <- false;
  ignore (Session.exec s "i := 5");
  let alias = prepared s "1..5000+i" in
  let const = prepared s "1..5000+5" in
  let global = prepared s "1..5000+i0" in
  let results =
    measure
      [ ("b2_alias_i", alias); ("b2_global_i0", global); ("b2_const_5", const) ]
  in
  List.iter (fun (n, v) -> row n v) results;
  let ta = List.assoc "b2_alias_i" results in
  let tg = List.assoc "b2_global_i0" results in
  let tc = List.assoc "b2_const_5" results in
  (* expected divergence: the 1993 claim came from per-evaluation searches
     of gdb's symbol tables; our O(1) hash lookups put the name cost within
     measurement noise of a constant.  The verdict asserts exactly that. *)
  verdict
    (ta // tc < 2.0 && tg // tc < 2.0)
    (Printf.sprintf
       "alias %.2fx, global(+fetch) %.2fx of the constant query: lookups NO \
        LONGER dominate (expected divergence — the paper's cost was gdb's \
        per-evaluation symbol search; see EXPERIMENTS.md B2)"
       (ta // tc) (tg // tc))

(* --- B3: symbolic-value computation dominates ---------------------------- *)

let b3 () =
  header
    "B3  symbolic values: big[..1000] !=? 0   (paper: symbolic computation \
     is more expensive than the result; computed 1000 times, printed once)";
  let inf = Scenarios.big_array 1000 in
  let s_on = session_of inf in
  let s_off = session_of inf in
  s_off.Session.env.Env.flags.Env.symbolic <- false;
  let query = "big[..1000] !=? 0" in
  let on = prepared s_on query in
  let off = prepared s_off query in
  let results = measure [ ("b3_symbolic_on", on); ("b3_symbolic_off", off) ] in
  List.iter (fun (n, v) -> row n v) results;
  let t_on = List.assoc "b3_symbolic_on" results in
  let t_off = List.assoc "b3_symbolic_off" results in
  verdict (t_on > t_off)
    (Printf.sprintf "symbolic overhead: %.2fx (on/off)" (t_on // t_off))

(* --- B4: engine ablation -------------------------------------------------- *)

let b4 () =
  header
    "B4  engines: lazy-Seq vs paper's state machine   (paper: 'more \
     efficient implementations of generators are possible')";
  let mk engine =
    let inf = Scenarios.all () in
    Session.create ~engine (Duel_target.Backend.direct inf)
  in
  let seq = mk Session.Seq_engine and sm = mk Session.Sm_engine in
  let deep = "hash[..1024]-->next->if (next) scope <? next->scope" in
  let arith = "((1..40)*(1..40)) >? 1500" in
  let results =
    measure
      [
        ("b4_seq_traversal", prepared seq deep);
        ("b4_sm_traversal", prepared sm deep);
        ("b4_seq_arith", prepared seq arith);
        ("b4_sm_arith", prepared sm arith);
      ]
  in
  List.iter (fun (n, v) -> row n v) results;
  let r1 =
    List.assoc "b4_sm_traversal" results
    // List.assoc "b4_seq_traversal" results
  in
  let r2 =
    List.assoc "b4_sm_arith" results // List.assoc "b4_seq_arith" results
  in
  verdict
    (Float.is_finite r1 && Float.is_finite r2)
    (Printf.sprintf
       "state-machine/seq cost ratio: traversal %.2fx, arithmetic %.2fx \
        (both engines interactive-speed)"
       r1 r2)

(* --- B5: interpreted DUEL vs compiled-style C baseline -------------------- *)

let b5 () =
  header
    "B5  DUEL one-liners vs the C baseline loops   (intro claim: the \
     one-liner replaces non-trivial C; cost of interpretation is the price)";
  let inf = Scenarios.all () in
  let s = session_of inf in
  let dbg = Duel_target.Backend.direct inf in
  let pairs =
    [
      ( "array_search",
        prepared s "x[1..4,8,12..50] >? 5 <? 10",
        fun () ->
          ignore
            (Cquery.array_search dbg ~name:"x"
               ~ranges:[ (1, 4); (8, 8); (12, 50) ]
               ~lo:5L ~hi:10L) );
      ( "hash_scan",
        prepared s "(hash[..1024] !=? 0)->scope >? 5",
        fun () -> ignore (Cquery.hash_high_scopes dbg ~threshold:5L) );
      ( "list_dups",
        prepared s
          "L-->next#i->value ==? L-->next#j->value => if (i < j) \
           L-->next[[i,j]]->value",
        fun () -> ignore (Cquery.list_duplicates dbg ~name:"L") );
      ( "tree_count",
        prepared s "#/(root-->(left,right)->key)",
        fun () -> ignore (Cquery.tree_count dbg ~name:"root") );
    ]
  in
  let tests =
    List.concat_map
      (fun (name, duel, c) -> [ ("b5_duel_" ^ name, duel); ("b5_c_" ^ name, c) ])
      pairs
  in
  let results = measure tests in
  List.iter (fun (n, v) -> row n v) results;
  let all_slower =
    List.for_all
      (fun (name, _, _) ->
        List.assoc ("b5_duel_" ^ name) results
        > List.assoc ("b5_c_" ^ name) results)
      pairs
  in
  let ratios =
    String.concat ", "
      (List.map
         (fun (name, _, _) ->
           Printf.sprintf "%s %.0fx" name
             (List.assoc ("b5_duel_" ^ name) results
             // List.assoc ("b5_c_" ^ name) results))
         pairs)
  in
  verdict all_slower
    ("interpretation overhead vs native loops (still interactive): " ^ ratios)

(* --- B6: debugger-interface transport overhead ---------------------------- *)

let b6 () =
  header
    "B6  narrow interface: direct backend vs RSP loopback   (paper: the \
     interface is intentionally narrow; here every access crosses a \
     gdbserver-style packet layer)";
  (* cache off on the bare-RSP arm: this experiment measures the packet
     layer; D1 below measures what the data cache recovers. *)
  let direct_s = Session.create (Backend.of_spec "direct:all+cache") in
  let rsp_s = Session.create (Backend.of_spec "rsp:all") in
  let rsp_cached_s = Session.create (Backend.of_spec "rsp:all+cache") in
  let query = "x[..100] >? 0" in
  let results =
    measure
      [
        ("b6_direct", prepared direct_s query);
        ("b6_rsp", prepared rsp_s query);
        ("b6_rsp_dcache", prepared rsp_cached_s query);
      ]
  in
  List.iter (fun (n, v) -> row n v) results;
  let r = List.assoc "b6_rsp" results // List.assoc "b6_direct" results in
  verdict (r > 1.0) (Printf.sprintf "packet layer costs %.1fx on this sweep" r)

(* --- B7: DUEL in watchpoints (the paper's future work) -------------------- *)

let b7_program =
  {|
struct cell { int value; struct cell *next; };
struct cell *first;
int push(int v) {
  struct cell *q;
  q = (struct cell *)malloc(sizeof(struct cell));
  q->value = v;
  q->next = first;
  first = q;
  return v;
}
int build(int n) {
  int i;
  for (i = 0; i < n; i++) push(i);
  return n;
}
|}

let b7 () =
  header
    "B7  DUEL conditions in watchpoints   (paper: 'a faster implementation \
     would be required if Duel expressions were used in watchpoints and \
     conditional breakpoints' — we measure exactly that overhead)";
  let fresh () =
    let inf = Duel_target.Inferior.create () in
    Duel_target.Stdfuncs.register_all inf;
    let interp = Duel_minic.Interp.load inf b7_program in
    Duel_debug.Debugger.create interp
  in
  let bare = fresh () in
  let watched = fresh () in
  ignore (Duel_debug.Debugger.watch watched "#/(first-->next)");
  let watched_off = fresh () in
  ignore (Duel_debug.Debugger.watch watched_off "#/(first-->next)");
  (Duel_debug.Debugger.session watched_off).Session.env.Env.flags.Env.symbolic <-
    false;
  let run dbg () =
    match Duel_debug.Debugger.run_int dbg "build" [ 20 ] with
    | Ok _ -> ()
    | Error e -> failwith e
  in
  let results =
    measure
      [
        ("b7_no_watchpoint", run bare);
        ("b7_duel_watchpoint", run watched);
        ("b7_watchpoint_nosym", run watched_off);
      ]
  in
  List.iter (fun (n, v) -> row n v) results;
  let r =
    List.assoc "b7_duel_watchpoint" results
    // List.assoc "b7_no_watchpoint" results
  in
  let r2 =
    List.assoc "b7_duel_watchpoint" results
    // List.assoc "b7_watchpoint_nosym" results
  in
  verdict (r > 2.0)
    (Printf.sprintf
       "a per-statement DUEL watchpoint costs %.0fx; symbolic computation \
        alone accounts for %.1fx of it — the paper's concern, quantified"
       r r2)

(* --- D1: the target-memory data cache over RSP ---------------------------- *)

(* Deep pointer traversals where every [->next] hop is a dependent target
   read: the worst case for a packet-per-access remote protocol and the
   best case for the line-granular data cache.  We count actual framed
   packets through a counted exchange and time the same query cached and
   uncached.  [--quick --json FILE] runs only this tier (the CI smoke
   step); a full run appends it after B1-C1. *)

type d1_row = {
  d_name : string;
  d_query : string;
  d_size : int;
  d_packets_uncached : int;
  d_packets_cached : int;
  d_packets_prefetch : int;
  d_uncached_s : float;
  d_cached_cold_s : float;
  d_cached_warm_s : float;
  d_prefetch_cold_s : float;
}

let time_run fn =
  let t0 = Unix.gettimeofday () in
  fn ();
  Unix.gettimeofday () -. t0

let best_of k fn =
  let rec go best k =
    if k = 0 then best else go (Float.min best (time_run fn)) (k - 1)
  in
  go (time_run fn) (k - 1)

(* The RSP loopback with the backend library's packet counter; the
   cached arm is literally the same spec plus "+cache". *)
let d1_workload ~name ~query ~size ~spec =
  (* Uncached: every access is a round-trip. *)
  let b_u = backend_of spec in
  let s_u = Session.create b_u.Backend.b_dbg in
  let run_u = prepared s_u query in
  run_u ();
  let d_packets_uncached = !(b_u.Backend.b_packets) in
  let d_uncached_s = best_of 3 run_u in
  (* Cached: the first (cold) run is the packet count that matters. *)
  let b_c = backend_of (spec ^ "+cache") in
  let s_c = Session.create b_c.Backend.b_dbg in
  let run_c = prepared s_c query in
  let d_cached_cold_s = time_run run_c in
  let d_packets_cached = !(b_c.Backend.b_packets) in
  let d_cached_warm_s = best_of 3 run_c in
  (match Duel_dbgi.Dcache.stats b_c.Backend.b_dbg with
  | Some st ->
      Printf.printf "  %-14s cache counters: %s\n" name
        (String.concat "; " (Duel_dbgi.Dcache.to_lines st))
  | None -> ());
  (* Prefetching: same cache, plus read-ahead.  The cold run is the one
     it exists for — dependent chases whose nodes arrive with the page
     block of an earlier miss instead of one fill per line. *)
  let b_p = backend_of (spec ^ "+cache+prefetch") in
  let s_p = Session.create b_p.Backend.b_dbg in
  let run_p = prepared s_p query in
  let d_prefetch_cold_s = time_run run_p in
  let d_packets_prefetch = !(b_p.Backend.b_packets) in
  (match Duel_dbgi.Prefetch.stats b_p.Backend.b_dbg with
  | Some st ->
      Printf.printf "  %-14s prefetch counters: %s\n" name
        (String.concat "; " (Duel_dbgi.Prefetch.to_lines st))
  | None -> ());
  b_u.Backend.b_close ();
  b_c.Backend.b_close ();
  b_p.Backend.b_close ();
  {
    d_name = name;
    d_query = query;
    d_size = size;
    d_packets_uncached;
    d_packets_cached;
    d_packets_prefetch;
    d_uncached_s;
    d_cached_cold_s;
    d_cached_warm_s;
    d_prefetch_cold_s;
  }

let d1_pass r =
  r.d_packets_uncached >= 5 * r.d_packets_cached
  && r.d_cached_cold_s < r.d_uncached_s
  && r.d_packets_cached >= 3 * r.d_packets_prefetch

let d1_json ~quick rows =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"bench\": \"dcache_rsp_traversal\",\n";
  Buffer.add_string b (Printf.sprintf "  \"quick\": %b,\n" quick);
  Buffer.add_string b "  \"workloads\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"name\": %S, \"query\": %S, \"size\": %d,\n\
           \     \"packets_uncached\": %d, \"packets_cached\": %d, \
            \"packets_prefetch\": %d, \"packet_ratio\": %.2f,\n\
           \     \"prefetch_ratio\": %.2f,\n\
           \     \"uncached_s\": %.6f, \"cached_cold_s\": %.6f, \
            \"cached_warm_s\": %.6f,\n\
           \     \"prefetch_cold_s\": %.6f,\n\
           \     \"speedup_cold\": %.2f, \"speedup_warm\": %.2f, \"pass\": \
            %b}%s\n"
           r.d_name r.d_query r.d_size r.d_packets_uncached r.d_packets_cached
           r.d_packets_prefetch
           (float_of_int r.d_packets_uncached
           // float_of_int r.d_packets_cached)
           (float_of_int r.d_packets_cached
           // float_of_int r.d_packets_prefetch)
           r.d_uncached_s r.d_cached_cold_s r.d_cached_warm_s
           r.d_prefetch_cold_s
           (r.d_uncached_s // r.d_cached_cold_s)
           (r.d_uncached_s // r.d_cached_warm_s)
           (d1_pass r)
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string b "  ],\n";
  Buffer.add_string b
    (Printf.sprintf "  \"pass\": %b\n}\n" (List.for_all d1_pass rows));
  Buffer.contents b

let d1 ~quick ~json_file () =
  header
    "D1  data cache: deep traversals over RSP loopback, cache off / on / \
     on+prefetch (packets = framed $...#xx exchanges; cold = first run on \
     an empty cache)";
  let n = if quick then 600 else 2000 in
  let depth = if quick then 9 else 11 in
  let r_list =
    d1_workload ~name:"deep_list" ~query:"#/(deep-->next->value)" ~size:n
      ~spec:(Printf.sprintf "rsp:deep_list:%d" n)
  in
  let r_tree =
    d1_workload ~name:"deep_tree" ~query:"#/(droot-->(left,right)->key)"
      ~size:depth
      ~spec:(Printf.sprintf "rsp:deep_tree:%d" depth)
  in
  let rows = [ r_list; r_tree ] in
  Printf.printf "  %-14s %10s %10s %10s %8s %12s %12s %12s\n" "workload"
    "pkts(raw)" "pkts($)" "pkts(pf)" "ratio" "raw" "cold $" "cold pf";
  List.iter
    (fun r ->
      Printf.printf "  %-14s %10d %10d %10d %7.1fx %s %s %s\n" r.d_name
        r.d_packets_uncached r.d_packets_cached r.d_packets_prefetch
        (float_of_int r.d_packets_uncached // float_of_int r.d_packets_cached)
        (ns (r.d_uncached_s *. 1e9))
        (ns (r.d_cached_cold_s *. 1e9))
        (ns (r.d_prefetch_cold_s *. 1e9)))
    rows;
  let pass = List.for_all d1_pass rows in
  verdict pass
    (Printf.sprintf
       "cache cuts packets %.1fx (list) / %.1fx (tree); prefetch cuts \
        cold-cache packets a further %.1fx / %.1fx (need >= 5x cache, >= \
        3x prefetch, cold < raw)"
       (match rows with
       | r :: _ ->
           float_of_int r.d_packets_uncached // float_of_int r.d_packets_cached
       | [] -> Float.nan)
       (match rows with
       | [ _; r ] ->
           float_of_int r.d_packets_uncached // float_of_int r.d_packets_cached
       | _ -> Float.nan)
       (match rows with
       | r :: _ ->
           float_of_int r.d_packets_cached // float_of_int r.d_packets_prefetch
       | [] -> Float.nan)
       (match rows with
       | [ _; r ] ->
           float_of_int r.d_packets_cached // float_of_int r.d_packets_prefetch
       | _ -> Float.nan));
  (match json_file with
  | Some file ->
      let oc = open_out file in
      output_string oc (d1_json ~quick rows);
      close_out oc;
      Printf.printf "  (wrote %s)\n" file
  | None -> ());
  pass

(* --- L1: the lowering / name-resolution cache tier ------------------------ *)

(* Steady-state cost of a compiled query, lowered (resolution slots live)
   vs the Dynamic-slot ablation (full lookup chain on every pull): the
   cost a conditional breakpoint pays on every step.  The IR is compiled
   once and re-driven, exactly like [Session.compile] + [eval_ir] in a
   watchpoint.  The lookup-bound query is a hard gate: the bench exits
   nonzero unless lowering wins by >= 2x there. *)

type l1_row = {
  l_name : string;
  l_query : string;
  l_size : int;
  l_dynamic_s : float;
  l_lowered_s : float;
  l_hits : int;
  l_dynamic_lookups : int;
  l_gated : bool;
}

let l1_gate = 2.0

let l1_workload ~name ~gated ~query ~size ~make_inf =
  let time_mode lower =
    let s = session_of (make_inf ()) in
    s.Session.env.Env.flags.Env.symbolic <- false;
    s.Session.lower <- lower;
    let ir = Session.compile s (Session.parse s query) in
    let run () = ignore (Session.drive_ir s ir) in
    (* one warm run: slot population is a first-run cost; the steady
       state is what repeated re-evaluation pays *)
    run ();
    let t = best_of 5 run in
    (t, s.Session.env.Env.lstats)
  in
  let l_dynamic_s, dls = time_mode false in
  let l_lowered_s, lls = time_mode true in
  {
    l_name = name;
    l_query = query;
    l_size = size;
    l_dynamic_s;
    l_lowered_s;
    l_hits = lls.Env.l_hits;
    l_dynamic_lookups = dls.Env.l_dynamic;
    l_gated = gated;
  }

let l1_pass r = (not r.l_gated) || r.l_dynamic_s >= l1_gate *. r.l_lowered_s

let l1_json ~quick rows =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"bench\": \"lowering_resolution_cache\",\n";
  Buffer.add_string b (Printf.sprintf "  \"quick\": %b,\n" quick);
  Buffer.add_string b (Printf.sprintf "  \"gate\": %.1f,\n" l1_gate);
  Buffer.add_string b "  \"workloads\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"name\": %S, \"query\": %S, \"size\": %d,\n\
           \     \"dynamic_s\": %.6f, \"lowered_s\": %.6f, \"speedup\": \
            %.2f,\n\
           \     \"slot_hits\": %d, \"dynamic_lookups\": %d, \"gated\": %b, \
            \"pass\": %b}%s\n"
           r.l_name r.l_query r.l_size r.l_dynamic_s r.l_lowered_s
           (r.l_dynamic_s // r.l_lowered_s)
           r.l_hits r.l_dynamic_lookups r.l_gated (l1_pass r)
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string b "  ],\n";
  Buffer.add_string b
    (Printf.sprintf "  \"pass\": %b\n}\n" (List.for_all l1_pass rows));
  Buffer.contents b

let l1 ~quick ~json_file () =
  header
    "L1  lowering: compiled IR re-driven, resolution slots vs Dynamic \
     ablation (the cost a DUEL breakpoint condition pays per step; \
     lookup-bound query gated at >= 2x)";
  let n = if quick then 2000 else 5000 in
  let sweep = if quick then 2000 else 10000 in
  (* The gated workload evaluates a global from a breakpoint 40 calls deep
     in recursion: the dynamic chain rebuilds the frame list and walks it
     past the alias table on every one of the N lookups (what the paper
     measured in gdb); the resolution slot pays one stamped cache probe. *)
  let deep_stack () =
    let inf = Scenarios.all () in
    for _ = 1 to 40 do
      Duel_target.Inferior.push_frame inf "fib"
        [ ("n", Duel_ctype.Ctype.int); ("acc", Duel_ctype.Ctype.int) ]
    done;
    inf
  in
  let r_lookup =
    l1_workload ~name:"lookup_bound" ~gated:true
      ~query:(Printf.sprintf "(1..%d) + i0" n)
      ~size:n ~make_inf:deep_stack
  in
  let r_sweep =
    l1_workload ~name:"memory_sweep" ~gated:false
      ~query:(Printf.sprintf "big[..%d] >? 0" sweep)
      ~size:sweep
      ~make_inf:(fun () -> Scenarios.big_array sweep)
  in
  let r_shallow =
    l1_workload ~name:"shallow_stack" ~gated:false
      ~query:(Printf.sprintf "(1..%d) + i0" n)
      ~size:n
      ~make_inf:(fun () -> Scenarios.all ())
  in
  let rows = [ r_lookup; r_shallow; r_sweep ] in
  Printf.printf "  %-14s %12s %12s %8s %10s %10s\n" "workload" "dynamic"
    "lowered" "speedup" "slot hits" "dyn looks";
  List.iter
    (fun r ->
      Printf.printf "  %-14s %s %s %7.2fx %10d %10d%s\n" r.l_name
        (ns (r.l_dynamic_s *. 1e9))
        (ns (r.l_lowered_s *. 1e9))
        (r.l_dynamic_s // r.l_lowered_s)
        r.l_hits r.l_dynamic_lookups
        (if r.l_gated then "  [gate >= 2x]" else ""))
    rows;
  let pass = List.for_all l1_pass rows in
  verdict pass
    (Printf.sprintf
       "slots make the lookup-bound query %.1fx faster at 40 frames (gate \
        %.1fx), %.1fx at 3; the memory-bound sweep moves %.2fx \
        (informational — its cost is target reads, not name resolution)"
       (r_lookup.l_dynamic_s // r_lookup.l_lowered_s)
       l1_gate
       (r_shallow.l_dynamic_s // r_shallow.l_lowered_s)
       (r_sweep.l_dynamic_s // r_sweep.l_lowered_s));
  (match json_file with
  | Some file ->
      let oc = open_out file in
      output_string oc (l1_json ~quick rows);
      close_out oc;
      Printf.printf "  (wrote %s)\n" file
  | None -> ());
  pass

(* --- V1: the bytecode VM tier --------------------------------------------- *)

(* Steady-state cost of a compiled query on the three engines: the
   unlowered walker (ast), the lowered walker (ir — the VM's comparison
   point) and the bytecode VM.  Compiled once, re-driven, symbolics off:
   the watchpoint pattern, same methodology as L1.  The [#/] reduce loop
   is the hard gate — fully fused, its accumulator never leaves the VM's
   integer registers, so the VM must beat the lowered walker by >= 2x.
   The lookup- and chase-bound arms are parity gates (>= 0.9x): their
   cost is name resolution and target reads, which the superinstructions
   call straight into, so the VM must at least not regress them. *)

let v1_reduce_gate = 2.0
let v1_parity_gate = 0.9

type v1_row = {
  v_name : string;
  v_query : string;
  v_size : int;
  v_ast_s : float;
  v_ir_s : float;
  v_vm_s : float;
  v_gate : float;  (* required vm-over-ir speedup *)
  v_super : int;  (* superinstruction dispatches during the VM timing *)
  v_fused : int;  (* elements folded inside fused reduce loops *)
}

let v1_workload ~name ~query ~size ~gate ~make_inf =
  let time engine lower =
    let s = session_of (make_inf ()) in
    s.Session.engine <- engine;
    s.Session.env.Env.flags.Env.symbolic <- false;
    s.Session.lower <- lower;
    let ir = Session.compile s (Session.parse s query) in
    let run () = ignore (Session.drive_ir s ir) in
    run ();
    (best_of 5 run, s.Session.vstats)
  in
  let v_ast_s, _ = time Session.Seq_engine false in
  let v_ir_s, _ = time Session.Seq_engine true in
  let v_vm_s, vs = time Session.Vm_engine true in
  {
    v_name = name;
    v_query = query;
    v_size = size;
    v_ast_s;
    v_ir_s;
    v_vm_s;
    v_gate = gate;
    v_super = vs.Duel_core.Vm.v_super;
    v_fused = vs.Duel_core.Vm.v_fused;
  }

let v1_pass r = r.v_ir_s >= r.v_gate *. r.v_vm_s

let v1_json ~quick rows =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"bench\": \"bytecode_vm_engine\",\n";
  Buffer.add_string b (Printf.sprintf "  \"quick\": %b,\n" quick);
  Buffer.add_string b
    (Printf.sprintf "  \"reduce_gate\": %.1f, \"parity_gate\": %.1f,\n"
       v1_reduce_gate v1_parity_gate);
  Buffer.add_string b "  \"workloads\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"name\": %S, \"query\": %S, \"size\": %d,\n\
           \     \"ast_s\": %.6f, \"ir_s\": %.6f, \"vm_s\": %.6f,\n\
           \     \"vm_over_ir\": %.2f, \"gate\": %.1f, \"superinsns\": %d, \
            \"fused\": %d, \"pass\": %b}%s\n"
           r.v_name r.v_query r.v_size r.v_ast_s r.v_ir_s r.v_vm_s
           (r.v_ir_s // Float.max r.v_vm_s 1e-9)
           r.v_gate r.v_super r.v_fused (v1_pass r)
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string b "  ],\n";
  Buffer.add_string b
    (Printf.sprintf "  \"pass\": %b\n}\n" (List.for_all v1_pass rows));
  Buffer.contents b

let v1 ~quick ~json_file () =
  header
    "V1  bytecode VM: compiled programs re-driven vs both walker engines \
     (reduce loop gated at >= 2x over lowered IR; lookup and chase arms \
     gated at >= 0.9x)";
  let n_reduce = if quick then 200_000 else 1_000_000 in
  let n_lookup = if quick then 2000 else 5000 in
  let n_chase = if quick then 2000 else 10_000 in
  let deep_stack () =
    let inf = Scenarios.all () in
    for _ = 1 to 40 do
      Duel_target.Inferior.push_frame inf "fib"
        [ ("n", Duel_ctype.Ctype.int); ("acc", Duel_ctype.Ctype.int) ]
    done;
    inf
  in
  let r_reduce =
    v1_workload ~name:"reduce_sum" ~gate:v1_reduce_gate
      ~query:(Printf.sprintf "+/(1..%d)" n_reduce)
      ~size:n_reduce
      ~make_inf:(fun () -> Scenarios.all ())
  in
  (* counting a pure range needs no loop at all: the fused form computes
     hi-lo+1 algebraically, so this row's VM time is ~0 by design *)
  let r_count =
    v1_workload ~name:"reduce_count" ~gate:v1_reduce_gate
      ~query:(Printf.sprintf "#/(1..%d)" n_reduce)
      ~size:n_reduce
      ~make_inf:(fun () -> Scenarios.all ())
  in
  let r_lookup =
    v1_workload ~name:"lookup_bound" ~gate:v1_parity_gate
      ~query:(Printf.sprintf "(1..%d) + i0" n_lookup)
      ~size:n_lookup ~make_inf:deep_stack
  in
  let r_chase =
    v1_workload ~name:"pointer_chase" ~gate:v1_parity_gate
      ~query:"#/(deep-->next->value)" ~size:n_chase
      ~make_inf:(fun () -> Scenarios.deep_list n_chase)
  in
  let rows = [ r_reduce; r_count; r_lookup; r_chase ] in
  Printf.printf "  %-14s %12s %12s %12s %9s %10s %10s\n" "workload" "ast"
    "lowered ir" "vm" "vm/ir" "superinsn" "fused";
  List.iter
    (fun r ->
      Printf.printf "  %-14s %s %s %s %8.2fx %10d %10d  [gate >= %.1fx]\n"
        r.v_name
        (ns (r.v_ast_s *. 1e9))
        (ns (r.v_ir_s *. 1e9))
        (ns (r.v_vm_s *. 1e9))
        (r.v_ir_s // Float.max r.v_vm_s 1e-9)
        r.v_super r.v_fused r.v_gate)
    rows;
  let pass = List.for_all v1_pass rows in
  verdict pass
    (Printf.sprintf
       "the VM runs the fused +/ reduce loop %.1fx faster than the lowered \
        walker (gate %.1fx; #/ collapses to O(1)) and holds %.2fx / %.2fx \
        on the lookup- and chase-bound arms (gates %.1fx)"
       (r_reduce.v_ir_s // Float.max r_reduce.v_vm_s 1e-9)
       v1_reduce_gate
       (r_lookup.v_ir_s // r_lookup.v_vm_s)
       (r_chase.v_ir_s // r_chase.v_vm_s)
       v1_parity_gate);
  (match json_file with
  | Some file ->
      let oc = open_out file in
      output_string oc (v1_json ~quick rows);
      close_out oc;
      Printf.printf "  (wrote %s)\n" file
  | None -> ());
  pass

(* --- S1: the serving layer ------------------------------------------------ *)

(* Two ways to run the same query against a remote target over loopback
   TCP.  Serial: the classic remote evaluation — the query runs on the
   client and every scalar crosses the wire as its own packet
   round-trip (cache off; this is the configuration the serving layer
   exists to beat).  Pipelined: 8 clients ship whole queries as
   [qDuelEval] and keep them all in flight in the server's one select
   loop.  The gate is per-query throughput: pipelined evals must beat
   the serial round-trip client by >= 2x, or the bench exits nonzero. *)

let s1_gate = 2.0

type s1_result = {
  s_clients : int;
  s_queries : int;
  s_serial_s : float;
  s_serial_packets : int;
  s_pipelined_s : float;
  s_pipelined_packets : int;
}

let s1_speedup r =
  r.s_serial_s /. float_of_int r.s_queries
  // (r.s_pipelined_s /. float_of_int r.s_queries)

let s1_json ~quick r stats_wire =
  Printf.sprintf
    "{\n\
    \  \"bench\": \"serve_pipelined_vs_serial\",\n\
    \  \"quick\": %b,\n\
    \  \"clients\": %d,\n\
    \  \"queries\": %d,\n\
    \  \"serial_s\": %.6f,\n\
    \  \"serial_packets\": %d,\n\
    \  \"pipelined_s\": %.6f,\n\
    \  \"pipelined_packets\": %d,\n\
    \  \"per_query_serial_s\": %.6f,\n\
    \  \"per_query_pipelined_s\": %.6f,\n\
    \  \"speedup\": %.2f,\n\
    \  \"gate\": %.1f,\n\
    \  \"server_stats\": %S,\n\
    \  \"pass\": %b\n\
     }\n"
    quick r.s_clients r.s_queries r.s_serial_s r.s_serial_packets
    r.s_pipelined_s r.s_pipelined_packets
    (r.s_serial_s /. float_of_int r.s_queries)
    (r.s_pipelined_s /. float_of_int r.s_queries)
    (s1_speedup r) s1_gate stats_wire
    (s1_speedup r >= s1_gate)

let s1 ~quick ~json_file () =
  header
    "S1  serving layer: 8 pipelined qDuelEval clients vs one serial \
     round-trip-per-scalar client, loopback TCP (gate: pipelined >= 2x \
     per-query throughput)";
  let module Server = Duel_serve.Server in
  let module Client = Duel_serve.Client in
  let n = 256 in
  let nclients = 8 in
  let queries = if quick then 24 else 96 in
  let query = Printf.sprintf "big[..%d] >? 0" n in
  let inf = Scenarios.big_array n in
  let srv =
    Server.create
      (Duel_fleet.Fleet.of_inferior ~spec:(Printf.sprintf "big:%d" n) inf)
  in
  let port = Server.listen_tcp srv ~host:"127.0.0.1" ~port:0 in
  let addr = Printf.sprintf "127.0.0.1:%d" port in
  let pump () = ignore (Server.step srv 0.01) in
  let st = Server.stats srv in
  (* serial: per-scalar round-trips through the network Dbgi, cache off;
     dialled through the backend spec language like any other client,
     debug info coming from the spec's local twin *)
  let serial =
    match
      Backend.of_string ~pump (Printf.sprintf "tcp://%s#big:%d" addr n)
    with
    | Ok b -> b
    | Error m -> failwith m
  in
  pump ();
  let s = Session.create serial.Backend.b_dbg in
  let ast = Session.parse s query in
  let packets0 = st.Server.packets in
  let s_serial_s =
    time_run (fun () ->
        for _ = 1 to queries do
          ignore (Session.drive s ast)
        done)
  in
  let s_serial_packets = st.Server.packets - packets0 in
  serial.Backend.b_close ();
  pump ();
  (* pipelined: every client's eval is in flight before any is collected *)
  let clients = List.init nclients (fun _ -> Client.connect ~pump addr) in
  pump ();
  let packets1 = st.Server.packets in
  let rounds = queries / nclients in
  let s_pipelined_s =
    time_run (fun () ->
        for _ = 1 to rounds do
          List.iter (fun cl -> Client.eval_send cl query) clients;
          List.iter (fun cl -> ignore (Client.eval_recv cl)) clients
        done)
  in
  let s_pipelined_packets = st.Server.packets - packets1 in
  let stats_wire = Server.stats_wire srv in
  List.iter Client.close clients;
  Server.shutdown srv;
  while Server.step srv 0.0 do
    ()
  done;
  let r =
    {
      s_clients = nclients;
      s_queries = rounds * nclients;
      s_serial_s;
      s_serial_packets;
      s_pipelined_s;
      s_pipelined_packets;
    }
  in
  Printf.printf "  %-28s %12s %12s %10s\n" "mode" "total" "per query"
    "packets";
  Printf.printf "  %-28s %s %s %10d\n" "serial (round-trip/scalar)"
    (ns (r.s_serial_s *. 1e9))
    (ns (r.s_serial_s /. float_of_int queries *. 1e9))
    r.s_serial_packets;
  Printf.printf "  %-28s %s %s %10d\n"
    (Printf.sprintf "pipelined (%d x qDuelEval)" nclients)
    (ns (r.s_pipelined_s *. 1e9))
    (ns (r.s_pipelined_s /. float_of_int r.s_queries *. 1e9))
    r.s_pipelined_packets;
  let pass = s1_speedup r >= s1_gate in
  verdict pass
    (Printf.sprintf
       "shipping the query is %.1fx faster per query than shipping the \
        scalars (gate %.1fx); packets %d -> %d"
       (s1_speedup r) s1_gate r.s_serial_packets r.s_pipelined_packets);
  (match json_file with
  | Some file ->
      let oc = open_out file in
      output_string oc (s1_json ~quick r stats_wire);
      close_out oc;
      Printf.printf "  (wrote %s)\n" file
  | None -> ());
  pass

(* --- S2: sharded serve scaling -------------------------------------------- *)

(* The S1 pipelined battery again, but against the sharded server: the
   same compute-heavy query from the same 8 pipelined clients, served by
   1/2/4/8 event-loop shards (one OCaml domain each, SO_REUSEPORT accept
   balancing).  Clients run real blocking IO from the bench's own domain
   — no pump — so the measured number is genuine cross-domain serving.
   The gate (4 shards >= 2x the 1-shard throughput) only arms on
   machines whose [Domain.recommended_domain_count] reaches 4; smaller
   runners print the curve they can and skip the verdict. *)

let s2_gate = 2.0

type s2_row = {
  r2_shards : int;
  r2_queries : int;
  r2_elapsed_s : float;
  r2_qps : float;
}

let s2_json ~quick ~cores ~query ~gated ~speedup4 ~pass rows =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"bench\": \"serve_shard_scaling\",\n";
  Buffer.add_string b (Printf.sprintf "  \"quick\": %b,\n" quick);
  Buffer.add_string b (Printf.sprintf "  \"cores\": %d,\n" cores);
  Buffer.add_string b (Printf.sprintf "  \"query\": %S,\n" query);
  Buffer.add_string b "  \"rows\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"shards\": %d, \"queries\": %d, \"elapsed_s\": %.6f, \
            \"qps\": %.1f}%s\n"
           r.r2_shards r.r2_queries r.r2_elapsed_s r.r2_qps
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string b "  ],\n";
  Buffer.add_string b (Printf.sprintf "  \"gate\": %.1f,\n" s2_gate);
  Buffer.add_string b (Printf.sprintf "  \"gated\": %b,\n" gated);
  Buffer.add_string b (Printf.sprintf "  \"speedup_at_4\": %.2f,\n" speedup4);
  Buffer.add_string b (Printf.sprintf "  \"pass\": %b\n" pass);
  Buffer.add_string b "}\n";
  Buffer.contents b

let s2 ~quick ~json_file () =
  let cores = Domain.recommended_domain_count () in
  header
    (Printf.sprintf
       "S2  sharded serve scaling: 8 pipelined clients vs 1/2/4/8 \
        event-loop shards, loopback TCP (gate: 4 shards >= %.0fx 1-shard \
        throughput; %d core%s available)"
       s2_gate cores
       (if cores = 1 then "" else "s"))
  ;
  let module Sharded = Duel_serve.Sharded in
  let module Client = Duel_serve.Client in
  let n = 4096 in
  let nclients = 8 in
  let rounds = if quick then 8 else 32 in
  let query = Printf.sprintf "+/big[..%d]" n in
  let counts = List.filter (fun c -> c <= cores) [ 1; 2; 4; 8 ] in
  let counts = if counts = [] then [ 1 ] else counts in
  let run_one shards =
    let fleet =
      Duel_fleet.Fleet.of_inferior
        ~spec:(Printf.sprintf "big:%d" n)
        (Scenarios.big_array n)
    in
    let srv = Sharded.create ~shards fleet in
    let port = Sharded.listen_tcp srv ~host:"127.0.0.1" ~port:0 in
    Sharded.start srv;
    let addr = Printf.sprintf "127.0.0.1:%d" port in
    let clients = List.init nclients (fun _ -> Client.connect addr) in
    (* warm every connection and the shared plan cache *)
    List.iter (fun cl -> ignore (Client.eval cl query)) clients;
    let elapsed =
      time_run (fun () ->
          for _ = 1 to rounds do
            List.iter (fun cl -> Client.eval_send cl query) clients;
            List.iter (fun cl -> ignore (Client.eval_recv cl)) clients
          done)
    in
    List.iter Client.close clients;
    Sharded.shutdown srv;
    Sharded.join srv;
    let queries = rounds * nclients in
    {
      r2_shards = shards;
      r2_queries = queries;
      r2_elapsed_s = elapsed;
      r2_qps = (float_of_int queries /. elapsed);
    }
  in
  let rows = List.map run_one counts in
  let qps_at k =
    match List.find_opt (fun r -> r.r2_shards = k) rows with
    | Some r -> r.r2_qps
    | None -> 0.0
  in
  Printf.printf "  %-10s %12s %12s %10s\n" "shards" "total" "per query"
    "qps";
  List.iter
    (fun r ->
      Printf.printf "  %-10d %s %s %10.1f\n" r.r2_shards
        (ns (r.r2_elapsed_s *. 1e9))
        (ns (r.r2_elapsed_s /. float_of_int r.r2_queries *. 1e9))
        r.r2_qps)
    rows;
  let gated = cores >= 4 in
  let speedup4 = if gated then qps_at 4 /. qps_at 1 else 0.0 in
  let pass = (not gated) || speedup4 >= s2_gate in
  if gated then
    verdict pass
      (Printf.sprintf
         "4 shards serve %.1fx the 1-shard throughput (gate %.1fx)"
         speedup4 s2_gate)
  else
    Printf.printf
      "  SKIP  scaling gate needs >= 4 cores \
       (Domain.recommended_domain_count = %d); curve recorded, verdict \
       waived\n"
      cores;
  (match json_file with
  | Some file ->
      let oc = open_out file in
      output_string oc (s2_json ~quick ~cores ~query ~gated ~speedup4 ~pass rows);
      close_out oc;
      Printf.printf "  (wrote %s)\n" file
  | None -> ());
  pass

(* --- R1: fleet fan-out ---------------------------------------------------- *)

(* Relative debugging at fleet scale: the same query against 8 named
   targets hosted by one serve instance.  Serial is the pre-fleet
   workflow — dial, bind the target, evaluate, hang up, once per
   target, so every sweep pays 8 connection setups and 8 full
   round-trip conversations.  Fan-out is one persistent connection
   shipping a single [qDuelEvalAll] and collecting the 8 tagged leg
   streams from one reply burst.  Both arms run warm (plans compiled,
   caches hot); the gate is per-sweep latency — the fan-out must beat
   the serial loop by >= 2x or the bench exits nonzero. *)

let r1_gate = 2.0

type r1_result = {
  r_targets : int;
  r_rounds : int;
  r_serial_s : float;
  r_fanout_s : float;
}

let r1_speedup r = r.r_serial_s // r.r_fanout_s

let r1_json ~quick r stats_wire =
  Printf.sprintf
    "{\n\
    \  \"bench\": \"fleet_eval_all_vs_serial\",\n\
    \  \"quick\": %b,\n\
    \  \"targets\": %d,\n\
    \  \"rounds\": %d,\n\
    \  \"serial_s\": %.6f,\n\
    \  \"fanout_s\": %.6f,\n\
    \  \"per_sweep_serial_s\": %.6f,\n\
    \  \"per_sweep_fanout_s\": %.6f,\n\
    \  \"speedup\": %.2f,\n\
    \  \"gate\": %.1f,\n\
    \  \"server_stats\": %S,\n\
    \  \"pass\": %b\n\
     }\n"
    quick r.r_targets r.r_rounds r.r_serial_s r.r_fanout_s
    (r.r_serial_s /. float_of_int r.r_rounds)
    (r.r_fanout_s /. float_of_int r.r_rounds)
    (r1_speedup r) r1_gate stats_wire
    (r1_speedup r >= r1_gate)

let r1 ~quick ~json_file () =
  header
    (Printf.sprintf
       "R1  fleet fan-out: one qDuelEvalAll over 8 targets vs 8 serial \
        connect-bind-eval sessions, loopback TCP (gate: fan-out >= %.0fx \
        per-sweep latency)"
       r1_gate);
  let module Server = Duel_serve.Server in
  let module Client = Duel_serve.Client in
  let module Fleet = Duel_fleet.Fleet in
  let ntargets = 8 in
  let rounds = if quick then 10 else 40 in
  let query = "deep-->next->value" in
  let fleet =
    match
      Fleet.create
        (List.init ntargets (fun i ->
             (Printf.sprintf "t%d" i, "deep_list:8")))
    with
    | Ok f -> f
    | Error m -> failwith m
  in
  let srv = Server.create fleet in
  let port = Server.listen_tcp srv ~host:"127.0.0.1" ~port:0 in
  let addr = Printf.sprintf "127.0.0.1:%d" port in
  let pump () = ignore (Server.step srv 0.01) in
  let ids = Fleet.ids fleet in
  let sweep_serial () =
    List.iter
      (fun id ->
        let cl = Client.connect ~pump addr in
        Client.use_target cl id;
        ignore (Client.eval cl query);
        Client.close cl)
      ids
  in
  let cl = Client.connect ~pump addr in
  let sweep_fanout () = ignore (Client.eval_all cl [] query) in
  (* one warm sweep each: every target's plan compiled, both arms hot *)
  sweep_serial ();
  sweep_fanout ();
  let r_serial_s =
    time_run (fun () ->
        for _ = 1 to rounds do
          sweep_serial ()
        done)
  in
  let r_fanout_s =
    time_run (fun () ->
        for _ = 1 to rounds do
          sweep_fanout ()
        done)
  in
  let stats_wire = Server.stats_wire srv in
  Client.close cl;
  Server.shutdown srv;
  while Server.step srv 0.0 do
    ()
  done;
  let r = { r_targets = ntargets; r_rounds = rounds; r_serial_s; r_fanout_s } in
  Printf.printf "  %-36s %12s %12s\n" "mode" "total" "per sweep";
  Printf.printf "  %-36s %s %s\n"
    (Printf.sprintf "serial (%d x connect+bind+eval)" ntargets)
    (ns (r.r_serial_s *. 1e9))
    (ns (r.r_serial_s /. float_of_int rounds *. 1e9));
  Printf.printf "  %-36s %s %s\n" "fan-out (1 x qDuelEvalAll)"
    (ns (r.r_fanout_s *. 1e9))
    (ns (r.r_fanout_s /. float_of_int rounds *. 1e9));
  let pass = r1_speedup r >= r1_gate in
  verdict pass
    (Printf.sprintf
       "one fan-out sweeps %d targets %.1fx faster than %d serial sessions \
        (gate %.1fx)"
       ntargets (r1_speedup r) ntargets r1_gate);
  (match json_file with
  | Some file ->
      let oc = open_out file in
      output_string oc (r1_json ~quick r stats_wire);
      close_out oc;
      Printf.printf "  (wrote %s)\n" file
  | None -> ());
  pass

(* --- X1: the chaos tier --------------------------------------------------- *)

(* The S1 query battery again, but through a hostile wire: a Duel_chaos
   byte mangler corrupting ~1% of the bytes in both directions sits
   between the retrying client and the serve loop.  The gate is
   correctness, not speed: every eval must converge to the clean-stack
   oracle, with the recovery visible in the counters on both sides. *)

let x1_json ~quick ~queries ~oracle_lines ~elapsed ~wire ~ctr ~pass stats_wire =
  Printf.sprintf
    "{\n\
    \  \"bench\": \"serve_chaos_convergence\",\n\
    \  \"quick\": %b,\n\
    \  \"queries\": %d,\n\
    \  \"oracle_lines\": %d,\n\
    \  \"elapsed_s\": %.6f,\n\
    \  \"wire_bytes\": %d,\n\
    \  \"wire_corrupted\": %d,\n\
    \  \"wire_splits\": %d,\n\
    \  \"client_resends\": %d,\n\
    \  \"client_timeouts\": %d,\n\
    \  \"client_naks_sent\": %d,\n\
    \  \"client_dup_frames\": %d,\n\
    \  \"server_stats\": %S,\n\
    \  \"pass\": %b\n\
     }\n"
    quick queries oracle_lines elapsed wire.Duel_chaos.Mangler.bytes
    wire.Duel_chaos.Mangler.corrupted wire.Duel_chaos.Mangler.splits
    ctr.Duel_serve.Client.resends ctr.Duel_serve.Client.timeouts
    ctr.Duel_serve.Client.naks_sent ctr.Duel_serve.Client.dup_frames
    stats_wire pass

let x1 ~quick ~json_file () =
  header
    "X1  chaos: the S1 query battery through a 1% byte-corrupting wire \
     (gate: every eval converges to the clean-stack oracle)";
  let module Server = Duel_serve.Server in
  let module Client = Duel_serve.Client in
  let module Mangler = Duel_chaos.Mangler in
  let module Proxy = Duel_chaos.Proxy in
  let n = 256 in
  let queries = if quick then 12 else 48 in
  let query = Printf.sprintf "big[..%d] >? 0" n in
  let oracle = Session.exec (session_of (Scenarios.big_array n)) query in
  let inf = Scenarios.big_array n in
  (* short D frames: at a 1% per-byte corruption rate a frame's survival
     odds fall off exponentially with its length, so stream the reply in
     small chunks and let the seq re-request fill in the casualties *)
  let srv =
    Server.create
      ~config:{ Server.default_config with eval_chunk = 2 }
      (Duel_fleet.Fleet.of_inferior ~spec:(Printf.sprintf "big:%d" n) inf)
  in
  let up = Mangler.create ~seed:11 (Mangler.corrupting ~rate:0.01) in
  let down = Mangler.create ~seed:12 (Mangler.corrupting ~rate:0.01) in
  let proxy, client_end, server_end = Proxy.between ~up ~down () in
  Server.inject srv server_end;
  let pump () =
    ignore (Server.step srv 0.005);
    ignore (Proxy.step proxy 0.005)
  in
  let retry =
    {
      Client.attempts = 20;
      reply_timeout = 0.5;
      base_backoff = 0.001;
      max_backoff = 0.01;
      jitter = 0.5;
    }
  in
  let cl = Client.of_fd ~pump ~retry client_end in
  let wrong = ref 0 in
  let elapsed =
    time_run (fun () ->
        for _ = 1 to queries do
          if Client.eval cl query <> oracle then incr wrong
        done)
  in
  let ctr = Client.counters cl in
  let stats_wire = Server.stats_wire srv in
  let sst = Server.stats srv in
  let wire = Mangler.stats down in
  let wire_up = Mangler.stats up in
  Client.close cl;
  Proxy.close proxy;
  Server.shutdown srv;
  while Server.step srv 0.0 do
    ()
  done;
  Printf.printf "  %-42s %d/%d (%d oracle lines each)\n" "queries converged"
    (queries - !wrong) queries (List.length oracle);
  Printf.printf "  %-42s %d bytes, %d corrupted, %d splits\n"
    "wire damage (replies)" wire.Mangler.bytes wire.Mangler.corrupted
    wire.Mangler.splits;
  Printf.printf "  %-42s %d bytes, %d corrupted, %d splits\n"
    "wire damage (requests)" wire_up.Mangler.bytes wire_up.Mangler.corrupted
    wire_up.Mangler.splits;
  Printf.printf "  %-42s %d resends, %d timeouts, %d NAKs sent, %d dup \
                 frames\n"
    "client recovery" ctr.Client.resends ctr.Client.timeouts
    ctr.Client.naks_sent ctr.Client.dup_frames;
  Printf.printf "  %-42s %d damaged frames NAKed, %d retransmits, %d eval \
                 replays\n"
    "server recovery" sst.Server.faults sst.Server.naks sst.Server.eval_dups;
  row "total" (elapsed *. 1e9);
  row "per query" (elapsed /. float_of_int queries *. 1e9);
  let damaged = wire.Mangler.corrupted + wire_up.Mangler.corrupted > 0 in
  let recovered =
    sst.Server.faults + sst.Server.eval_dups + ctr.Client.resends
    + ctr.Client.naks_seen
    > 0
  in
  let pass = !wrong = 0 && damaged && recovered in
  verdict pass
    (Printf.sprintf
       "all %d evals equal the oracle through %d corrupted bytes (recovery: \
        %d client resends, %d eval replays, %d damaged requests NAKed)"
       queries
       (wire.Mangler.corrupted + wire_up.Mangler.corrupted)
       ctr.Client.resends sst.Server.eval_dups sst.Server.faults);
  (match json_file with
  | Some file ->
      let oc = open_out file in
      output_string oc
        (x1_json ~quick ~queries ~oracle_lines:(List.length oracle) ~elapsed
           ~wire ~ctr ~pass stats_wire);
      close_out oc;
      Printf.printf "  (wrote %s)\n" file
  | None -> ());
  pass

(* --- F1: the dispatcher tier ---------------------------------------------- *)

(* F1 is a correctness gate: a dispatcher fronting one dead replica, one
   fault-injected replica and one healthy replica must converge
   bit-identically with a clean single-backend oracle, with the failovers
   and the breaker trip visible in its counters. *)

let faddr_of dbg name =
  match dbg.Dbgi.find_variable name with
  | Some { Dbgi.v_addr; _ } -> v_addr
  | _ -> failwith ("variable not found: " ^ name)

type f1_row = {
  f1_spec : string;
  f1_oracle : string;
  f1_words : int;
  f1_mismatches : int;
  f1_queries_ok : bool;
  f1_failovers : int;
  f1_trips : int;
  f1_dead_down : bool;
}

let f1_pass r =
  r.f1_mismatches = 0 && r.f1_queries_ok && r.f1_failovers > 0
  && r.f1_trips >= 1 && r.f1_dead_down

let f1_run ~quick =
  let n = if quick then 200 else 400 in
  (* trip=1: score-based routing relegates a failed replica to the back
     of the candidate list, so the dead replica is only ever retried
     through the breaker's half-open probes — the first failure must
     trip it for the sweep to observe the breaker at all *)
  let spec =
    Printf.sprintf
      "dispatch(dead:big:%d,direct:big:%d+flaky(seed=21,profile=nasty),direct:big:%d;trip=1,probe=50ms)"
      n n n
  in
  let oracle_spec = Printf.sprintf "direct:big:%d+cache" n in
  let b = backend_of spec in
  let ob = backend_of oracle_spec in
  let dbg = b.Backend.b_dbg and odbg = ob.Backend.b_dbg in
  let base = faddr_of dbg "big" in
  let mismatches = ref 0 in
  for i = 0 to n - 1 do
    let addr = base + (4 * i) in
    let got = dbg.Dbgi.get_bytes ~addr ~len:4 in
    let want = odbg.Dbgi.get_bytes ~addr ~len:4 in
    if not (Bytes.equal got want) then incr mismatches
  done;
  let q = Printf.sprintf "big[..%d] >? 0" n in
  let f1_queries_ok =
    Session.exec (Session.create dbg) q = Session.exec (Session.create odbg) q
  in
  let d =
    match b.Backend.b_dispatchers with
    | (_, d) :: _ -> d
    | [] -> failwith "no dispatcher in the built stack"
  in
  let c = Dispatcher.counters d in
  let f1_dead_down =
    match Dispatcher.replica_health d with
    | (_, h) :: _ -> not h.Dbgi.h_ok
    | [] -> false
  in
  let row =
    {
      f1_spec = spec;
      f1_oracle = oracle_spec;
      f1_words = n;
      f1_mismatches = !mismatches;
      f1_queries_ok;
      f1_failovers = c.Dispatcher.failovers;
      f1_trips = c.Dispatcher.trips;
      f1_dead_down;
    }
  in
  b.Backend.b_close ();
  ob.Backend.b_close ();
  row

let f_json ~quick r1 =
  Printf.sprintf
    "{\n\
    \  \"bench\": \"dispatcher_failover\",\n\
    \  \"quick\": %b,\n\
    \  \"f1\": {\"spec\": %S, \"oracle\": %S, \"words\": %d,\n\
    \         \"mismatches\": %d, \"queries_match\": %b, \"failovers\": %d,\n\
    \         \"trips\": %d, \"dead_replica_down\": %b, \"pass\": %b},\n\
    \  \"pass\": %b\n\
     }\n"
    quick r1.f1_spec r1.f1_oracle r1.f1_words r1.f1_mismatches r1.f1_queries_ok
    r1.f1_failovers r1.f1_trips r1.f1_dead_down (f1_pass r1) (f1_pass r1)

let f_tier ~quick ~json_file () =
  header
    "F1  dispatcher: dead + fault-injected + healthy replicas vs the clean \
     oracle (gate: bit-identical convergence with visible failover)";
  let r1 = f1_run ~quick in
  Printf.printf "  %-42s %s\n" "spec" r1.f1_spec;
  Printf.printf "  %-42s %d/%d words, %s\n" "bit-identical with oracle"
    (r1.f1_words - r1.f1_mismatches)
    r1.f1_words
    (if r1.f1_queries_ok then "query output equal" else "QUERY OUTPUT DIFFERS");
  Printf.printf "  %-42s %d failovers, %d trips, dead replica %s\n"
    "routing under faults" r1.f1_failovers r1.f1_trips
    (if r1.f1_dead_down then "reported down" else "STILL REPORTED UP");
  verdict (f1_pass r1)
    (Printf.sprintf
       "%d/%d words match through one dead and one fault-injected replica \
        (%d failovers, %d breaker trips)"
       (r1.f1_words - r1.f1_mismatches)
       r1.f1_words r1.f1_failovers r1.f1_trips);
  (match json_file with
  | Some file ->
      let oc = open_out file in
      output_string oc (f_json ~quick r1);
      close_out oc;
      Printf.printf "  (wrote %s)\n" file
  | None -> ());
  f1_pass r1

(* --- C1: conciseness table ------------------------------------------------ *)

let c1 () =
  header "C1  conciseness: DUEL one-liners vs equivalent C (non-space chars)";
  Printf.printf "  %-32s %10s %8s %8s\n" "query" "DUEL" "C" "ratio";
  let table = Conciseness.table () in
  List.iter
    (fun (label, dc, cc, _, _) ->
      Printf.printf "  %-32s %10d %8d %7.1fx\n" label dc cc
        (float_of_int cc /. float_of_int dc))
    table;
  let total_d = List.fold_left (fun a (_, d, _, _, _) -> a + d) 0 table in
  let total_c = List.fold_left (fun a (_, _, c, _, _) -> a + c) 0 table in
  verdict
    (total_d * 2 < total_c)
    (Printf.sprintf "DUEL total %d chars vs C %d chars (%.1fx)" total_d
       total_c
       (float_of_int total_c /. float_of_int total_d))

let () =
  let argv = Array.to_list Sys.argv in
  let quick = List.mem "--quick" argv in
  let rec find_flag name = function
    | flag :: file :: _ when flag = name -> Some file
    | _ :: rest -> find_flag name rest
    | [] -> None
  in
  let json_file = find_flag "--json" argv in
  let json_lower = find_flag "--json-lower" argv in
  let json_vm = find_flag "--json-vm" argv in
  let json_serve = find_flag "--json-serve" argv in
  let json_shard = find_flag "--json-shard" argv in
  let json_chaos = find_flag "--json-chaos" argv in
  let json_dispatch = find_flag "--json-dispatch" argv in
  let json_fleet = find_flag "--json-fleet" argv in
  let pass =
    if quick then (
      (* CI smoke mode: the gated tiers only, small sizes. *)
      Printf.printf
        "DUEL benchmarks, quick mode (D1 data-cache, L1 lowering, V1 \
         bytecode VM, S1 serving, S2 shard scaling, R1 fleet fan-out, X1 \
         chaos and F1 dispatcher tiers)\n";
      let d1_ok = d1 ~quick ~json_file () in
      let l1_ok = l1 ~quick ~json_file:json_lower () in
      let v1_ok = v1 ~quick ~json_file:json_vm () in
      let s1_ok = s1 ~quick ~json_file:json_serve () in
      let s2_ok = s2 ~quick ~json_file:json_shard () in
      let r1_ok = r1 ~quick ~json_file:json_fleet () in
      let x1_ok = x1 ~quick ~json_file:json_chaos () in
      let f_ok = f_tier ~quick ~json_file:json_dispatch () in
      d1_ok && l1_ok && v1_ok && s1_ok && s2_ok && r1_ok && x1_ok && f_ok)
    else begin
      Printf.printf
        "DUEL reproduction benchmarks (see DESIGN.md section 4 and \
         EXPERIMENTS.md)\n";
      b1 ();
      b2 ();
      b3 ();
      b4 ();
      b5 ();
      b6 ();
      b7 ();
      let d1_ok = d1 ~quick:false ~json_file () in
      let l1_ok = l1 ~quick:false ~json_file:json_lower () in
      let v1_ok = v1 ~quick:false ~json_file:json_vm () in
      let s1_ok = s1 ~quick:false ~json_file:json_serve () in
      let s2_ok = s2 ~quick:false ~json_file:json_shard () in
      let r1_ok = r1 ~quick:false ~json_file:json_fleet () in
      let x1_ok = x1 ~quick:false ~json_file:json_chaos () in
      let f_ok = f_tier ~quick:false ~json_file:json_dispatch () in
      c1 ();
      Printf.printf "\ndone.\n";
      d1_ok && l1_ok && v1_ok && s1_ok && s2_ok && r1_ok && x1_ok && f_ok
    end
  in
  exit (if pass then 0 else 1)
