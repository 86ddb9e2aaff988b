(* Read-ahead by page-block fills, proven prefetch-blind: the engine
   corpus must be bit-identical with block fills on and off across all
   three engines over a packet-counting wire backend, the speculation
   ledger must always settle to [useful + wasted = issued], and the
   block's edges — unmapped pages, buffered writes, concurrent stores, a
   small cache — must be harmless in every observable way except the
   counters. *)

module Session = Duel_core.Session
module Dbgi = Duel_dbgi.Dbgi
module Dcache = Duel_dbgi.Dcache
module Prefetch = Duel_dbgi.Prefetch
module Backend = Duel_backend.Backend
module Inferior = Duel_target.Inferior
module Scenarios = Duel_scenarios.Scenarios
module Memory = Duel_mem.Memory

let case = Support.case

(* ast = the unlowered walker, ir = the lowered walker, vm = the
   bytecode engine: three engines with three orders of demand reads. *)
let engines =
  [
    ("ast", Session.Seq_engine, false);
    ("ir", Session.Seq_engine, true);
    ("vm", Session.Vm_engine, true);
  ]

(* One run over a spec-built backend: output lines, target stdout,
   framed packet count, and the settled speculation ledger (the cache is
   invalidated first so every still-speculative line resolves). *)
let run_spec ~spec ~engine ~lower query =
  match Backend.of_string spec with
  | Error m -> Alcotest.fail (spec ^ ": " ^ m)
  | Ok b ->
      Fun.protect ~finally:b.Backend.b_close (fun () ->
          let s = Session.create ~engine b.Backend.b_dbg in
          s.Session.lower <- lower;
          let lines = Session.exec s query in
          let out = Inferior.take_output b.Backend.b_inf in
          let packets = !(b.Backend.b_packets) in
          Dcache.invalidate b.Backend.b_dbg;
          let ledger =
            Option.map
              (fun st ->
                ( st.Prefetch.issued,
                  st.Prefetch.useful,
                  st.Prefetch.wasted ))
              (Prefetch.stats b.Backend.b_dbg)
          in
          (lines, out, packets, ledger))

(* The blind check: same query, same engine, prefetch on vs off; lines
   and stdout bit-identical, and the prefetching arm's ledger balances.
   The baseline arm must really be blind — no predictor attached. *)
let check_blind ~base ~query =
  List.iter
    (fun (name, engine, lower) ->
      let l0, o0, _, g0 =
        run_spec ~spec:(base ^ "+cache") ~engine ~lower query
      in
      let l1, o1, _, g1 =
        run_spec ~spec:(base ^ "+cache+prefetch") ~engine ~lower query
      in
      Alcotest.(check bool) (name ^ ": baseline is blind") true (g0 = None);
      Alcotest.(check (list string)) (name ^ ": lines blind to prefetch") l0 l1;
      Alcotest.(check string) (name ^ ": stdout blind to prefetch") o0 o1;
      match g1 with
      | None -> Alcotest.fail (name ^ ": prefetch arm has no predictor")
      | Some (issued, useful, wasted) ->
          Alcotest.(check int)
            (name ^ ": useful + wasted = issued")
            issued (useful + wasted))
    engines

let corpus_case query =
  case ("prefetch-blind: " ^ query) (fun () ->
      check_blind ~base:"rsp:all" ~query)

(* Error parity through the predictor: faulting chases (dangling tails,
   NULL heads, cycles) must format identically — the demand fault keeps
   its exact attribution no matter what the walker speculated. *)
let faulty_case query =
  case ("prefetch-blind faulty: " ^ query) (fun () ->
      check_blind ~base:"rsp:faulty" ~query)

let prop_blind =
  QCheck2.Test.make
    ~name:"random expressions are prefetch-blind on all three engines"
    ~count:40 Test_engines.gen_query (fun query ->
      List.for_all
        (fun (_, engine, lower) ->
          let l0, o0, _, _ =
            run_spec ~spec:"rsp:all+cache" ~engine ~lower query
          in
          let l1, o1, _, g1 =
            run_spec ~spec:"rsp:all+cache+prefetch" ~engine ~lower query
          in
          l0 = l1 && o0 = o1
          && match g1 with
             | Some (issued, useful, wasted) -> issued = useful + wasted
             | None -> false)
        engines)

(* Read-ahead's whole point, asserted at the packet counter: a cold
   deep traversal takes at least 3x fewer round trips with block fills
   than the plain cache, on both the list and the tree shape. *)
let fewer_packets_case =
  case "cold traversals take >= 3x fewer packets" (fun () ->
      List.iter
        (fun (spec, query) ->
          let _, _, p0, _ =
            run_spec ~spec:(spec ^ "+cache") ~engine:Session.Seq_engine
              ~lower:true query
          in
          let l1, _, p1, _ =
            run_spec
              ~spec:(spec ^ "+cache+prefetch")
              ~engine:Session.Seq_engine ~lower:true query
          in
          Alcotest.(check bool) (spec ^ ": traversal produced output") true
            (l1 <> []);
          Alcotest.(check bool)
            (Printf.sprintf "%s: %d cached packets >= 3x %d prefetched" spec
               p0 p1)
            true
            (p0 >= 3 * p1))
        [
          ("rsp:deep_list:400", "#/(deep-->next->value)");
          ("rsp:deep_tree:8", "#/(droot-->(left,right)->key)");
        ])

(* --- the block's edges ----------------------------------------------------- *)

(* A chain whose links are deliberately out of allocation order at the
   planted seed: its nodes land in blocks out of order, and nothing but
   the counters may show it. *)
let swapped_chain_case =
  case "swapped links mid-chain mispredict harmlessly" (fun () ->
      check_blind ~base:"rsp:deep_list_swapped:64"
        ~query:"#/(deep-->next->value)")

let build ?make_inf spec =
  match Backend.of_string ?make_inf spec with
  | Ok b -> b
  | Error m -> Alcotest.fail (spec ^ ": " ^ m)

let ledger dbg =
  match Prefetch.stats dbg with
  | Some st -> st
  | None -> Alcotest.fail "no read-ahead attached"

let counters dbg =
  match Dcache.stats dbg with
  | Some st -> st
  | None -> Alcotest.fail "no cache"

let var_addr dbg name =
  match dbg.Dbgi.find_variable name with
  | Some { Dbgi.v_addr; _ } -> v_addr
  | None -> Alcotest.fail (name ^ " missing")

let check_balanced msg dbg =
  Dcache.invalidate dbg;
  let st = ledger dbg in
  Alcotest.(check int) msg st.Prefetch.issued
    (st.Prefetch.useful + st.Prefetch.wasted)

(* A chase walking off the mapping edge: the block read around the
   dangling tail faults, is swallowed by the one-line fallback, and the
   demand read surfaces the fault with the exact unmapped {addr; len}
   the raw backend reports. *)
let dangling_chase_case =
  case "speculative faults swallowed, demand faults exact" (fun () ->
      let b = build "rsp:faulty+cache+prefetch" in
      Fun.protect ~finally:b.Backend.b_close (fun () ->
          let dbg = b.Backend.b_dbg in
          let got = Session.exec (Session.create dbg) "dang-->next->value" in
          let raw =
            Duel_target.Backend.direct ~cache:false (Scenarios.faulty ())
          in
          let expected =
            Session.exec (Session.create raw) "dang-->next->value"
          in
          Alcotest.(check (list string)) "fault lines exact through read-ahead"
            expected got;
          let tail = 0x40000000 in
          (match dbg.Dbgi.get_bytes ~addr:tail ~len:4 with
          | _ -> Alcotest.fail "wild read must fault"
          | exception Dbgi.Target_fault { addr; len } ->
              Alcotest.(check int) "fault addr" tail addr;
              Alcotest.(check int) "fault len" 4 len);
          check_balanced "ledger balances" dbg))

(* A store behind the cache's back drops the lines a block fill
   speculated: the generation probe drops the whole cache, the
   still-speculative lines resolve wasted, and the next demand read
   refetches fresh bytes. *)
let coherence_case =
  case "write drops speculated lines as wasted" (fun () ->
      let b = build "rsp:all+cache+prefetch" in
      Fun.protect ~finally:b.Backend.b_close (fun () ->
          let dbg = b.Backend.b_dbg in
          let x = var_addr dbg "x" in
          ignore (Dbgi.read_scalar dbg ~addr:x ~size:4 ~signed:true);
          let st = ledger dbg in
          let unresolved =
            st.Prefetch.issued - st.Prefetch.useful - st.Prefetch.wasted
          in
          Alcotest.(check bool) "block fill speculated lines" true
            (unresolved > 0);
          let wasted0 = st.Prefetch.wasted in
          (* the mini-C interpreter, the target itself — anything that
             bumps the write generation *)
          Memory.write
            (Inferior.mem b.Backend.b_inf)
            ~addr:(x + 80) (Bytes.make 4 '\x2a');
          Alcotest.(check int64) "demand read sees the new bytes" 0x2a2a2a2aL
            (Dbgi.read_scalar dbg ~addr:(x + 80) ~size:4 ~signed:false);
          Alcotest.(check bool)
            (Printf.sprintf "speculated lines resolved wasted (%d -> %d)"
               wasted0 st.Prefetch.wasted)
            true
            (st.Prefetch.wasted >= wasted0 + unresolved);
          check_balanced "ledger balances" dbg))

(* Block fills never replace resident lines: a buffered store lives in
   a cached line, and a later block fill of its page must not clobber
   the pending bytes. *)
let pending_write_case =
  case "speculation never clobbers buffered writes" (fun () ->
      let b = build "rsp:all+cache+prefetch" in
      Fun.protect ~finally:b.Backend.b_close (fun () ->
          let dbg = b.Backend.b_dbg in
          let x = var_addr dbg "x" in
          let page = x land lnot (Memory.page_size - 1) in
          let raw = Duel_target.Backend.direct ~cache:false b.Backend.b_inf in
          let old = Dbgi.read_scalar raw ~addr:x ~size:4 ~signed:true in
          (* buffer the store with one-line fills, so the rest of the page
             stays cold *)
          ignore (Prefetch.set_enabled dbg false);
          Dbgi.write_scalar dbg ~addr:x ~size:4 (Int64.add old 77L);
          ignore (Prefetch.set_enabled dbg true);
          let other = if x - page >= 128 then page else page + 2048 in
          let issued0 = (ledger dbg).Prefetch.issued in
          ignore (dbg.Dbgi.get_bytes ~addr:other ~len:4);
          Alcotest.(check bool) "the page was block-filled" true
            ((ledger dbg).Prefetch.issued > issued0);
          Alcotest.(check int64) "the backend has not seen the store" old
            (Dbgi.read_scalar raw ~addr:x ~size:4 ~signed:true);
          Alcotest.(check int64) "buffered write survives the block fill"
            (Int64.add old 77L)
            (Dbgi.read_scalar dbg ~addr:x ~size:4 ~signed:true)))

(* A mapped page with an unmapped page above it: a miss at the edge
   block-fills the whole mapped page in one packet, and a demand read in
   the unmapped page still faults with the exact {addr; len}.  The block
   read's fault is swallowed by one fallback read, today's one-line fill,
   so the fault costs one packet more than on a plain cache. *)
let mapping_edge_case =
  case "batched insert straddling a hole keeps the mapped page, demand \
        faults exact" (fun () ->
      let page = Memory.page_size in
      let base = 64 * page in
      let make_inf _ =
        let inf = Inferior.create () in
        Memory.map (Inferior.mem inf) ~addr:base ~size:page;
        inf
      in
      let fault_packets spec ~addr ~len =
        let b = build ~make_inf spec in
        Fun.protect ~finally:b.Backend.b_close (fun () ->
            let dbg = b.Backend.b_dbg in
            ignore (dbg.Dbgi.get_bytes ~addr:(base + page - 64) ~len:4);
            let p0 = !(b.Backend.b_packets) in
            (match dbg.Dbgi.get_bytes ~addr ~len with
            | _ -> Alcotest.fail "demand past the edge must fault"
            | exception Dbgi.Target_fault f ->
                Alcotest.(check (pair int int))
                  (Printf.sprintf "%s: exact fault" spec)
                  (addr, len) (f.addr, f.len));
            !(b.Backend.b_packets) - p0)
      in
      let b = build ~make_inf "rsp:all+cache+prefetch" in
      Fun.protect ~finally:b.Backend.b_close (fun () ->
          let dbg = b.Backend.b_dbg in
          ignore (dbg.Dbgi.get_bytes ~addr:(base + page - 64) ~len:4);
          Alcotest.(check int) "one packet fills the page" 1
            !(b.Backend.b_packets);
          Alcotest.(check int) "the rest of the page speculated"
            ((page / 64) - 1) (ledger dbg).Prefetch.issued;
          ignore (dbg.Dbgi.get_bytes ~addr:base ~len:(page - 64));
          Alcotest.(check int) "the mapped page serves demand" 1
            !(b.Backend.b_packets));
      List.iter
        (fun (addr, len) ->
          let plain = fault_packets "rsp:all+cache" ~addr ~len in
          let blocked = fault_packets "rsp:all+cache+prefetch" ~addr ~len in
          Alcotest.(check bool)
            (Printf.sprintf "at most one fallback read (%d vs %d packets)"
               blocked plain)
            true
            (blocked <= plain + 1))
        [ (base + page + 16, 4); (base + page - 2, 4) ])

(* A cache smaller than a page's worth of lines caps its blocks at a
   quarter of itself, and no fill evicts a line the read still needs:
   whatever the size, a read of any length the cache can hold, at a
   scattered start, returns the target's bytes and leaves all its lines
   resident (a re-read costs no round trip), residency stays within the
   bound, and the ledger balances. *)
let small_cache_case =
  case "a fill never evicts its own line on a small cache" (fun () ->
      let rand = Random.State.make [| 15 |] in
      List.iter
        (fun max_lines ->
          let inf = Scenarios.all () in
          let raw = Duel_rsp.Client.loopback ~cache:false inf in
          let dbg =
            Dcache.wrap
              ~config:{ Dcache.default_config with Dcache.max_lines }
              raw
          in
          Alcotest.(check bool) "attached" true (Prefetch.attach dbg);
          let direct = Duel_target.Backend.direct ~cache:false inf in
          let hash = var_addr dbg "hash" (* 1024 pointers: two pages *) in
          for _ = 1 to 60 do
            let len = 1 + Random.State.int rand (((max_lines - 1) * 64) + 1) in
            let addr = hash + Random.State.int rand (8192 - len) in
            let got = dbg.Dbgi.get_bytes ~addr ~len in
            let rt = Dcache.round_trips (counters dbg) in
            let again = dbg.Dbgi.get_bytes ~addr ~len in
            Alcotest.(check int)
              (Printf.sprintf "%d lines: re-read of %d bytes at %#x is a hit"
                 max_lines len addr)
              rt
              (Dcache.round_trips (counters dbg));
            Alcotest.(check string) "bytes as the target has them"
              (Bytes.to_string (direct.Dbgi.get_bytes ~addr ~len))
              (Bytes.to_string again);
            Alcotest.(check bool) "same bytes twice" true (got = again);
            Alcotest.(check bool) "residency bounded" true
              (Dcache.cached_lines dbg <= max_lines)
          done;
          check_balanced
            (Printf.sprintf "%d lines: ledger balances" max_lines)
            dbg;
          Dcache.release dbg)
        [ 1; 2; 4; 8; 16; 63 ])

(* Pages of known bytes at [base], on an inferior of their own. *)
let patterned_inf ~base ~pages =
  let size = pages * Memory.page_size in
  let inf = Inferior.create () in
  let mem = Inferior.mem inf in
  Memory.map mem ~addr:base ~size;
  Memory.write mem ~addr:base
    (Bytes.init size (fun i -> Char.chr (((i * 7) + (i / 251)) land 0xff)));
  inf

(* An access that spans several blocks must not lose its own lines to
   its later block fills: on the default cache, reads of up to 16 KiB at
   unaligned starts come back whole, whether they span four blocks
   (block fills, one packet each) or five (one-line fills). *)
let wide_read_case =
  case "a read spanning several blocks keeps its own lines" (fun () ->
      let page = Memory.page_size in
      let base = 64 * page in
      let b =
        build
          ~make_inf:(fun _ -> patterned_inf ~base ~pages:8)
          "rsp:all+cache+prefetch"
      in
      Fun.protect ~finally:b.Backend.b_close (fun () ->
          let dbg = b.Backend.b_dbg in
          let raw = Duel_target.Backend.direct ~cache:false b.Backend.b_inf in
          let check ~addr ~len =
            Alcotest.(check bool)
              (Printf.sprintf "%d bytes at %#x as the target has them" len addr)
              true
              (dbg.Dbgi.get_bytes ~addr ~len = raw.Dbgi.get_bytes ~addr ~len)
          in
          check ~addr:(base + 100) ~len:(14 * 1024);
          Alcotest.(check int) "four blocks, four packets" 4
            !(b.Backend.b_packets);
          List.iter
            (fun (off, len) -> check ~addr:(base + off) ~len)
            [
              (4000, 14 * 1024);
              (page + 1, (16 * 1024) - 64);
              (3 * page - 7, 14 * 1024);
              (100, 8);
              (4000, 14 * 1024);
            ];
          check_balanced "ledger balances" dbg))

(* In-process backends have no round trip to amortise: with read-ahead
   attached, a direct stack still fills exactly one line per demand
   read and speculates nothing. *)
let direct_one_line_case =
  case "direct stacks keep one-line fills" (fun () ->
      let b = build "direct:all+cache+prefetch" in
      Fun.protect ~finally:b.Backend.b_close (fun () ->
          let dbg = b.Backend.b_dbg in
          let s = Session.create dbg in
          List.iter
            (fun q -> ignore (Session.exec s q))
            [
              "x[..100] >? 5";
              "hash[..1024]-->next->scope";
              "#/(root-->(left,right))";
            ];
          let st = counters dbg in
          Alcotest.(check bool) "demand fills happened" true
            (st.Dcache.fills > 0);
          Alcotest.(check int) "backend reads = demand fills" st.Dcache.fills
            st.Dcache.backend_reads;
          Alcotest.(check int) "nothing speculated" 0
            (ledger dbg).Prefetch.issued))

(* [set prefetch off] means one-line fills, and the ledger keeps
   settling: lines speculated before the switch still resolve. *)
let toggle_case =
  case "disabling keeps the ledger settling" (fun () ->
      let b = build "rsp:all+cache+prefetch" in
      Fun.protect ~finally:b.Backend.b_close (fun () ->
          let dbg = b.Backend.b_dbg in
          let s = Session.create dbg in
          ignore (Session.exec s "head-->next->value");
          Alcotest.(check bool) "toggle accepted" true
            (Session.set_prefetch s false);
          let st = ledger dbg in
          let issued = st.Prefetch.issued in
          Alcotest.(check bool) "block fills speculated" true (issued > 0);
          ignore (Session.exec s "hash[0]-->next->scope");
          Alcotest.(check int) "no new speculation while off" issued
            st.Prefetch.issued;
          check_balanced "ledger balances across the toggle" dbg;
          Alcotest.(check bool) "re-enable" true (Session.set_prefetch s true);
          Alcotest.(check bool) "stats render" true
            (List.length (Session.prefetch_stats s) >= 3)))

(* Closing a stack drops its cache, probe and ledger from the
   registries, so a closed stack is not kept alive. *)
let close_drops_registry_case =
  case "closing a stack drops it from the registries" (fun () ->
      List.iter
        (fun spec ->
          let b = build spec in
          let dbg = b.Backend.b_dbg in
          ignore (Session.exec (Session.create dbg) "x[3] = x[3]");
          Alcotest.(check bool) (spec ^ ": cached while open") true
            (Dcache.is_cached dbg);
          b.Backend.b_close ();
          Alcotest.(check bool) (spec ^ ": cache dropped") false
            (Dcache.is_cached dbg);
          Alcotest.(check bool) (spec ^ ": read-ahead dropped") false
            (Prefetch.is_attached dbg))
        [
          "direct:all+prefetch"; "rsp:all+cache+prefetch"; "serve:all+prefetch";
        ])

let suite =
  List.map corpus_case Test_engines.corpus
  @ List.map faulty_case
      [
        "dang-->next->value";
        "lone-->next->value";
        "#/(dang-->next->value)";
        "cyc->bogus";
      ]
  @ [
      QCheck_alcotest.to_alcotest prop_blind;
      fewer_packets_case;
      swapped_chain_case;
      dangling_chase_case;
      coherence_case;
      pending_write_case;
      mapping_edge_case;
      small_cache_case;
      wide_read_case;
      direct_one_line_case;
      toggle_case;
      close_drops_registry_case;
    ]
