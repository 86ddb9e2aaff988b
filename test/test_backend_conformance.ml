(* One battery of DBGI assertions run identically against every backend
   the spec language can name — direct, loopback, socket, mangled wires,
   chaos layers, and replicated dispatchers: whatever the interface
   promises must hold regardless of transport, and every layer must be
   observably transparent.

   The whole matrix is a list of spec strings; Backend.of_string is the
   only construction path. *)

module Ctype = Duel_ctype.Ctype
module Dbgi = Duel_dbgi.Dbgi
module Inferior = Duel_target.Inferior
module Build = Duel_target.Build
module Backend = Duel_backend.Backend

let case = Support.case

let backends =
  [
    "direct:all";
    "rsp:all";
    (* the default construction: cache with a coherence probe *)
    "direct:all+cache";
    (* a cache over the packet transport — the remote configuration *)
    "rsp:all+cache";
    (* the same traffic over a real socket through the serve event loop,
       bare and with the probe-less (Explicit-policy) client cache *)
    "serve:all";
    "serve:all+cache";
    (* read-ahead over every transport (page-block fills on the wires,
       one-line fills direct): observable only in its own counters *)
    "direct:all+prefetch";
    "rsp:all+cache+prefetch";
    "serve:all+prefetch";
    (* speculation under fault injection: the retry layer re-issues
       demand reads, which must not double-resolve speculated lines *)
    "rsp:all+chaos(seed=11,profile=mild-nocall)+prefetch";
    (* injection at fault rate zero must be invisible *)
    "direct:all+flaky(seed=1,profile=off)";
    (* injected transients absorbed by the retry layer.  The call
       channel stays quiet (-nocall): a call is not idempotent, so its
       transient is a typed error by design, which is not what this
       battery asserts — the chaos suite covers that path. *)
    "direct:all+chaos(seed=7,profile=mild-nocall)";
    (* the RSP loopback through a checksum-flipping wire: every damaged
       frame is NAKed and retransmitted, so the battery must pass
       unchanged — including at-most-once alloc/call *)
    "rsp:all+mangle(seed=3,profile=checksum,rate=0.3)";
    (* and through plain byte corruption *)
    "rsp:all+mangle(seed=4,profile=corrupt,rate=0.01)";
    (* the mangler as a socket-level proxy around the serve event loop *)
    "serve:all+mangle(seed=5,profile=checksum,rate=0.2)";
    (* replicated twins behind the dispatcher: identical replicas, a
       flaky primary whose un-retried transients must fail over, mixed
       transports, and a dead secondary that desyncs out of lockstep *)
    "dispatch(direct:all,direct:all)";
    "dispatch(direct:all+flaky(seed=9,profile=mild-nocall),direct:all)";
    "dispatch(rsp:all,direct:all+cache)";
    "dispatch(direct:all,dead:all)";
  ]

(* Run [f label inf dbg] once per backend, each over a fresh debuggee
   ([inf] is the primary replica's inferior — the one whose stdout the
   battery drains and whose addresses every twin shares). *)
let conform f () =
  List.iter
    (fun spec ->
      match Backend.of_string spec with
      | Error m -> Alcotest.fail (spec ^ ": " ^ m)
      | Ok b ->
          Fun.protect ~finally:b.Backend.b_close (fun () ->
              f
                (fun what -> spec ^ ": " ^ what)
                b.Backend.b_inf b.Backend.b_dbg))
    backends

let wild = 0x40000000

let peek_poke =
  conform (fun l _inf dbg ->
      let x =
        match dbg.Dbgi.find_variable "x" with
        | Some { Dbgi.v_addr; _ } -> v_addr
        | None -> Alcotest.fail (l "global x missing")
      in
      dbg.Dbgi.put_bytes ~addr:x (Bytes.of_string "\x01\x02\x03\x04");
      Alcotest.(check string)
        (l "raw bytes roundtrip")
        "\x01\x02\x03\x04"
        (Bytes.to_string (dbg.Dbgi.get_bytes ~addr:x ~len:4));
      Dbgi.write_scalar dbg ~addr:x ~size:4 (-123L);
      Alcotest.(check int64) (l "signed scalar roundtrip") (-123L)
        (Dbgi.read_scalar dbg ~addr:x ~size:4 ~signed:true);
      Alcotest.(check int64)
        (l "same bits unsigned")
        0xffffff85L
        (Dbgi.read_scalar dbg ~addr:x ~size:4 ~signed:false))

let alloc =
  conform (fun l _inf dbg ->
      let a = dbg.Dbgi.alloc_space 16 in
      Alcotest.(check bool) (l "alloc returns an address") true (a > 0);
      Alcotest.(check string)
        (l "fresh space is zeroed")
        (String.make 16 '\000')
        (Bytes.to_string (dbg.Dbgi.get_bytes ~addr:a ~len:16));
      dbg.Dbgi.put_bytes ~addr:a (Bytes.of_string "ok");
      Alcotest.(check string)
        (l "fresh space is writable")
        "ok"
        (Bytes.to_string (dbg.Dbgi.get_bytes ~addr:a ~len:2)))

let calls =
  conform (fun l inf dbg ->
      (match dbg.Dbgi.call_func "abs" [ Dbgi.Cint (Ctype.int, -7L) ] with
      | Dbgi.Cint (t, v) ->
          Alcotest.(check int64) (l "abs(-7)") 7L v;
          Alcotest.(check bool) (l "abs returns int") true (t = Ctype.int)
      | Dbgi.Cfloat _ -> Alcotest.fail (l "abs returned a float"));
      let fmt = Build.cstring inf "val=%d\n" in
      (match
         dbg.Dbgi.call_func "printf"
           [
             Dbgi.Cint (Ctype.ptr Ctype.char, Int64.of_int fmt);
             Dbgi.Cint (Ctype.int, 42L);
           ]
       with
      | Dbgi.Cint (_, n) ->
          Alcotest.(check int64) (l "printf returns byte count") 7L n
      | Dbgi.Cfloat _ -> Alcotest.fail (l "printf returned a float"));
      Alcotest.(check string)
        (l "printf output captured")
        "val=42\n" (Inferior.take_output inf);
      Alcotest.(check bool)
        (l "unknown function fails")
        true
        (match dbg.Dbgi.call_func "nosuch" [] with
        | _ -> false
        | exception Failure _ -> true))

let symbols =
  conform (fun l _inf dbg ->
      (match dbg.Dbgi.find_variable "x" with
      | Some { Dbgi.v_type = Ctype.Array (t, Some 100); _ } ->
          Alcotest.(check bool) (l "x is int[100]") true (t = Ctype.int)
      | _ -> Alcotest.fail (l "global x has wrong shape"));
      (match dbg.Dbgi.find_variable "abs" with
      | Some { Dbgi.v_type = Ctype.Func _; _ } -> ()
      | _ -> Alcotest.fail (l "functions must be visible as symbols"));
      Alcotest.(check bool)
        (l "unknown symbol is None")
        true
        (dbg.Dbgi.find_variable "nosuch" = None))

let frames =
  conform (fun l _inf dbg ->
      let fs = dbg.Dbgi.frames () in
      Alcotest.(check int) (l "three active frames") 3 (List.length fs);
      let inner = List.hd fs in
      Alcotest.(check int) (l "index 0 is innermost") 0 inner.Dbgi.fr_index;
      Alcotest.(check string) (l "innermost function") "fib" inner.Dbgi.fr_func)

let faults =
  conform (fun l _inf dbg ->
      Alcotest.(check bool)
        (l "mapped address readable")
        true
        (Dbgi.readable dbg ~addr:(dbg.Dbgi.alloc_space 4) ~len:4);
      Alcotest.(check bool)
        (l "wild address unreadable")
        false
        (Dbgi.readable dbg ~addr:wild ~len:4);
      (match dbg.Dbgi.get_bytes ~addr:wild ~len:4 with
      | _ -> Alcotest.fail (l "wild read must fault")
      | exception Dbgi.Target_fault { addr; len } ->
          Alcotest.(check int) (l "read fault address") wild addr;
          Alcotest.(check int) (l "read fault length") 4 len);
      match dbg.Dbgi.put_bytes ~addr:wild (Bytes.make 3 'x') with
      | _ -> Alcotest.fail (l "wild write must fault")
      | exception Dbgi.Target_fault { addr; len } ->
          Alcotest.(check int) (l "write fault address") wild addr;
          Alcotest.(check int) (l "write fault length") 3 len)

let zero_length =
  conform (fun l _inf dbg ->
      Alcotest.(check int)
        (l "zero-length read at wild address")
        0
        (Bytes.length (dbg.Dbgi.get_bytes ~addr:wild ~len:0));
      dbg.Dbgi.put_bytes ~addr:wild Bytes.empty;
      Alcotest.(check bool)
        (l "zero-length readable at wild address")
        true
        (Dbgi.readable dbg ~addr:wild ~len:0))

(* The VM arm: the bytecode engine must emit lines bit-identical to the
   reference walker through every backend in the matrix — superinstruction
   fusion and fallback spawning may never observe the transport. *)
module Session = Duel_core.Session

let vm_queries =
  [
    "x[0..3]";
    "#/(1..100)";
    "hash[0]-->next->scope";
    "x[0] = 7; x[0]";
    "(1..5) + x[1]";
    "frames.n";
  ]

let vm_agreement =
  conform (fun l inf dbg ->
      let seq = Session.create ~engine:Session.Seq_engine dbg in
      let vm = Session.create ~engine:Session.Vm_engine dbg in
      List.iter
        (fun q ->
          let a = Session.exec seq q in
          let oa = Inferior.take_output inf in
          let b = Session.exec vm q in
          let ob = Inferior.take_output inf in
          Alcotest.(check (list string)) (l ("vm parity: " ^ q)) a b;
          Alcotest.(check string) (l ("vm stdout parity: " ^ q)) oa ob)
        vm_queries)

(* Every prefetching spec in the matrix must keep its speculation
   ledger balanced after the cache quiesces — including under chaos,
   where retried demand reads must not double-count useful lines (a
   speculative line resolves exactly once, on its first touch). *)
let prefetch_accounting =
  conform (fun l _inf dbg ->
      match Duel_dbgi.Prefetch.stats dbg with
      | None -> ()
      | Some _ ->
          let s = Session.create dbg in
          ignore (Session.exec s "hash[0]-->next->scope");
          ignore (Session.exec s "#/(head-->next->value)");
          Duel_dbgi.Dcache.invalidate dbg;
          let st = Option.get (Duel_dbgi.Prefetch.stats dbg) in
          Alcotest.(check int)
            (l "useful + wasted = issued")
            st.Duel_dbgi.Prefetch.issued
            (st.Duel_dbgi.Prefetch.useful + st.Duel_dbgi.Prefetch.wasted))

let suite =
  [
    case "bytes and scalars roundtrip" peek_poke;
    case "allocated space is zeroed and writable" alloc;
    case "target calls and captured stdout" calls;
    case "symbol lookup covers globals and functions" symbols;
    case "frame queries" frames;
    case "faults carry address and length" faults;
    case "zero-length accesses never fault" zero_length;
    case "vm engine agrees with the walker on every backend" vm_agreement;
    case "speculation ledger balances on every prefetching backend"
      prefetch_accounting;
  ]
