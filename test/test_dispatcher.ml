(* The replica dispatcher: mid-stream failover, read-your-writes through
   the replication journal, breaker trip/half-open/recovery — driven
   through hand-built replicas whose failure modes are flipped by refs
   mid-test — plus the backend spec language's parse/print round-trip
   property. *)

module Dbgi = Duel_dbgi.Dbgi
module Dispatcher = Duel_dbgi.Dispatcher
module Scenarios = Duel_scenarios.Scenarios
module Backend = Duel_backend.Backend

let case = Support.case

let transient ~addr ~len = raise (Dbgi.Target_transient { addr; len })

(* A direct backend over its own twin debuggee, with failure switches on
   the live paths.  Given a [clock], each read advances it by [latency]
   seconds, so a dispatcher timing reads by that clock measures exactly
   the latencies the test sets.  The scenario builders are deterministic,
   so every twin lays its globals out at the same addresses. *)
let replica ?(fail_get = ref false) ?(fail_put = ref false) ?clock
    ?(latency = 0.) inf =
  let raw = Duel_target.Backend.direct ~cache:false inf in
  {
    raw with
    Dbgi.get_bytes =
      (fun ~addr ~len ->
        Option.iter (fun c -> c := !c +. latency) clock;
        if !fail_get then transient ~addr ~len
        else raw.Dbgi.get_bytes ~addr ~len);
    put_bytes =
      (fun ~addr data ->
        if !fail_put then transient ~addr ~len:(Bytes.length data)
        else raw.Dbgi.put_bytes ~addr data);
  }

let addr_of dbg name =
  match dbg.Dbgi.find_variable name with
  | Some { Dbgi.v_addr; _ } -> v_addr
  | _ -> Alcotest.failf "variable %s missing" name

let get4 dbg addr = Bytes.to_string (dbg.Dbgi.get_bytes ~addr ~len:4)

(* --- failover --------------------------------------------------------- *)

(* The dying replica answers in 1 us and the healthy one in 10 us, so
   after its first failure the dying replica still ranks first (2x and
   then 3x its EWMA stays below the healthy one's) and takes the three
   consecutive faults that trip its breaker.  The fake clock makes that
   ranking independent of how fast this machine happens to be. *)
let failover_mid_stream () =
  let dying = ref false in
  let clock = ref 0. in
  let d =
    Dispatcher.create
      ~labels:[ "dying"; "healthy" ]
      ~clock:(fun () -> !clock)
      [
        replica ~fail_get:dying ~clock ~latency:1e-6 (Scenarios.big_array 64);
        replica ~clock ~latency:1e-5 (Scenarios.big_array 64);
      ]
  in
  let dbg = Dispatcher.dbgi d in
  let oracle =
    Duel_target.Backend.direct ~cache:false (Scenarios.big_array 64)
  in
  let base = addr_of dbg "big" in
  for i = 0 to 63 do
    if i = 20 then dying := true;
    let addr = base + (4 * i) in
    Alcotest.(check string)
      (Printf.sprintf "big[%d] matches the oracle across the death" i)
      (get4 oracle addr) (get4 dbg addr)
  done;
  let c = Dispatcher.counters d in
  Alcotest.(check bool) "reads failed over" true (c.Dispatcher.failovers > 0);
  Alcotest.(check bool) "the dying replica tripped" true (c.Dispatcher.trips >= 1);
  match Dispatcher.replica_health d with
  | (_, h) :: _ ->
      Alcotest.(check bool) "dying replica reported down" false h.Dbgi.h_ok
  | [] -> Alcotest.fail "no replica health"

(* --- read-your-writes ------------------------------------------------- *)

let read_your_writes () =
  let p_dead = ref false and s_lagging = ref true in
  let d =
    Dispatcher.create
      ~labels:[ "primary"; "lagging" ]
      [
        replica ~fail_get:p_dead (Scenarios.all ());
        replica ~fail_put:s_lagging (Scenarios.all ());
      ]
  in
  let dbg = Dispatcher.dbgi d in
  let x = addr_of dbg "x" in
  let written = "\xAA\xBB\xCC\xDD" in
  (* the write lands on the primary (owner); the lagging replica rejects
     its copy, which is journalled against it *)
  dbg.Dbgi.put_bytes ~addr:x (Bytes.of_string written);
  Alcotest.(check string) "own write visible immediately" written (get4 dbg x);
  (* primary gone, lagging still refusing writes: the dirty range must
     NOT be served stale — the read fails typed instead *)
  p_dead := true;
  let c = Dispatcher.counters d in
  (match get4 dbg x with
  | _ -> Alcotest.fail "dirty replica served a pinned range"
  | exception Dbgi.Target_transient _ -> ());
  Alcotest.(check bool)
    "the read was pinned off the dirty replica" true
    (c.Dispatcher.pinned_reads >= 1);
  (* the lagging replica heals: the journal is repaired inline and only
     then may it serve the range — read-your-writes across failover *)
  s_lagging := false;
  Alcotest.(check string)
    "own write visible from the healed replica after repair" written
    (get4 dbg x);
  Alcotest.(check bool)
    "journalled write applied late" true (c.Dispatcher.repairs >= 1);
  Alcotest.(check bool) "counted as failover" true (c.Dispatcher.failovers >= 1)

(* --- breaker recovery ------------------------------------------------- *)

let half_open_recovery () =
  let flaky = ref true in
  let policy =
    {
      Dispatcher.default_policy with
      Dispatcher.trip_after = 1;
      half_open_after = 0.;
    }
  in
  let d =
    Dispatcher.create ~policy
      ~labels:[ "flaky"; "steady" ]
      [ replica ~fail_get:flaky (Scenarios.all ()); replica (Scenarios.all ()) ]
  in
  let dbg = Dispatcher.dbgi d in
  let x = addr_of dbg "x" in
  ignore (get4 dbg x);
  let c = Dispatcher.counters d in
  Alcotest.(check int) "tripped after one fault" 1 c.Dispatcher.trips;
  flaky := false;
  (* the steady replica serves; the half-open probe rides along and
     closes the flaky replica's breaker again *)
  ignore (get4 dbg x);
  Alcotest.(check bool) "probe fired" true (c.Dispatcher.probes >= 1);
  Alcotest.(check bool)
    "breaker closed again" true (c.Dispatcher.recoveries >= 1);
  match Dispatcher.replica_health d with
  | (_, h) :: _ ->
      Alcotest.(check bool) "flaky replica healthy again" true h.Dbgi.h_ok
  | [] -> Alcotest.fail "no replica health"

(* --- spec language round-trip ----------------------------------------- *)

let gen_spec : Backend.spec QCheck2.Gen.t =
  let open QCheck2.Gen in
  let scen = oneofl [ "all"; "symtab"; "faulty"; "big:64"; "deep_list:10" ] in
  let seed = int_range 0 99 in
  let base =
    oneof
      [
        map (fun s -> Backend.Direct s) scen;
        map (fun s -> Backend.Rsp s) scen;
        map (fun s -> Backend.Serve_loop s) scen;
        map (fun s -> Backend.Dead s) scen;
        map3
          (fun h p s -> Backend.Tcp (h, p, s))
          (oneofl [ "127.0.0.1"; "replica-a"; "replica-b" ])
          (int_range 1 65535) scen;
        map2
          (fun p s -> Backend.Unix_sock (p, s))
          (oneofl [ "/tmp/duel.sock"; "/run/oduel" ])
          scen;
      ]
  in
  let rate = oneofl [ 0.01; 0.05; 0.25; 0.5 ] in
  let deco =
    oneof
      [
        return Backend.Cache;
        map2
          (fun seed profile -> Backend.Chaos { seed; profile })
          seed
          (oneofl [ "off"; "mild"; "nasty"; "mild-nocall" ]);
        map2 (fun seed profile -> Backend.Flaky { seed; profile }) seed
          (oneofl [ "off"; "mild"; "nasty" ]);
        map3
          (fun seed profile rate -> Backend.Mangle { seed; profile; rate })
          seed
          (oneofl [ "checksum"; "corrupt"; "wire" ])
          rate;
        map3
          (fun seed ms rate -> Backend.Stall { seed; ms; rate })
          seed
          (oneofl [ 0.5; 5.; 15.; 20. ])
          rate;
      ]
  in
  let atom =
    map2 (fun b ds -> Backend.Atom (b, ds)) base (list_size (int_range 0 3) deco)
  in
  let policy =
    map3
      (fun trip probe alpha ->
        { Backend.d_trip = trip; d_probe_ms = probe; d_alpha = alpha })
      (int_range 1 5)
      (oneofl [ 0.; 10.; 50. ])
      (oneofl [ 0.1; 0.2; 0.5 ])
  in
  oneof
    [
      atom;
      map2
        (fun kids pol -> Backend.Dispatch (kids, pol))
        (list_size (int_range 1 3) atom)
        policy;
    ]

let prop_roundtrip =
  QCheck2.Test.make ~name:"spec parse . print . parse is stable" ~count:500
    ~print:Backend.print gen_spec (fun spec ->
      let printed = Backend.print spec in
      match Backend.parse printed with
      | Error m -> QCheck2.Test.fail_reportf "%s does not re-parse: %s" printed m
      | Ok spec' ->
          spec' = spec
          && Backend.print spec' = printed (* printing is a fixpoint *))

let suite =
  [
    case "reads fail over when a replica dies mid-stream" failover_mid_stream;
    case "read-your-writes survives failover via the journal" read_your_writes;
    case "a tripped replica recovers through the half-open probe"
      half_open_recovery;
    QCheck_alcotest.to_alcotest prop_roundtrip;
  ]
