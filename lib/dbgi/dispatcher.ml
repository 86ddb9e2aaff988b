(* Replica routing over the narrow debugger interface.

   The shape follows the classic prover-dispatcher idiom: a table of
   equivalent providers, a health score per provider, and per-operation
   routing that knows which operations may be retried elsewhere (reads:
   idempotent by the interface contract), which must be anchored (writes:
   primary first, journalled replication behind), and which must run in
   lockstep everywhere or not at all (alloc/call: non-idempotent, and the
   replicas only stay interchangeable if they execute the same history).

   Every operation runs on the caller's thread.  The mutex keeps the
   health fields and counters consistent when several domains share one
   dispatcher. *)

type policy = {
  trip_after : int;
  half_open_after : float;
  ewma_alpha : float;
  journal_limit : int;
  is_transport_fault : exn -> bool;
}

let default_transport_fault = function
  | Dbgi.Target_transient _ -> true
  | Unix.Unix_error _ -> true
  | _ -> false

let default_policy =
  {
    trip_after = 3;
    half_open_after = 0.05;
    ewma_alpha = 0.2;
    journal_limit = 256;
    is_transport_fault = default_transport_fault;
  }

type counters = {
  mutable reads : int;
  mutable writes : int;
  mutable failovers : int;
  mutable trips : int;
  mutable probes : int;
  mutable recoveries : int;
  mutable pinned_reads : int;
  mutable repairs : int;
  mutable desyncs : int;
}

let zero_counters () =
  {
    reads = 0;
    writes = 0;
    failovers = 0;
    trips = 0;
    probes = 0;
    recoveries = 0;
    pinned_reads = 0;
    repairs = 0;
    desyncs = 0;
  }

type replica = {
  rep : Dbgi.t;
  label : string;
  mutable n_samples : int;
  mutable ewma_ms : float;  (* 0. until the first sample *)
  mutable failures : int;  (* consecutive transport faults *)
  mutable total_failures : int;
  mutable tripped_until : float;  (* 0. = breaker closed *)
  mutable desynced : bool;
  mutable journal : (int * bytes) list;  (* oldest first *)
  mutable last_err : string;
}

type t = {
  pol : policy;
  reps : replica array;
  cnt : counters;
  m : Mutex.t;
  now : unit -> float;  (* seconds; every latency sample and breaker timer *)
}

(* Closed: full member of the rotation.  Open: cooling down, no traffic.
   Half_open: cooldown elapsed; the next operation doubles as a probe. *)
let state nw r =
  if r.tripped_until = 0. then `Closed
  else if nw >= r.tripped_until then `Half_open
  else `Open

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let record_success t r dt_ms =
  locked t (fun () ->
      r.failures <- 0;
      r.ewma_ms <-
        (if r.n_samples = 0 then dt_ms
         else
           (t.pol.ewma_alpha *. dt_ms)
           +. ((1. -. t.pol.ewma_alpha) *. r.ewma_ms));
      r.n_samples <- r.n_samples + 1)

let record_failure t r e =
  locked t (fun () ->
      r.failures <- r.failures + 1;
      r.total_failures <- r.total_failures + 1;
      r.last_err <- Printexc.to_string e;
      if r.failures >= t.pol.trip_after then begin
        if r.tripped_until = 0. then t.cnt.trips <- t.cnt.trips + 1;
        (* a failed half-open probe lands here too and re-arms the timer *)
        r.tripped_until <- t.now () +. t.pol.half_open_after
      end)

let desync t r why =
  locked t (fun () ->
      if not r.desynced then begin
        r.desynced <- true;
        r.last_err <- why;
        t.cnt.desyncs <- t.cnt.desyncs + 1
      end)

(* Routing preference: unmeasured replicas score as fast (give them a
   chance), consecutive failures inflate the score multiplicatively. *)
let score r =
  (if r.ewma_ms = 0. then 0.01 else r.ewma_ms) *. float_of_int (1 + r.failures)

(* --- the write journal ---------------------------------------------- *)

let dirty_overlaps r addr len =
  List.exists
    (fun (a, d) -> a < addr + len && addr < a + Bytes.length d)
    r.journal

exception Stuck_journal

(* Re-apply every journalled write, in order.  Transport faults propagate
   (the journal survives for a later attempt — byte writes are
   idempotent); a [Target_fault] means this replica's mappings have
   diverged from the owner's, which is unrecoverable: [Stuck_journal]. *)
let apply_journal t r =
  match r.journal with
  | [] -> ()
  | entries ->
      (try
         List.iter (fun (addr, data) -> r.rep.Dbgi.put_bytes ~addr data) entries
       with Dbgi.Target_fault _ -> raise Stuck_journal);
      locked t (fun () ->
          t.cnt.repairs <- t.cnt.repairs + List.length entries;
          r.journal <- [])

(* Best-effort repair on the read path: true iff the replica is clean. *)
let repair t r =
  match apply_journal t r with
  | () -> true
  | exception Stuck_journal ->
      desync t r "write journal unappliable (divergent mappings)";
      false
  | exception e when t.pol.is_transport_fault e ->
      record_failure t r e;
      false

let journal_add t r addr data =
  locked t (fun () -> r.journal <- r.journal @ [ (addr, Bytes.copy data) ]);
  if List.length r.journal > t.pol.journal_limit then
    desync t r "write journal overflow"

(* --- read routing ---------------------------------------------------- *)

(* Closed replicas by score, then half-open ones (their attempt is the
   recovery probe).  If everything is tripped or desynced, try the
   longest-tripped live replica anyway: availability beats purity when
   every replica is suspect. *)
let read_candidates t =
  let nw = t.now () in
  let live =
    List.filter (fun r -> not r.desynced) (Array.to_list t.reps)
  in
  let closed = List.filter (fun r -> state nw r = `Closed) live in
  let half = List.filter (fun r -> state nw r = `Half_open) live in
  let ranked =
    List.sort (fun a b -> compare (score a) (score b)) closed @ half
  in
  match (ranked, live) with
  | [], [] -> []
  | [], live ->
      [ List.hd
          (List.sort (fun a b -> compare a.tripped_until b.tripped_until) live)
      ]
  | cs, _ -> cs

let reopen t r =
  locked t (fun () ->
      r.tripped_until <- 0.;
      r.failures <- 0;
      t.cnt.recoveries <- t.cnt.recoveries + 1)

(* One attempt against one replica.  [`Skip] means the replica was not
   eligible (dirty range it could not repair); [`Fail] is a transport
   fault already scored against it.  Authoritative exceptions
   ([Target_fault], query errors) propagate to the caller unchanged. *)
let attempt_read t r ?range op =
  let probing = state (t.now ()) r <> `Closed in
  let eligible =
    match range with
    | Some (addr, len) when dirty_overlaps r addr len ->
        if repair t r then true
        else begin
          locked t (fun () -> t.cnt.pinned_reads <- t.cnt.pinned_reads + 1);
          false
        end
    | _ -> true
  in
  if not eligible then `Skip
  else begin
    if probing then locked t (fun () -> t.cnt.probes <- t.cnt.probes + 1);
    let t0 = t.now () in
    match op r.rep with
    | v ->
        record_success t r ((t.now () -. t0) *. 1000.);
        if probing then begin
          reopen t r;
          ignore (repair t r)
        end;
        `Ok v
    | exception e when t.pol.is_transport_fault e ->
        record_failure t r e;
        `Fail e
  end

(* After a successful read, give one half-open replica its probe using
   the same operation, so tripped replicas recover even while a healthy
   one absorbs all regular traffic. *)
let piggyback_probe t winner ?range op =
  let nw = t.now () in
  match
    Array.to_list t.reps
    |> List.find_opt (fun r ->
           (not r.desynced) && r != winner && state nw r = `Half_open)
  with
  | Some r -> ignore (attempt_read t r ?range op)
  | None -> ()

let read_seq t ?range op =
  let last = ref None in
  let failed = ref false in
  let rec go = function
    | [] -> (
        match !last with
        | Some e -> raise e
        | None -> failwith "dispatcher: no live replicas")
    | r :: rest -> (
        match attempt_read t r ?range op with
        | `Ok v ->
            if !failed then
              locked t (fun () -> t.cnt.failovers <- t.cnt.failovers + 1);
            piggyback_probe t r ?range op;
            v
        | `Skip -> go rest
        | `Fail e ->
            failed := true;
            last := Some e;
            go rest)
  in
  go (read_candidates t)

(* --- writes ----------------------------------------------------------- *)

(* Apply the backlog, then the new write, scoring the round-trip. *)
let write_one t r ~addr data =
  apply_journal t r;
  let t0 = t.now () in
  r.rep.Dbgi.put_bytes ~addr data;
  record_success t r ((t.now () -. t0) *. 1000.)

let replicate t r ~addr data =
  if state (t.now ()) r = `Open then journal_add t r addr data
  else
    match write_one t r ~addr data with
    | () -> ()
    | exception Stuck_journal -> desync t r "write journal unappliable"
    | exception e when t.pol.is_transport_fault e ->
        record_failure t r e;
        journal_add t r addr data
    | exception Dbgi.Target_fault _ ->
        (* the owner took this write; a twin that faults on it has
           diverged and can never serve reads again *)
        desync t r "divergent write fault"

let write t ~addr data =
  locked t (fun () -> t.cnt.writes <- t.cnt.writes + 1);
  let live = List.filter (fun r -> not r.desynced) (Array.to_list t.reps) in
  if live = [] then failwith "dispatcher: no live replicas";
  let nw = t.now () in
  let order =
    match List.filter (fun r -> state nw r <> `Open) live with
    | [] -> live
    | l -> l
  in
  (* find an owner: the first replica that takes the write.  Transport
     faults journal the write on the failed candidate and move on;
     [Target_fault] is authoritative (the twins agree on mappings). *)
  let rec claim failed = function
    | [] -> (
        match failed with
        | Some e -> raise e
        | None -> failwith "dispatcher: no writable replica")
    | r :: rest -> (
        match write_one t r ~addr data with
        | () ->
            if failed <> None then
              locked t (fun () -> t.cnt.failovers <- t.cnt.failovers + 1);
            r
        | exception Stuck_journal ->
            desync t r "write journal unappliable";
            claim failed rest
        | exception e when t.pol.is_transport_fault e ->
            record_failure t r e;
            journal_add t r addr data;
            claim (Some e) rest)
  in
  let owner = claim None order in
  List.iter (fun r -> if r != owner then replicate t r ~addr data) live

(* --- lockstep operations --------------------------------------------- *)

(* Non-idempotent operations must execute identically everywhere or the
   replicas stop being replicas.  The primary's result is authoritative
   (its exceptions propagate); every other live replica replays the
   operation and must produce the same value, else it is desynced. *)
let lockstep t name op eq =
  let live = List.filter (fun r -> not r.desynced) (Array.to_list t.reps) in
  match live with
  | [] -> failwith "dispatcher: no live replicas"
  | p :: others ->
      let t0 = t.now () in
      let v = op p.rep in
      record_success t p ((t.now () -. t0) *. 1000.);
      List.iter
        (fun r ->
          if state (t.now ()) r = `Open then
            desync t r (name ^ " while tripped: lockstep broken")
          else
            match
              apply_journal t r;
              op r.rep
            with
            | v' ->
                if not (eq v v') then desync t r ("divergent " ^ name ^ " result")
            | exception e ->
                desync t r
                  (Printf.sprintf "%s failed on replica: %s" name
                     (Printexc.to_string e)))
        others;
      v

(* --- assembly --------------------------------------------------------- *)

let replica_health t =
  let nw = t.now () in
  Array.to_list t.reps
  |> List.map (fun r ->
         let st =
           if r.desynced then "desynced"
           else
             match state nw r with
             | `Closed -> "ok"
             | `Half_open -> "half-open"
             | `Open -> "tripped"
         in
         let detail =
           if r.last_err = "" then st
           else if st = "ok" then st ^ "; last error: " ^ r.last_err
           else st ^ ": " ^ r.last_err
         in
         ( r.label,
           {
             Dbgi.h_ok = (not r.desynced) && state nw r = `Closed;
             h_detail = detail;
             h_latency_ms = r.ewma_ms;
             h_failures = r.failures;
           } ))

let aggregate_health t () =
  let nw = t.now () in
  let live =
    Array.to_list t.reps
    |> List.filter (fun r -> (not r.desynced) && state nw r <> `Open)
  in
  let total = Array.length t.reps in
  {
    Dbgi.h_ok = live <> [];
    h_detail = Printf.sprintf "%d/%d replicas serving" (List.length live) total;
    h_latency_ms =
      List.fold_left
        (fun acc r -> if acc = 0. then r.ewma_ms else min acc r.ewma_ms)
        0. live;
    h_failures =
      Array.fold_left (fun acc r -> max acc r.failures) 0 t.reps;
  }

let counters t = t.cnt

let report t =
  let c = t.cnt in
  List.map
    (fun (label, h) ->
      Printf.sprintf "replica %-28s %s" label (Dbgi.health_line h)
      ^
      match
        List.find_opt (fun r -> r.label = label) (Array.to_list t.reps)
      with
      | Some r when r.journal <> [] ->
          Printf.sprintf " (%d journalled writes)" (List.length r.journal)
      | _ -> "")
    (replica_health t)
  @ [
      Printf.sprintf
        "ops: %d reads, %d writes; %d failovers, %d pinned reads, %d repairs"
        c.reads c.writes c.failovers c.pinned_reads c.repairs;
      Printf.sprintf "breaker: %d trips, %d probes, %d recoveries, %d desyncs"
        c.trips c.probes c.recoveries c.desyncs;
    ]

let cval_eq (a : Dbgi.cval) (b : Dbgi.cval) = a = b

let create ?(policy = default_policy) ?labels ?(clock = Unix.gettimeofday) reps =
  if reps = [] then invalid_arg "Dispatcher.create: no replicas";
  let labels =
    match labels with
    | Some ls when List.length ls = List.length reps -> ls
    | _ ->
        List.mapi
          (fun i (r : Dbgi.t) -> Printf.sprintf "#%d:%s" i r.Dbgi.caps.c_id)
          reps
  in
  let reps =
    List.map2
      (fun rep label ->
        {
          rep;
          label;
          n_samples = 0;
          ewma_ms = 0.;
          failures = 0;
          total_failures = 0;
          tripped_until = 0.;
          desynced = false;
          journal = [];
          last_err = "";
        })
      reps labels
  in
  {
    pol = policy;
    reps = Array.of_list reps;
    cnt = zero_counters ();
    m = Mutex.create ();
    now = clock;
  }

let dbgi t =
  let primary = t.reps.(0).rep in
  let get_bytes ~addr ~len =
    if len = 0 then Bytes.create 0
    else begin
      locked t (fun () -> t.cnt.reads <- t.cnt.reads + 1);
      read_seq t ~range:(addr, len) (fun rep -> rep.Dbgi.get_bytes ~addr ~len)
    end
  in
  let put_bytes ~addr data =
    if Bytes.length data = 0 then ()
    else write t ~addr data
  in
  {
    Dbgi.abi = primary.Dbgi.abi;
    get_bytes;
    put_bytes;
    alloc_space =
      (fun size ->
        lockstep t "alloc" (fun rep -> rep.Dbgi.alloc_space size) ( = ));
    call_func =
      (fun name args ->
        lockstep t "call" (fun rep -> rep.Dbgi.call_func name args) cval_eq);
    find_variable = primary.Dbgi.find_variable;
    tenv = primary.Dbgi.tenv;
    frames = (fun () -> read_seq t (fun rep -> rep.Dbgi.frames ()));
    caps =
      {
        Dbgi.c_id = "dispatch";
        c_transport = primary.Dbgi.caps.Dbgi.c_transport;
        c_layers = [ "dispatch" ];
      };
    health = aggregate_health t;
  }
