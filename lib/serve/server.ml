(* A concurrent network debug server: a fleet of targets (one, unless
   relative debugging wants several), many clients, one thread.

   Hanson's follow-up to the narrow debugger interface (MSR-TR-99-4)
   puts that interface on the wire; this module is our serving layer
   over it.  A single [Unix.select] event loop owns every socket:
   listeners (TCP and Unix-domain) plus one connection object per
   client, each with an incremental RSP deframer on the read side and a
   bounded output queue on the write side.  Nothing blocks: reads take
   whatever the kernel has and feed the deframer, writes send what the
   socket accepts and keep the rest queued, and a connection whose
   output queue is over budget simply stops being read until it drains
   (backpressure, instead of unbounded buffering).

   Protocol-wise each connection is an independent RSP exchange against
   its bound target's [Duel_rsp.Server] stub, plus two serve-level
   extensions:
   [qDuelEval:<expr>] runs a whole DUEL command in the connection's own
   [Session] (aliases isolated per client, target shared) and streams
   the formatted results back in chunked [D...] frames ended by a
   [T<count>] frame, so a thin client pays one round-trip per *query*
   instead of one per scalar; [qDuelStats] reports the observability
   counters. *)

module Packet = Duel_rsp.Packet
module Rsp_server = Duel_rsp.Server
module Session = Duel_core.Session
module Bytecode = Duel_core.Bytecode
module Inferior = Duel_target.Inferior
module Fleet = Duel_fleet.Fleet

(* Server-side fault points for chaos testing.  The hook is consulted at
   each point and answers "inject here?"; a deterministic (seeded) hook
   makes a failing schedule replayable.  Every injection is counted in
   the [chaos] stat so a soak run can prove the fault path was actually
   exercised. *)
type fault_point =
  | Accept  (** close an accepted connection before serving it *)
  | Reply_drop  (** swallow an outgoing reply (client must time out) *)
  | Reply_truncate  (** send only a reply prefix (client must NAK) *)
  | Stall_read  (** skip reading a ready connection this step *)
  | Stall_write  (** skip writing a writable connection this step *)

type config = {
  max_conns : int;
  idle_timeout : float;
  max_output : int;
  max_requests : int;
  max_input : int;
  max_eval_values : int;
  eval_chunk : int;
  plan_cache : int;
  limits : Rsp_server.limits;
  fault_hook : (fault_point -> bool) option;
}

let default_config =
  {
    max_conns = 64;
    idle_timeout = 30.0;
    max_output = 1 lsl 20;
    max_requests = 0;
    max_input = 0;
    max_eval_values = 10_000;
    eval_chunk = 32;
    plan_cache = 64;
    limits = Rsp_server.default_limits;
    fault_hook = None;
  }

type stats = {
  mutable accepted : int;
  mutable peak_active : int;
  mutable closed : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable packets : int;
  mutable evals : int;
  mutable eval_values : int;
  mutable faults : int;
  mutable naks : int;
  mutable timeouts : int;
  mutable limited : int;
  mutable chaos : int;
  mutable eval_dups : int;
  mutable plan_hits : int;
  mutable plan_misses : int;
  mutable plan_compiles : int;
  mutable plan_inval : int;
  mutable plan_evict : int;
  hist : Histogram.t;
}

(* One hosted target as this shard sees it: the fleet member (shared
   across shards — lock, generation, counters) plus this shard's own
   cached access interface, RSP stub, and plan-compile context. *)
type slot = {
  sl_target : Fleet.target;
  sl_dbgi : Duel_dbgi.Dbgi.t;
  sl_rsp : Rsp_server.t;
  sl_plan_session : Session.t;  (* dedicated compile context (never evals) *)
}

type conn = {
  fd : Unix.file_descr;
  dfr : Packet.Deframer.t;
  outq : string Queue.t;
  mutable out_off : int;  (* bytes of the front chunk already written *)
  mutable out_bytes : int;
  mutable closing : bool;  (* drain the queue, then close *)
  mutable last_active : float;
  mutable requests : int;
  mutable rx_bytes : int;
  mutable last_reply : string;  (* retransmitted on a client NAK *)
  (* at-most-once bookkeeping for qDuelEvalSeq: a resent request with
     the sequence number we already served replays the stored reply
     without re-executing the command *)
  mutable last_eval_seq : int;  (* -1: none yet *)
  mutable last_eval_reply : string;
  mutable session : Session.t;
  (* the fleet target this connection's session and RSP traffic are
     aimed at; [qDuelUse:<id>] rebinds (fresh session, seq reset) *)
  mutable bound : slot;
}

(* A consistent read of one shard's observable load, for merging. *)
type view = { v_st : stats; v_active : int }

type t = {
  cfg : config;
  (* The cross-shard shutdown flag: [shutdown] raises it, every shard's
     [step] lowers its own sails when it sees it.  A lone server owns a
     private flag, so the behavior is exactly the old [shutting] bool. *)
  stop : bool Atomic.t;
  mutable listeners : (Unix.file_descr * string option) list;
      (* fd, unix-socket path to unlink on close *)
  mutable conns : conn list;
  mutable accepting : bool;
  mutable shutting : bool;
  scratch : bytes;
  st : stats;
  (* Sockets handed to this shard by another domain (a dispatcher or a
     sibling's accept), adopted at the top of the next [step].  The
     wake pipe kicks the shard out of [select] so a hand-off is served
     immediately instead of on the next timeout. *)
  inbox : Unix.file_descr Queue.t;
  inbox_lock : Mutex.t;
  mutable wake : (Unix.file_descr * Unix.file_descr) option;  (* rd, wr *)
  (* When sharded: every shard of the server (self included), so
     qDuelStats answered by any shard reports whole-server numbers and
     a shutdown can wake every sibling's select. *)
  mutable siblings : t list;
  (* the query-plan cache: token-normalized expression text -> compiled
     program.  Domain-safe ({!Plan_cache}); shared across shards.  Keys
     are prefixed with the target id, so twins evaluating one expression
     never share a compiled plan (compiling interns literals into *that*
     target's memory). *)
  plans : Plan_cache.t;
  (* the hosted fleet, shared by every shard; [slots] is this shard's
     per-target view in fleet order *)
  fleet : Fleet.t;
  slots : slot array;
}

let fresh_stats () =
  {
    accepted = 0;
    peak_active = 0;
    closed = 0;
    bytes_in = 0;
    bytes_out = 0;
    packets = 0;
    evals = 0;
    eval_values = 0;
    faults = 0;
    naks = 0;
    timeouts = 0;
    limited = 0;
    chaos = 0;
    eval_dups = 0;
    plan_hits = 0;
    plan_misses = 0;
    plan_compiles = 0;
    plan_inval = 0;
    plan_evict = 0;
    hist = Histogram.create ();
  }

let create ?(config = default_config) ?plans ?stop fleet =
  (* a peer can vanish between select and write; the loop must see that
     as EPIPE on the write, not die of SIGPIPE *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  (* this shard's per-target interfaces: shard-local dcaches over the
     shared (locked) raw targets, one RSP stub and compile context each *)
  let slots =
    Array.of_list
      (List.map
         (fun tg ->
           let d = Fleet.shard_dbgi tg in
           {
             sl_target = tg;
             sl_dbgi = d;
             sl_rsp = Rsp_server.create ~limits:config.limits tg.Fleet.inf;
             sl_plan_session = Session.create d;
           })
         (Fleet.targets fleet))
  in
  let wake_rd, wake_wr = Unix.pipe () in
  Unix.set_nonblock wake_rd;
  Unix.set_nonblock wake_wr;
  {
    cfg = config;
    stop = (match stop with Some a -> a | None -> Atomic.make false);
    listeners = [];
    conns = [];
    accepting = true;
    shutting = false;
    scratch = Bytes.create 65536;
    st = fresh_stats ();
    inbox = Queue.create ();
    inbox_lock = Mutex.create ();
    wake = Some (wake_rd, wake_wr);
    siblings = [];
    plans =
      (match plans with
      | Some p -> p
      | None -> Plan_cache.create config.plan_cache);
    fleet;
    slots;
  }

let stats t = t.st
let active t = List.length t.conns
let set_siblings t all = t.siblings <- all

let find_slot t id =
  Array.find_opt (fun sl -> sl.sl_target.Fleet.id = id) t.slots

(* A fresh session on [sl]'s target, capped as the config says. *)
let session_on t sl =
  let session = Session.create sl.sl_dbgi in
  session.Session.max_values <- t.cfg.max_eval_values;
  session

(* --- listeners ----------------------------------------------------------- *)

let listen_tcp ?(reuseport = false) t ~host ~port =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.setsockopt fd SO_REUSEADDR true;
  (* per-shard accept: every shard binds the same address and the
     kernel load-balances incoming connections across the listeners *)
  if reuseport then Unix.setsockopt fd SO_REUSEPORT true;
  Unix.bind fd (ADDR_INET (Unix.inet_addr_of_string host, port));
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  t.listeners <- (fd, None) :: t.listeners;
  match Unix.getsockname fd with
  | ADDR_INET (_, p) -> p
  | _ -> port

let listen_unix t path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.bind fd (ADDR_UNIX path);
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  t.listeners <- (fd, Some path) :: t.listeners

(* --- connection lifecycle ------------------------------------------------ *)

let new_conn t fd =
  Unix.set_nonblock fd;
  (* small ACK and reply writes must not sit behind Nagle's algorithm
     waiting for a delayed ACK (a no-op on Unix-domain sockets) *)
  (try Unix.setsockopt fd TCP_NODELAY true with Unix.Unix_error _ -> ());
  (* every fresh connection is bound to the first slot; the client
     rebinds with qDuelUse *)
  let bound = t.slots.(0) in
  let session = session_on t bound in
  let c =
    {
      fd;
      dfr = Packet.Deframer.create ();
      outq = Queue.create ();
      out_off = 0;
      out_bytes = 0;
      closing = false;
      last_active = Unix.gettimeofday ();
      requests = 0;
      rx_bytes = 0;
      last_reply = "";
      last_eval_seq = -1;
      last_eval_reply = "";
      session;
      bound;
    }
  in
  t.conns <- c :: t.conns;
  t.st.accepted <- t.st.accepted + 1;
  t.st.peak_active <- max t.st.peak_active (List.length t.conns);
  c

let inject t fd = ignore (new_conn t fd)

(* --- cross-domain hand-off ----------------------------------------------- *)

(* The inbox lock also guards the wake pipe's lifetime: a sibling
   domain waking this shard must not race the shard closing the pipe
   (a closed-and-reused fd number would receive the byte). *)
let wake t =
  Mutex.protect t.inbox_lock (fun () ->
      match t.wake with
      | Some (_, wr) -> (
          try ignore (Unix.write_substring wr "w" 0 1)
          with Unix.Unix_error _ -> ())
      | None -> ())

(* Hand an accepted socket to this shard from another domain: enqueue
   under the inbox lock, then kick the shard out of its [select].  The
   fd is owned by the shard from here on (adopted or closed at the top
   of its next step).  A shard that has already fully shut down (wake
   pipe gone) cannot adopt — close the socket instead of leaking it. *)
let hand_off t fd =
  let adopted =
    Mutex.protect t.inbox_lock (fun () ->
        match t.wake with
        | None -> false
        | Some (_, wr) ->
            Queue.push fd t.inbox;
            (try ignore (Unix.write_substring wr "w" 0 1)
             with Unix.Unix_error _ -> ());
            true)
  in
  if not adopted then try Unix.close fd with Unix.Unix_error _ -> ()

(* Adopt everything handed to us since the last step.  Runs in the
   shard's own domain; respects the same capacity/shutdown rules as
   [accept_some]. *)
let drain_inbox t =
  let pending =
    Mutex.protect t.inbox_lock (fun () ->
        let l = List.of_seq (Queue.to_seq t.inbox) in
        Queue.clear t.inbox;
        l)
  in
  List.iter
    (fun fd ->
      if (not t.accepting) || List.length t.conns >= t.cfg.max_conns then begin
        t.st.limited <- t.st.limited + 1;
        try Unix.close fd with Unix.Unix_error _ -> ()
      end
      else ignore (new_conn t fd))
    pending

let drop t c =
  if List.memq c t.conns then begin
    t.conns <- List.filter (fun c' -> not (c' == c)) t.conns;
    t.st.closed <- t.st.closed + 1;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

(* --- output queue -------------------------------------------------------- *)

let enqueue c s =
  if s <> "" then begin
    Queue.push s c.outq;
    c.out_bytes <- c.out_bytes + String.length s
  end

(* Write as much queued output as the socket accepts right now. *)
let rec write_some t c =
  if not (Queue.is_empty c.outq) then begin
    let front = Queue.peek c.outq in
    let len = String.length front - c.out_off in
    match
      Unix.write_substring c.fd front c.out_off len
    with
    | n ->
        c.out_bytes <- c.out_bytes - n;
        t.st.bytes_out <- t.st.bytes_out + n;
        c.last_active <- Unix.gettimeofday ();
        if n = len then begin
          ignore (Queue.pop c.outq);
          c.out_off <- 0;
          write_some t c
        end
        else c.out_off <- c.out_off + n
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) ->
        drop t c
  end

(* --- request dispatch ---------------------------------------------------- *)

let frame = Packet.encode

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let after p s = String.sub s (String.length p) (String.length s - String.length p)

(* --- the shared query-plan cache ----------------------------------------- *)

(* Plans are keyed by the command's *token stream*, not its text: the
   lexer is the normalizer, so two spellings differing only in
   whitespace (or trailing comments) share one compiled program.  A
   string that does not even lex falls through to [Session.exec], which
   owns the error message. *)
let plan_key dbgi expr =
  match
    Duel_core.Lexer.tokenize ~abi:dbgi.Duel_dbgi.Dbgi.abi expr
    |> List.map fst
  with
  | toks -> Some (Marshal.to_string toks [])
  | exception _ -> None

(* Parse + lower + compile in the given dedicated plan session.
   Anything that fails here (parse error, lowering limit) is [None]:
   the caller falls through to the interpreter path, which reports the
   failure the same way a planless server would. *)
let plan_compile session expr =
  match
    Duel_core.Compile.compile
      (Session.compile session (Session.parse session expr))
  with
  | prog -> Some prog
  | exception _ -> None

(* Look up (or build) the plan for [expr] in the (possibly shared,
   always domain-safe) {!Plan_cache}, against one slot's target: the key
   is namespaced by target id (fleet twins must never share a plan —
   compiling interns literals into that target's memory), and the entry
   is stamped with that target's write-generation.  The generation is
   re-read *after* a compile: compiling may itself intern string
   literals into target space, and a plan must not be born already
   stale.  Cache outcomes land in this shard's own counters; two shards
   racing to compile the same key both count a compile and the later
   store wins — wasted work at worst, never a wrong plan. *)
let plan_lookup t sl expr =
  let gen () = Fleet.generation sl.sl_target in
  if not (Plan_cache.enabled t.plans) then None
  else
    match plan_key sl.sl_dbgi expr with
    | None -> None
    | Some key -> (
        let key = sl.sl_target.Fleet.id ^ "\x00" ^ key in
        match Plan_cache.find t.plans ~key ~gen:(gen ()) with
        | Plan_cache.Hit prog ->
            t.st.plan_hits <- t.st.plan_hits + 1;
            Some prog
        | (Plan_cache.Stale | Plan_cache.Absent) as missed -> (
            if missed = Plan_cache.Stale then
              t.st.plan_inval <- t.st.plan_inval + 1;
            t.st.plan_misses <- t.st.plan_misses + 1;
            match plan_compile sl.sl_plan_session expr with
            | None -> None
            | Some prog ->
                t.st.plan_compiles <- t.st.plan_compiles + 1;
                t.st.plan_evict <-
                  t.st.plan_evict
                  + Plan_cache.store t.plans ~key ~gen:(gen ()) prog;
                Some prog))

(* Target-printed output (printf goes to the server process; the client
   deserves to see it), as trailing lines. *)
let printed_lines out =
  String.split_on_char '\n' out |> List.filter (fun l -> l <> "")

(* Error classification for per-target counters: does this output line
   report a failure rather than a value?  Matches the fixed prefixes
   [Session.exec]'s error mapping emits. *)
let line_is_error l =
  let pre p = has_prefix p l in
  pre "syntax error" || pre "parse error"
  || pre "Illegal memory reference"
  || pre "Transient target fault"
  || pre "evaluation too deep"

(* The one leg evaluator, for a connection's own session and for each
   fan-out leg: the lines [expr] yields in [session] against slot [sl]'s
   target — the session's formatted output plus anything the target
   printed — counted against that target.  A cached plan runs on the VM
   (cloned first, so slot state stays per-session); everything else
   takes the ordinary interpreter path. *)
let eval_in t sl session expr =
  let tg = sl.sl_target in
  let lines =
    match plan_lookup t sl expr with
    | Some prog -> Session.exec_program session (Bytecode.clone prog)
    | None -> Session.exec session expr
  in
  let lines =
    match
      Mutex.protect tg.Fleet.lock (fun () -> Inferior.take_output tg.Fleet.inf)
    with
    | "" -> lines
    | out -> lines @ printed_lines out
  in
  Fleet.note_eval tg ~values:(List.length lines)
    ~error:(List.exists line_is_error lines);
  lines

let chunked chunk lines =
  let rec go acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | l :: rest ->
        if n >= chunk then go (List.rev cur :: acc) [ l ] 1 rest
        else go acc (l :: cur) (n + 1) rest
  in
  go [] [] 0 lines

(* Counter-wise sum into a fresh stats record — the counters-merge half
   of qDuelStats aggregation (the histogram half is {!Histogram.merge}).
   [peak_active] sums: per-shard peaks are not simultaneous, so the sum
   is an upper bound on the whole-server peak, which is the honest
   direction for a capacity counter.  Neither input is mutated; merging
   a foreign shard's live record reads each field once (immediate
   values never tear across domains, they can only be a step stale). *)
let merge_stats a b =
  {
    accepted = a.accepted + b.accepted;
    peak_active = a.peak_active + b.peak_active;
    closed = a.closed + b.closed;
    bytes_in = a.bytes_in + b.bytes_in;
    bytes_out = a.bytes_out + b.bytes_out;
    packets = a.packets + b.packets;
    evals = a.evals + b.evals;
    eval_values = a.eval_values + b.eval_values;
    faults = a.faults + b.faults;
    naks = a.naks + b.naks;
    timeouts = a.timeouts + b.timeouts;
    limited = a.limited + b.limited;
    chaos = a.chaos + b.chaos;
    eval_dups = a.eval_dups + b.eval_dups;
    plan_hits = a.plan_hits + b.plan_hits;
    plan_misses = a.plan_misses + b.plan_misses;
    plan_compiles = a.plan_compiles + b.plan_compiles;
    plan_inval = a.plan_inval + b.plan_inval;
    plan_evict = a.plan_evict + b.plan_evict;
    hist = Histogram.merge a.hist b.hist;
  }

let view t = { v_st = t.st; v_active = List.length t.conns }

let merge_views a b =
  { v_st = merge_stats a.v_st b.v_st; v_active = a.v_active + b.v_active }

(* What a stats request reports: this shard alone when standalone, the
   merged whole when sharded — any shard answers for the server. *)
let merged_view t =
  match t.siblings with
  | [] -> view t
  | s :: ss -> List.fold_left (fun acc s' -> merge_views acc (view s')) (view s) ss

(* Per-target counters on the stats wire: [tgt.<id>.<counter>=<n>;…].
   The atomics live in the shared fleet, already whole-server numbers —
   read once here, never summed across shards (unlike the per-shard
   records {!merged_view} folds). *)
let tgt_wire t =
  String.concat ""
    (List.map
       (fun tg ->
         let s = tg.Fleet.tstats in
         Printf.sprintf
           "tgt.%s.binds=%d;tgt.%s.evals=%d;tgt.%s.values=%d;tgt.%s.errors=%d;"
           tg.Fleet.id
           (Atomic.get s.Fleet.binds)
           tg.Fleet.id
           (Atomic.get s.Fleet.evals)
           tg.Fleet.id
           (Atomic.get s.Fleet.values)
           tg.Fleet.id
           (Atomic.get s.Fleet.errors))
       (Fleet.targets t.fleet))

let stats_wire t =
  let { v_st = st; v_active } = merged_view t in
  Printf.sprintf
    "accepted=%d;active=%d;peak=%d;closed=%d;packets=%d;evals=%d;eval_values=%d;faults=%d;naks=%d;timeouts=%d;limited=%d;chaos=%d;eval_dups=%d;plan_hits=%d;plan_misses=%d;plan_compiles=%d;plan_inval=%d;plan_evict=%d;bytes_in=%d;bytes_out=%d;%s%s"
    st.accepted v_active st.peak_active st.closed st.packets st.evals
    st.eval_values st.faults st.naks st.timeouts st.limited st.chaos
    st.eval_dups st.plan_hits st.plan_misses st.plan_compiles st.plan_inval
    st.plan_evict st.bytes_in st.bytes_out (tgt_wire t)
    (Histogram.to_wire st.hist)

let stats_to_lines t =
  let { v_st = st; v_active } = merged_view t in
  [
    Printf.sprintf "connections: %d active (peak %d), %d accepted, %d closed"
      v_active st.peak_active st.accepted st.closed;
    Printf.sprintf
      "traffic: %d packets (%d faults, %d naks), %d bytes in, %d bytes out"
      st.packets st.faults st.naks st.bytes_in st.bytes_out;
    Printf.sprintf "evals: %d queries, %d values streamed" st.evals
      st.eval_values;
    Printf.sprintf "lifecycle: %d idle timeouts, %d limit rejections"
      st.timeouts st.limited;
    Printf.sprintf "chaos: %d injected server faults, %d eval replays deduped"
      st.chaos st.eval_dups;
    Printf.sprintf
      "plan cache: %d resident, %d hits, %d misses (%d compiles), %d \
       invalidated, %d evicted"
      (Plan_cache.resident t.plans)
      st.plan_hits st.plan_misses st.plan_compiles st.plan_inval st.plan_evict;
  ]
  @ List.map
      (fun tg ->
        let s = tg.Fleet.tstats in
        Printf.sprintf "target %s (%s): %d binds, %d evals, %d values, %d errors"
          tg.Fleet.id tg.Fleet.spec (Atomic.get s.Fleet.binds)
          (Atomic.get s.Fleet.evals)
          (Atomic.get s.Fleet.values)
          (Atomic.get s.Fleet.errors))
      (Fleet.targets t.fleet)
  @ Histogram.to_lines st.hist

(* Raise the shared stop flag: every shard holding this [stop] (itself
   included) begins a graceful drain on its next step.  The wake keeps
   a quiescent peer from sleeping out its select timeout first. *)
let shutdown t =
  t.accepting <- false;
  Atomic.set t.stop true;
  wake t;
  List.iter wake t.siblings

let fault t point =
  match t.cfg.fault_hook with
  | None -> false
  | Some hook ->
      let hit = hook point in
      if hit then t.st.chaos <- t.st.chaos + 1;
      hit

(* qDuelEvalSeq:<seq>[,<budget-ms>];<expr> — the resend-safe eval form.

   Evaluation is not idempotent (a query may store through the target or
   call a target function), so a client whose reply was lost cannot
   blindly resend a plain [qDuelEval:].  The sequence number makes the
   resend safe: the server keeps the last served (seq, reply) per
   connection and replays the stored reply, without re-executing, when
   the same seq arrives again.  Replies are tagged with the seq — data
   chunks [D<seq>,<idx>;...], terminal [T<seq>,<count>], typed failure
   [F<seq>;<msg>] — so the client can discard stale frames from an
   abandoned earlier exchange and de-duplicate chunks.  The optional
   budget is the client's remaining deadline in milliseconds; a request
   arriving with no budget left fails typed ([F<seq>;deadline]) instead
   of burning target time on an answer nobody is waiting for. *)
let eval_seq t c spec =
  match String.index_opt spec ';' with
  | None -> frame "E00"
  | Some semi -> (
      let head = String.sub spec 0 semi in
      let expr = String.sub spec (semi + 1) (String.length spec - semi - 1) in
      let seq_s, budget =
        match String.index_opt head ',' with
        | None -> (head, None)
        | Some comma ->
            ( String.sub head 0 comma,
              Some
                (String.sub head (comma + 1) (String.length head - comma - 1))
            )
      in
      match int_of_string_opt ("0x" ^ seq_s) with
      | None -> frame "E00"
      | Some seq when seq < 0 -> frame "E00"
      | Some seq ->
          if seq = c.last_eval_seq then begin
            t.st.eval_dups <- t.st.eval_dups + 1;
            c.last_eval_reply
          end
          else
            let budget_ms =
              match budget with
              | None -> None
              | Some b -> (
                  match int_of_string_opt ("0x" ^ b) with
                  | None -> Some (-1) (* unparsable budget: treat as spent *)
                  | some -> some)
            in
            let reply =
              match budget_ms with
              | Some ms when ms <= 0 -> frame (Printf.sprintf "F%x;deadline" seq)
              | _ ->
                  t.st.evals <- t.st.evals + 1;
                  let lines = eval_in t c.bound c.session expr in
                  t.st.eval_values <- t.st.eval_values + List.length lines;
                  let chunks = chunked t.cfg.eval_chunk lines in
                  String.concat ""
                    (List.mapi
                       (fun i ls ->
                         frame
                           (Printf.sprintf "D%x,%x;%s" seq i
                              (String.concat "\n" ls)))
                       chunks)
                  ^ frame (Printf.sprintf "T%x,%x" seq (List.length lines))
            in
            c.last_eval_seq <- seq;
            c.last_eval_reply <- reply;
            reply)

(* qDuelUse:<id> — rebind the connection to another fleet target.  A
   fresh session (aliases and scopes are per-target state; carrying
   them across targets would alias one target's interned addresses into
   another) and a reset eval-seq window (stored replies belong to the
   old target).  An unknown id is the typed E03. *)
let use_target t c id =
  match find_slot t id with
  | None -> frame "E03"
  | Some sl ->
      c.session <- session_on t sl;
      c.bound <- sl;
      c.last_eval_seq <- -1;
      c.last_eval_reply <- "";
      Fleet.note_bind sl.sl_target;
      frame "OK"

(* One target's leg of a fan-out: evaluate in an ephemeral session (the
   fan-out must not disturb the connection's bound session, and aliases
   defined inside the expression are scoped to the leg), stream as
   tagged chunks [R<id>,<idx>;…] closed by [Z<id>,<count>].  Errors are
   isolated per leg twice over: [Session.exec] maps evaluation and
   transport failures to output lines (a dead target reports its
   transient fault inside its own R/Z stream), and anything that still
   escapes becomes that leg's [X<id>;msg] — never the fan-out's. *)
let eval_slot t sl expr =
  let id = sl.sl_target.Fleet.id in
  match eval_in t sl (session_on t sl) expr with
  | lines ->
      t.st.eval_values <- t.st.eval_values + List.length lines;
      let chunks = chunked t.cfg.eval_chunk lines in
      String.concat ""
        (List.mapi
           (fun i ls ->
             frame (Printf.sprintf "R%s,%x;%s" id i (String.concat "\n" ls)))
           chunks)
      ^ frame (Printf.sprintf "Z%s,%x" id (List.length lines))
  | exception e ->
      Fleet.note_eval sl.sl_target ~values:0 ~error:true;
      frame (Printf.sprintf "X%s;%s" id (Printexc.to_string e))

(* qDuelEvalAll:<ids|*>;<expr> — evaluate one expression across fleet
   targets.  Legs run in request order on this shard; concurrency comes
   from other shards running *their* fan-outs against other targets at
   the same time (the locks are per-target).  Unknown ids get an [X]
   leg; the terminal [T<count>] counts every leg, so the client can
   verify nothing was silently dropped.  Not resend-safe (use the
   per-target qDuelEvalSeq for that). *)
let eval_all t spec =
  match String.index_opt spec ';' with
  | None -> frame "E00"
  | Some semi -> (
      let ids_s = String.sub spec 0 semi in
      let expr = String.sub spec (semi + 1) (String.length spec - semi - 1) in
      let legs =
        if String.trim ids_s = "*" then
          Array.to_list t.slots |> List.map (fun sl -> Ok sl)
        else
          String.split_on_char ',' ids_s
          |> List.map String.trim
          |> List.filter (fun id -> id <> "")
          |> List.map (fun id -> Option.to_result ~none:id (find_slot t id))
      in
      if legs = [] then frame "E00"
      else begin
        t.st.evals <- t.st.evals + 1;
        String.concat ""
          (List.map
             (function
               | Ok sl -> eval_slot t sl expr
               | Error id -> frame (Printf.sprintf "X%s;unknown target" id))
             legs)
        ^ frame (Printf.sprintf "T%x" (List.length legs))
      end)

(* Process one complete, valid request frame.  Returns the reply text
   (one or more frames, already encoded and concatenated). *)
let dispatch t c payload =
  if payload = "qDuelStats" then frame (stats_wire t)
  else if payload = "qDuelShutdown" then begin
    shutdown t;
    frame "OK"
  end
  else if payload = "qDuelTargets" then frame (Fleet.describe t.fleet)
  else if has_prefix "qDuelUse:" payload then
    use_target t c (after "qDuelUse:" payload)
  else if has_prefix "qDuelEvalAll:" payload then
    eval_all t (after "qDuelEvalAll:" payload)
  else if has_prefix "qDuelEvalSeq:" payload then
    eval_seq t c (after "qDuelEvalSeq:" payload)
  else if has_prefix "qDuelEval:" payload then begin
    t.st.evals <- t.st.evals + 1;
    let lines = eval_in t c.bound c.session (after "qDuelEval:" payload) in
    t.st.eval_values <- t.st.eval_values + List.length lines;
    let chunks = chunked t.cfg.eval_chunk lines in
    String.concat ""
      (List.map (fun ls -> frame ("D" ^ String.concat "\n" ls)) chunks)
    ^ frame (Printf.sprintf "T%x" (List.length lines))
  end
  else
    (* plain RSP traffic: memory, allocation, calls, frames, handshake —
       aimed at the connection's bound target, under that target's lock *)
    Mutex.protect c.bound.sl_target.Fleet.lock (fun () ->
        Rsp_server.reply_frame c.bound.sl_rsp payload)

let handle_event t c = function
  | Packet.Deframer.Ack -> ()
  | Packet.Deframer.Nak ->
      (* the client rejected our reply: retransmit it *)
      t.st.naks <- t.st.naks + 1;
      enqueue c c.last_reply
  | Packet.Deframer.Bad _ ->
      (* damaged frame: NAK it; the deframer has already resynced *)
      t.st.faults <- t.st.faults + 1;
      enqueue c "-"
  | Packet.Deframer.Frame payload ->
      c.requests <- c.requests + 1;
      let over_requests =
        t.cfg.max_requests > 0 && c.requests > t.cfg.max_requests
      in
      let over_input = t.cfg.max_input > 0 && c.rx_bytes > t.cfg.max_input in
      if over_requests || over_input then begin
        (* budget exhausted: final error reply, then drain and close *)
        t.st.limited <- t.st.limited + 1;
        enqueue c "+";
        enqueue c (frame "E02");
        c.closing <- true
      end
      else begin
        t.st.packets <- t.st.packets + 1;
        enqueue c "+";
        let t0 = Unix.gettimeofday () in
        let reply = dispatch t c payload in
        Histogram.add t.st.hist (Unix.gettimeofday () -. t0);
        c.last_reply <- reply;
        (* chaos fault points on the reply path.  [last_reply] is set
           first in both cases, so the normal recovery machinery (NAK
           retransmit for a truncated reply, timed-out resend + seq
           replay for a dropped one) is what gets exercised. *)
        if fault t Reply_drop then ()
        else if fault t Reply_truncate then
          enqueue c (String.sub reply 0 (String.length reply / 2))
        else enqueue c reply
      end

let read_some t c =
  match Unix.read c.fd t.scratch 0 (Bytes.length t.scratch) with
  | 0 ->
      (* EOF: no more requests will come; drain what we owe, then close *)
      c.closing <- true;
      if c.out_bytes = 0 then drop t c
  | n ->
      c.last_active <- Unix.gettimeofday ();
      c.rx_bytes <- c.rx_bytes + n;
      t.st.bytes_in <- t.st.bytes_in + n;
      List.iter (handle_event t c) (Packet.Deframer.feed c.dfr t.scratch 0 n)
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error ((ECONNRESET | EPIPE | EBADF), _, _) -> drop t c

let accept_some t lfd =
  let rec go () =
    match Unix.accept lfd with
    | fd, _ ->
        if List.length t.conns >= t.cfg.max_conns then begin
          t.st.limited <- t.st.limited + 1;
          try Unix.close fd with Unix.Unix_error _ -> ()
        end
        else if fault t Accept then begin
          (* the connection dies before its first byte is served — the
             client sees a clean EOF and must treat it as retriable *)
          (try Unix.close fd with Unix.Unix_error _ -> ());
          go ()
        end
        else begin
          ignore (new_conn t fd);
          go ()
        end
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  in
  go ()

(* --- the loop ------------------------------------------------------------ *)

let close_listeners t =
  List.iter
    (fun (fd, path) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      match path with
      | Some p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
      | None -> ())
    t.listeners;
  t.listeners <- [];
  (* nothing further will be handed off; close stragglers and the pipe
     (under the inbox lock, so a sibling's late [wake]/[hand_off] sees
     [None] instead of a recycled fd number) *)
  Mutex.protect t.inbox_lock (fun () ->
      Queue.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        t.inbox;
      Queue.clear t.inbox;
      (match t.wake with
      | Some (rd, wr) ->
          (try Unix.close rd with Unix.Unix_error _ -> ());
          (try Unix.close wr with Unix.Unix_error _ -> ())
      | None -> ());
      t.wake <- None)

(* One event-loop iteration: select with [timeout], then accept / read /
   write / reap.  Returns [false] once a shutdown has fully drained —
   the [run] loop's exit condition. *)
let step t timeout =
  (* the stop flag may have been raised by any sibling shard (or a
     signal handler); it is the one cross-domain control signal *)
  if Atomic.get t.stop then t.shutting <- true;
  if t.shutting then begin
    t.accepting <- false;
    (* graceful: no new requests, but every queued reply still drains *)
    List.iter (fun c -> c.closing <- true) t.conns
  end;
  (* adopt sockets handed over by other domains since the last step *)
  drain_inbox t;
  let can_accept =
    t.accepting && List.length t.conns < t.cfg.max_conns
  in
  let rd_listen = if can_accept then List.map fst t.listeners else [] in
  let rd_wake = match t.wake with Some (rd, _) -> [ rd ] | None -> [] in
  (* chaos stall decisions, one per connection per step, shared by the
     select sets and the opportunistic flush below *)
  let stalled_read = List.filter (fun _ -> fault t Stall_read) t.conns in
  let stalled_write = List.filter (fun _ -> fault t Stall_write) t.conns in
  let rd_conns =
    List.filter
      (fun c ->
        (not c.closing)
        && c.out_bytes <= t.cfg.max_output
        && not (List.memq c stalled_read))
      t.conns
  in
  let wr_conns =
    List.filter
      (fun c -> c.out_bytes > 0 && not (List.memq c stalled_write))
      t.conns
  in
  let rds = rd_wake @ rd_listen @ List.map (fun c -> c.fd) rd_conns in
  let wrs = List.map (fun c -> c.fd) wr_conns in
  (match Unix.select rds wrs [] timeout with
  | rready, wready, _ ->
      (* a wake byte means "look again now": drain it (edge, not level)
         and pick up whatever was handed off while we slept *)
      (match t.wake with
      | Some (rd, _) when List.mem rd rready ->
          let junk = Bytes.create 64 in
          let rec drain () =
            match Unix.read rd junk 0 64 with
            | 64 -> drain ()
            | _ -> ()
            | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _)
              ->
                ()
          in
          drain ();
          drain_inbox t
      | _ -> ());
      List.iter
        (fun lfd -> if List.mem lfd rready then accept_some t lfd)
        rd_listen;
      List.iter
        (fun c -> if List.mem c.fd rready then read_some t c)
        rd_conns;
      List.iter
        (fun c -> if List.mem c.fd wready then write_some t c)
        wr_conns
  | exception Unix.Unix_error (EINTR, _, _) -> ());
  (* opportunistic flush: replies produced by this step's reads *)
  List.iter
    (fun c ->
      if c.out_bytes > 0 && not (List.memq c stalled_write) then
        write_some t c)
    t.conns;
  (* drained closing connections can go *)
  List.iter
    (fun c -> if c.closing && c.out_bytes = 0 then drop t c)
    t.conns;
  (* the reaper: anything silent past the idle timeout *)
  if t.cfg.idle_timeout > 0.0 then begin
    let now = Unix.gettimeofday () in
    List.iter
      (fun c ->
        if now -. c.last_active > t.cfg.idle_timeout then begin
          t.st.timeouts <- t.st.timeouts + 1;
          drop t c
        end)
      t.conns
  end;
  if t.shutting && t.conns = [] then begin
    close_listeners t;
    false
  end
  else true

let run t = while step t 0.2 do () done
