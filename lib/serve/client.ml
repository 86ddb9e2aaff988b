(* The network side of a thin DUEL client: a non-blocking socket, an
   incremental deframer for replies, and the retransmit half of the
   ACK/NAK discipline.  On top of the raw exchange it offers the two
   serve-level calls (qDuelEval, qDuelStats) and a [Dbgi.t] built from
   [Duel_rsp.Client.connect] — the gdb model: symbols and types come
   from local debug information, live process state from the wire.

   Failure policy: every wait has a deadline, so a dead or wedged server
   produces a typed [Error], never a hang.  A reply that does not
   arrive within [reply_timeout] is retried with exponential backoff —
   but only when resending cannot double-execute: memory reads/writes
   and queries are idempotent, evaluation is resent via the
   sequence-numbered [qDuelEvalSeq] form the server deduplicates, and
   anything else (alloc, call) fails cleanly instead of resending. *)

module Packet = Duel_rsp.Packet
module Dbgi = Duel_dbgi.Dbgi
module Dcache = Duel_dbgi.Dcache

(* Typed failures: a dispatcher or retry layer must be able to tell "the
   replica is unreachable" (trip it, fail over) from "the server answered
   and the answer is bad" (authoritative, propagate).  Raw [Failure]
   cannot carry that distinction. *)
type failure =
  | Connect of string  (* establishing the connection failed *)
  | Closed of string  (* the peer is gone: EOF, reset, broken pipe *)
  | Timeout of string  (* a deadline expired, retries included *)
  | Protocol of string  (* persistent NAKs or frames that defy the protocol *)
  | Remote of string  (* the server executed the request and reported failure *)
  | Unknown_target of string  (* the fleet has no target with this id *)

exception Error of failure

let failure_message = function
  | Connect m | Closed m | Timeout m | Protocol m | Remote m -> m
  | Unknown_target id -> "serve: no such target: " ^ id

let is_transport = function
  | Connect _ | Closed _ | Timeout _ | Protocol _ -> true
  (* the server answered: authoritative, retrying elsewhere won't help *)
  | Remote _ | Unknown_target _ -> false

let fail f = raise (Error f)

let () =
  Printexc.register_printer (function
    | Error f -> Some ("Duel_serve.Client.Error: " ^ failure_message f)
    | _ -> None)

type retry_policy = {
  attempts : int;  (** total send attempts per request, including the first *)
  reply_timeout : float;  (** seconds to wait for a reply per attempt *)
  base_backoff : float;  (** seconds before the first resend *)
  max_backoff : float;  (** cap on the exponential growth *)
  jitter : float;  (** fraction of the delay randomised away, [0..1] *)
}

let default_retry =
  {
    attempts = 8;
    reply_timeout = 2.0;
    base_backoff = 0.02;
    max_backoff = 0.5;
    jitter = 0.5;
  }

type counters = {
  mutable resends : int;  (** requests retransmitted after a reply timeout *)
  mutable timeouts : int;  (** reply waits that expired *)
  mutable naks_sent : int;  (** damaged reply frames we NAKed *)
  mutable naks_seen : int;  (** server NAKs of our (damaged) requests *)
  mutable dup_frames : int;  (** stale or duplicate reply frames discarded *)
}

type t = {
  fd : Unix.file_descr;
  dfr : Packet.Deframer.t;
  mutable events : Packet.Deframer.event list;  (* parsed, unconsumed *)
  pump : (unit -> unit) option;
      (* cooperative driver: called instead of blocking in select when
         the server runs in this very process (tests, benchmarks) *)
  timeout : float;  (* overall per-operation deadline *)
  retry : retry_policy;
  ctr : counters;
  mutable jitter_state : int64;  (* tiny xorshift for backoff jitter *)
  scratch : bytes;
  mutable caches : Dbgi.t list;  (* data caches to stale-mark on evals *)
  mutable last_frame_count : int;
  mutable next_seq : int;  (* qDuelEvalSeq sequence numbers *)
  mutable eval_pending : (int * string * float) option;
      (* seq, expr, overall deadline of the eval in flight *)
}

let of_fd ?pump ?(timeout = 30.0) ?(retry = default_retry) fd =
  (* the server may close first (shutdown, budgets, reaper); a write
     to the dead socket must raise EPIPE, not kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  Unix.set_nonblock fd;
  (* request frames are small; they must leave immediately, not wait in
     Nagle's buffer for the previous packet's delayed ACK *)
  (try Unix.setsockopt fd TCP_NODELAY true with Unix.Unix_error _ -> ());
  {
    fd;
    dfr = Packet.Deframer.create ();
    events = [];
    pump;
    timeout;
    retry;
    ctr =
      { resends = 0; timeouts = 0; naks_sent = 0; naks_seen = 0; dup_frames = 0 };
    jitter_state = 0x2545f4914f6cdd1dL;
    scratch = Bytes.create 8192;
    caches = [];
    last_frame_count = -1;
    next_seq = 1;
    eval_pending = None;
  }

let counters t = t.ctr

let parse_addr addr =
  if String.length addr > 5 && String.sub addr 0 5 = "unix:" then
    Unix.ADDR_UNIX (String.sub addr 5 (String.length addr - 5))
  else
    let host, port =
      match String.rindex_opt addr ':' with
      | Some i ->
          ( String.sub addr 0 i,
            String.sub addr (i + 1) (String.length addr - i - 1) )
      | None -> ("127.0.0.1", addr)
    in
    let host = if host = "" || host = "localhost" then "127.0.0.1" else host in
    let port =
      match int_of_string_opt port with
      | Some p -> p
      | None -> fail (Connect ("serve: bad port in address " ^ addr))
    in
    let ip =
      try Unix.inet_addr_of_string host
      with Failure _ -> (
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found -> fail (Connect ("serve: unknown host " ^ host)))
    in
    Unix.ADDR_INET (ip, port)

let connect ?pump ?timeout ?retry addr =
  let sockaddr = parse_addr addr in
  let domain = Unix.domain_of_sockaddr sockaddr in
  let fd = Unix.socket domain SOCK_STREAM 0 in
  (try Unix.connect fd sockaddr
   with Unix.Unix_error (e, _, _) ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     fail
       (Connect
          (Printf.sprintf "serve: connect %s: %s" addr (Unix.error_message e))));
  of_fd ?pump ?timeout ?retry fd

let close t =
  (* release buffered writes while the socket is still alive, and drop
     this client's caches from the registries *)
  List.iter (fun d -> try Dcache.release d with _ -> ()) t.caches;
  t.caches <- [];
  try Unix.close t.fd with Unix.Unix_error _ -> ()

(* --- backoff ------------------------------------------------------------- *)

let jitter_draw t =
  (* xorshift64*: cheap, local, no global Random state *)
  let x = t.jitter_state in
  let x = Int64.logxor x (Int64.shift_left x 13) in
  let x = Int64.logxor x (Int64.shift_right_logical x 7) in
  let x = Int64.logxor x (Int64.shift_left x 17) in
  t.jitter_state <- x;
  Int64.to_float (Int64.shift_right_logical x 11) /. 9007199254740992.0

let backoff_delay t ~attempt =
  let p = t.retry in
  let scaled = p.base_backoff *. (2. ** float_of_int (attempt - 1)) in
  let capped = Float.min p.max_backoff scaled in
  capped *. (1. -. (p.jitter *. jitter_draw t))

let backoff_wait t ~attempt =
  match t.pump with
  | Some pump ->
      (* sleeping would stall the in-process server we are waiting on;
         give it cycles instead of wall time *)
      pump ()
  | None -> Unix.sleepf (backoff_delay t ~attempt)

(* --- byte plumbing ------------------------------------------------------- *)

(* Wait for the transport (or pump the in-process server).  [false]
   means the deadline passed — every caller turns that into a typed
   failure or a retry, never a spin. *)
let wait_io t ~write deadline =
  let left = deadline -. Unix.gettimeofday () in
  if left <= 0.0 then false
  else begin
    (match t.pump with
    | Some pump -> pump ()
    | None ->
        let rds = if write then [] else [ t.fd ] in
        let wrs = if write then [ t.fd ] else [] in
        ignore (Unix.select rds wrs [] (Float.min left 0.2)));
    true
  end

let send_all t s =
  let deadline = Unix.gettimeofday () +. t.timeout in
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring t.fd s off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
          if wait_io t ~write:true deadline then go off
          else fail (Timeout "serve: timed out sending to the server")
      | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) ->
          fail (Closed "serve: connection closed by server")
  in
  go 0

(* The next deframed event before [deadline], reading (or pumping the
   in-process server) as needed; [None] on deadline. *)
let next_event_opt t deadline =
  let rec go () =
    match t.events with
    | e :: rest ->
        t.events <- rest;
        Some e
    | [] -> (
        match Unix.read t.fd t.scratch 0 (Bytes.length t.scratch) with
        | 0 -> fail (Closed "serve: connection closed by server")
        | n ->
            t.events <- Packet.Deframer.feed t.dfr t.scratch 0 n;
            go ()
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
            if wait_io t ~write:false deadline then go () else None
        | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) ->
            fail (Closed "serve: connection reset by server"))
  in
  go ()

(* Discard whatever is already buffered or immediately readable.  Called
   at the start of each operation: with at most one request in flight
   per connection, anything still queued at that point is a stale reply
   (e.g. the late answer to a request we already resent and completed)
   and must not be mistaken for the new reply. *)
let drain_stale t =
  let rec slurp () =
    match Unix.read t.fd t.scratch 0 (Bytes.length t.scratch) with
    | 0 -> () (* let the operation itself report EOF *)
    | n ->
        t.events <- t.events @ Packet.Deframer.feed t.dfr t.scratch 0 n;
        slurp ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> ()
  in
  slurp ();
  List.iter
    (function
      | Packet.Deframer.Frame _ -> t.ctr.dup_frames <- t.ctr.dup_frames + 1
      | _ -> ())
    t.events;
  t.events <- []

(* --- the exchange -------------------------------------------------------- *)

(* Await one reply frame before [deadline], skipping server ACKs; a
   damaged reply is NAKed so the server retransmits.  [`Timeout] leaves
   the decision (resend or fail) to the caller. *)
let rec await_reply t deadline =
  match next_event_opt t deadline with
  | None -> `Timeout
  | Some Packet.Deframer.Ack -> await_reply t deadline
  | Some Packet.Deframer.Nak -> `Nak
  | Some (Packet.Deframer.Bad _) ->
      t.ctr.naks_sent <- t.ctr.naks_sent + 1;
      send_all t "-";
      await_reply t deadline
  | Some (Packet.Deframer.Frame p) -> `Frame p

(* May this framed request be retransmitted when the reply timed out?
   Only when a resend cannot execute twice: the reply may have been
   computed and lost, so the server might see the request again.
   Memory reads, repeated writes of the same bytes, and pure queries
   are idempotent; [qDuelEvalSeq] resends are deduplicated server-side
   by sequence number.  Allocation and target calls are neither, so
   they time out into a clean failure instead. *)
let resend_safe framed =
  String.length framed >= 2
  &&
  let body = String.sub framed 1 (String.length framed - 1) in
  let pre p =
    String.length body >= String.length p
    && String.sub body 0 (String.length p) = p
  in
  match framed.[1] with
  | 'm' | 'M' | '?' | 'H' -> true
  | 'q' ->
      pre "qDuelFrames" || pre "qDuelStats" || pre "qSupported"
      || pre "qDuelEvalSeq:" || pre "qDuelShutdown"
      (* rebinding to the same target twice is the same binding, and the
         roster query is pure *)
      || pre "qDuelUse:" || pre "qDuelTargets"
  | _ -> false

let exchange_payload t framed =
  drain_stale t;
  let may_resend = resend_safe framed in
  let rec attempt n =
    send_all t framed;
    let deadline = Unix.gettimeofday () +. t.retry.reply_timeout in
    match await_reply t deadline with
    | `Frame p -> p
    | `Nak ->
        (* the server rejected a damaged request before executing it:
           resending is always safe *)
        t.ctr.naks_seen <- t.ctr.naks_seen + 1;
        if n >= t.retry.attempts then
          fail (Protocol "serve: server rejected the packet repeatedly")
        else attempt (n + 1)
    | `Timeout ->
        t.ctr.timeouts <- t.ctr.timeouts + 1;
        if may_resend && n < t.retry.attempts then begin
          t.ctr.resends <- t.ctr.resends + 1;
          backoff_wait t ~attempt:n;
          attempt (n + 1)
        end
        else if may_resend then
          fail (Timeout "serve: no reply from server (retries exhausted)")
        else
          fail
            (Timeout
               "serve: no reply from server (request not resendable: it may \
                have side effects)")
  in
  attempt 1

let exchange t framed = Packet.encode (exchange_payload t framed)
let rpc t payload = exchange_payload t (Packet.encode payload)

let recv_reply t =
  let deadline = Unix.gettimeofday () +. t.retry.reply_timeout in
  match await_reply t deadline with
  | `Frame p -> p
  | `Nak -> fail (Protocol "serve: unexpected NAK from the server")
  | `Timeout -> fail (Timeout "serve: timed out waiting for the server")

(* --- serve-level calls --------------------------------------------------- *)

let mark_caches_stale t = List.iter Dcache.mark_stale t.caches

let eval_frame seq expr deadline =
  (* deadline propagation: tell the server how much budget remains, so a
     request that arrives after the client stopped waiting fails typed
     instead of burning target time *)
  let ms =
    int_of_float (Float.max 0. (1000. *. (deadline -. Unix.gettimeofday ())))
  in
  Packet.encode (Printf.sprintf "qDuelEvalSeq:%x,%x;%s" seq ms expr)

let eval_send t expr =
  drain_stale t;
  if t.eval_pending <> None then
    invalid_arg "serve: an eval is already in flight on this connection";
  let seq = t.next_seq in
  t.next_seq <- t.next_seq + 1;
  let deadline = Unix.gettimeofday () +. t.timeout in
  t.eval_pending <- Some (seq, expr, deadline);
  send_all t (eval_frame seq expr deadline)

(* Parse one seq-tagged eval reply frame: [D<seq>,<idx>;text],
   [T<seq>,<count>] or [F<seq>;msg].  Untagged [D...]/[T...] from a
   pre-seq server are accepted as chunk 0, 1, 2, ... in arrival order. *)
type eval_frame_kind =
  | Chunk of int * int * string  (* seq, idx, text *)
  | Fin of int * int  (* seq, line count *)
  | Failed of int * string
  | Legacy_chunk of string
  | Legacy_fin
  | Unrelated

let parse_eval_frame p =
  if p = "" then Unrelated
  else
    let rest = String.sub p 1 (String.length p - 1) in
    match p.[0] with
    | 'D' -> (
        match String.index_opt rest ';' with
        | Some semi -> (
            let head = String.sub rest 0 semi in
            let text =
              String.sub rest (semi + 1) (String.length rest - semi - 1)
            in
            match String.index_opt head ',' with
            | Some comma -> (
                let seq_s = String.sub head 0 comma in
                let idx_s =
                  String.sub head (comma + 1) (String.length head - comma - 1)
                in
                match
                  ( int_of_string_opt ("0x" ^ seq_s),
                    int_of_string_opt ("0x" ^ idx_s) )
                with
                | Some seq, Some idx -> Chunk (seq, idx, text)
                | _ -> Legacy_chunk rest)
            | None -> Legacy_chunk rest)
        | None -> Legacy_chunk rest)
    | 'T' -> (
        match String.index_opt rest ',' with
        | Some comma -> (
            let seq_s = String.sub rest 0 comma in
            let n_s =
              String.sub rest (comma + 1) (String.length rest - comma - 1)
            in
            match
              (int_of_string_opt ("0x" ^ seq_s), int_of_string_opt ("0x" ^ n_s))
            with
            | Some seq, Some n -> Fin (seq, n)
            | _ -> Legacy_fin)
        | None -> Legacy_fin)
    | 'F' -> (
        match String.index_opt rest ';' with
        | Some semi -> (
            let seq_s = String.sub rest 0 semi in
            let msg =
              String.sub rest (semi + 1) (String.length rest - semi - 1)
            in
            match int_of_string_opt ("0x" ^ seq_s) with
            | Some seq -> Failed (seq, msg)
            | None -> Unrelated)
        | None -> Unrelated)
    | _ -> Unrelated

let eval_recv t =
  match t.eval_pending with
  | None -> invalid_arg "serve: no eval in flight"
  | Some (seq, expr, deadline) ->
      let finish r =
        t.eval_pending <- None;
        (* the eval ran arbitrary DUEL server-side: local caches are
           suspect whether it succeeded or not *)
        mark_caches_stale t;
        match r with `Done lines -> lines | `Fail f -> fail f
      in
      (* chunks indexed as the server numbered them; duplicates (from a
         whole-reply retransmit after one damaged frame) drop here *)
      let chunks : (int, string) Hashtbl.t = Hashtbl.create 8 in
      let add_chunk idx text =
        if Hashtbl.mem chunks idx then
          t.ctr.dup_frames <- t.ctr.dup_frames + 1
        else Hashtbl.add chunks idx text
      in
      let legacy_next = ref 0 in
      let assemble count =
        let lines =
          List.concat_map
            (fun (_, text) -> String.split_on_char '\n' text)
            (List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) chunks []))
        in
        if List.length lines <> count then
          `Fail
            (Protocol
               (Printf.sprintf "serve: eval reply incomplete (%d of %d lines)"
                  (List.length lines) count))
        else `Done lines
      in
      let rec collect attempt =
        let reply_deadline =
          Float.min deadline (Unix.gettimeofday () +. t.retry.reply_timeout)
        in
        match next_event_opt t reply_deadline with
        | None ->
            t.ctr.timeouts <- t.ctr.timeouts + 1;
            if Unix.gettimeofday () >= deadline then
              finish (`Fail (Timeout "serve: eval deadline exhausted"))
            else if attempt >= t.retry.attempts then
              finish (`Fail (Timeout "serve: no eval reply (retries exhausted)"))
            else begin
              (* resending is safe: the server deduplicates by seq and
                 replays the stored reply without re-executing *)
              t.ctr.resends <- t.ctr.resends + 1;
              backoff_wait t ~attempt;
              send_all t (eval_frame seq expr deadline);
              collect (attempt + 1)
            end
        | Some Packet.Deframer.Ack -> collect attempt
        | Some Packet.Deframer.Nak ->
            (* our request frame was damaged in flight; same seq again *)
            t.ctr.naks_seen <- t.ctr.naks_seen + 1;
            if attempt >= t.retry.attempts then
              finish (`Fail (Protocol "serve: eval request rejected repeatedly"))
            else begin
              send_all t (eval_frame seq expr deadline);
              collect (attempt + 1)
            end
        | Some (Packet.Deframer.Bad _) ->
            (* A damaged frame mid-stream.  Do NOT NAK here: a NAK makes
               the server retransmit the whole stored multi-frame reply,
               so NAKing every damaged chunk of a long stream snowballs —
               each retransmitted copy spawns more NAKs than it settles.
               The terminal frame tells us exactly what is missing; the
               seq re-request below replays the reply once per ask. *)
            collect attempt
        | Some (Packet.Deframer.Frame p) -> (
            match parse_eval_frame p with
            | Chunk (s, idx, text) when s = seq ->
                add_chunk idx text;
                collect attempt
            | Fin (s, count) when s = seq -> (
                match assemble count with
                | `Done lines -> finish (`Done lines)
                | `Fail _ when attempt < t.retry.attempts ->
                    (* chunks of this copy were damaged in flight; ask
                       for a replay (dedup by seq server-side) and keep
                       the chunks we already have *)
                    t.ctr.resends <- t.ctr.resends + 1;
                    send_all t (eval_frame seq expr deadline);
                    collect (attempt + 1)
                | `Fail _ as e -> finish e)
            | Failed (s, msg) when s = seq ->
                finish (`Fail (Remote ("serve: eval failed: " ^ msg)))
            | Chunk _ | Fin _ | Failed _ ->
                (* stale frames of an earlier exchange *)
                t.ctr.dup_frames <- t.ctr.dup_frames + 1;
                collect attempt
            | Legacy_chunk text ->
                add_chunk !legacy_next text;
                incr legacy_next;
                collect attempt
            | Legacy_fin ->
                let lines =
                  List.concat_map
                    (fun (_, text) -> String.split_on_char '\n' text)
                    (List.sort compare
                       (Hashtbl.fold (fun k v l -> (k, v) :: l) chunks []))
                in
                finish (`Done lines)
            | Unrelated ->
                if String.length p >= 1 && p.[0] = 'E' then
                  finish (`Fail (Remote ("serve: eval failed: " ^ p)))
                else begin
                  (* a late reply to some earlier, already-failed
                     exchange: stale, not ours to act on *)
                  t.ctr.dup_frames <- t.ctr.dup_frames + 1;
                  collect attempt
                end)
      in
      collect 1

let eval t expr =
  eval_send t expr;
  eval_recv t

let server_stats t =
  let reply = rpc t "qDuelStats" in
  String.split_on_char ';' reply
  |> List.filter_map (fun kv ->
         match String.index_opt kv '=' with
         | None -> None
         | Some i ->
             let k = String.sub kv 0 i in
             let v = String.sub kv (i + 1) (String.length kv - i - 1) in
             Option.map (fun v -> (k, v)) (int_of_string_opt v))

let frame_count t =
  let reply = rpc t "qDuelFrames" in
  match int_of_string_opt ("0x" ^ reply) with
  | Some n -> n
  | None -> fail (Protocol ("serve: bad qDuelFrames reply " ^ reply))

let shutdown_server t = ignore (rpc t "qDuelShutdown")

(* --- fleet calls ---------------------------------------------------------- *)

let use_target t id =
  match rpc t ("qDuelUse:" ^ id) with
  | "OK" ->
      (* the connection now aims at a different target: every line this
         client cached came from the old one *)
      mark_caches_stale t;
      t.last_frame_count <- -1
  | "E03" -> fail (Unknown_target id)
  | other -> fail (Protocol ("serve: bad qDuelUse reply " ^ other))

let targets t =
  match rpc t "qDuelTargets" with
  | "" -> []
  | reply ->
      String.split_on_char ',' reply
      |> List.filter_map (fun slot ->
             match String.index_opt slot '=' with
             | None -> None
             | Some i ->
                 Some
                   ( String.sub slot 0 i,
                     String.sub slot (i + 1) (String.length slot - i - 1) ))

(* Parse one fan-out reply frame: chunk [R<id>,<hex idx>;text], leg
   terminal [Z<id>,<hex count>], leg failure [X<id>;msg], fan-out
   terminal [T<hex legs>] (a [T] {e with} a comma is a stale eval-seq
   terminal, not ours). *)
type all_frame =
  | All_chunk of string * int * string
  | All_fin of string * int
  | All_failed of string * string
  | All_done of int
  | All_unrelated

let parse_all_frame p =
  if p = "" then All_unrelated
  else
    let rest = String.sub p 1 (String.length p - 1) in
    match p.[0] with
    | 'R' -> (
        match (String.index_opt rest ',', String.index_opt rest ';') with
        | Some comma, Some semi when comma < semi -> (
            let id = String.sub rest 0 comma in
            let idx_s = String.sub rest (comma + 1) (semi - comma - 1) in
            let text =
              String.sub rest (semi + 1) (String.length rest - semi - 1)
            in
            match int_of_string_opt ("0x" ^ idx_s) with
            | Some idx -> All_chunk (id, idx, text)
            | None -> All_unrelated)
        | _ -> All_unrelated)
    | 'Z' -> (
        match String.index_opt rest ',' with
        | Some comma -> (
            let id = String.sub rest 0 comma in
            let n_s =
              String.sub rest (comma + 1) (String.length rest - comma - 1)
            in
            match int_of_string_opt ("0x" ^ n_s) with
            | Some n -> All_fin (id, n)
            | None -> All_unrelated)
        | None -> All_unrelated)
    | 'X' -> (
        match String.index_opt rest ';' with
        | Some semi ->
            All_failed
              ( String.sub rest 0 semi,
                String.sub rest (semi + 1) (String.length rest - semi - 1) )
        | None -> All_unrelated)
    | 'T' ->
        if String.contains rest ',' then All_unrelated
        else (
          match int_of_string_opt ("0x" ^ rest) with
          | Some n -> All_done n
          | None -> All_unrelated)
    | _ -> All_unrelated

let eval_all t ids expr =
  drain_stale t;
  if t.eval_pending <> None then
    invalid_arg "serve: an eval is already in flight on this connection";
  let ids_s = match ids with [] -> "*" | l -> String.concat "," l in
  (* not resend-safe: the server has no replay window for fan-outs, so a
     lost reply surfaces as a timeout for the caller to retry knowingly *)
  send_all t (Packet.encode (Printf.sprintf "qDuelEvalAll:%s;%s" ids_s expr));
  let deadline = Unix.gettimeofday () +. t.timeout in
  let chunks : (string, (int, string) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 8
  in
  let results = ref [] in  (* leg results, reverse arrival order *)
  let finish r =
    mark_caches_stale t;
    match r with `Done legs -> legs | `Fail f -> fail f
  in
  let assemble id count : (string list, string) result =
    let tbl =
      match Hashtbl.find_opt chunks id with
      | Some tbl -> tbl
      | None -> Hashtbl.create 1
    in
    let lines =
      List.concat_map
        (fun (_, text) -> String.split_on_char '\n' text)
        (List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) tbl []))
    in
    if List.length lines <> count then
      Error
        (Printf.sprintf "incomplete reply (%d of %d lines)"
           (List.length lines) count)
    else Ok lines
  in
  let rec collect () =
    match next_event_opt t deadline with
    | None -> finish (`Fail (Timeout "serve: eval_all timed out"))
    | Some Packet.Deframer.Ack -> collect ()
    | Some Packet.Deframer.Nak ->
        finish (`Fail (Protocol "serve: server rejected the fan-out request"))
    | Some (Packet.Deframer.Bad _) ->
        (* a damaged frame loses (part of) one leg; the per-leg counts
           and the terminal leg count report exactly what is missing *)
        collect ()
    | Some (Packet.Deframer.Frame p) -> (
        match parse_all_frame p with
        | All_chunk (id, idx, text) ->
            let tbl =
              match Hashtbl.find_opt chunks id with
              | Some tbl -> tbl
              | None ->
                  let tbl = Hashtbl.create 4 in
                  Hashtbl.add chunks id tbl;
                  tbl
            in
            if Hashtbl.mem tbl idx then
              t.ctr.dup_frames <- t.ctr.dup_frames + 1
            else Hashtbl.add tbl idx text;
            collect ()
        | All_fin (id, count) ->
            results := (id, assemble id count) :: !results;
            collect ()
        | All_failed (id, msg) ->
            results := (id, Error msg) :: !results;
            collect ()
        | All_done legs ->
            let got = List.rev !results in
            if List.length got <> legs then
              finish
                (`Fail
                   (Protocol
                      (Printf.sprintf
                         "serve: eval_all reply incomplete (%d of %d targets)"
                         (List.length got) legs)))
            else finish (`Done got)
        | All_unrelated ->
            if p = "E03" then
              finish (`Fail (Remote "serve: server hosts no fleet"))
            else if String.length p >= 1 && p.[0] = 'E' then
              finish (`Fail (Remote ("serve: eval_all failed: " ^ p)))
            else begin
              t.ctr.dup_frames <- t.ctr.dup_frames + 1;
              collect ()
            end)
  in
  collect ()

(* --- the network debugger interface -------------------------------------- *)

let dbgi ?(cache = true) ?(prefetch = true) t di =
  let raw = Duel_rsp.Client.of_rpc ~rpc:(rpc t) di in
  (* [mark_stale] needs the *wrapped* interface, which doesn't exist
     until after we build the frames hook it closes over. *)
  let wrapped = ref None in
  let frames () =
    (* a stop boundary the wire can show us: the active frame count
       changed since we last looked — whatever we cached is suspect *)
    let n = frame_count t in
    if t.last_frame_count >= 0 && n <> t.last_frame_count then (
      match !wrapped with Some d -> Dcache.mark_stale d | None -> ());
    t.last_frame_count <- n;
    di.Duel_rsp.Client.di_frames ()
  in
  let health () =
    {
      Dbgi.h_ok = true;
      h_detail =
        Printf.sprintf "wire: %d resends, %d timeouts, %d naks seen"
          t.ctr.resends t.ctr.timeouts t.ctr.naks_seen;
      h_latency_ms = 0.;
      h_failures = 0;
    }
  in
  let raw =
    {
      raw with
      Dbgi.frames;
      caps = Dbgi.basic_caps ~transport:Dbgi.Socket "serve";
      health;
    }
  in
  if not cache then raw
  else begin
    let dbg =
      Dcache.wrap
        ~config:
          {
            Dcache.default_config with
            stale_policy = Dcache.Explicit;
          }
        raw
    in
    wrapped := Some dbg;
    t.caches <- dbg :: t.caches;
    (* a miss here is a socket round trip: read-ahead carries the whole
       page block around the line on it *)
    if prefetch then ignore (Duel_dbgi.Prefetch.attach dbg);
    dbg
  end
