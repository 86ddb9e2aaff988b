(* The sharded serve stack: N copies of the {!Server} event loop, one
   OCaml 5 domain each, over one shared fleet of targets.

   What is shared and what is shard-local:

   - The {e fleet} (the simulated inferiors) is shared.  Every shard's
     raw access to a target is serialized per-operation by that
     target's lock ({!Duel_fleet.Fleet.shard_dbgi}); reads mostly never
     reach it, because each shard owns a private {!Duel_dbgi.Dcache}
     per target whose generation probe snoops that target's
     write-generation — a store by any shard retires every other
     shard's cached lines on their next access, the same coherence hook
     single-threaded rigs already used.
   - The {e plan cache} is shared ({!Plan_cache} is mutex-guarded), so
     a query compiled by one shard is a hit on every other.
   - The {e stop flag} is shared: [qDuelShutdown] arriving at any shard
     (or a signal handler calling {!shutdown}) drains all of them.
   - Everything else — connections, sessions, stats, the latency
     histogram, the RSP stubs, the select loop itself — is shard-local
     and touched only by the shard's own domain.  [qDuelStats] merges
     the per-shard numbers on demand ({!Server.merged_view}).

   Listener setup: TCP uses SO_REUSEPORT — every shard binds the same
   address and the kernel balances accepts, so there is no hand-off on
   the TCP hot path at all.  Unix-domain sockets cannot share a bind,
   so a small dispatcher domain accepts and hands each fd to the next
   shard round-robin over the shard's locked inbox ({!Server.hand_off}),
   which wakes the shard's select through its wake pipe. *)

type t = {
  shards : Server.t array;
  stop : bool Atomic.t;
  rr : int Atomic.t;  (* round-robin hand-off cursor *)
  mutable unix_listeners : (Unix.file_descr * string) list;
  mutable domains : unit Domain.t list;
  mutable running : bool;
}

let shard_count t = Array.length t.shards
let shards t = Array.to_list t.shards

let create ?(config = Server.default_config) ~shards:n fleet =
  if n < 1 then invalid_arg "Sharded.create: shards must be >= 1";
  let stop = Atomic.make false in
  let plans = Plan_cache.create config.Server.plan_cache in
  (* the shared fleet carries the per-target locks and generations; each
     shard builds its own per-target caches inside [Server.create] *)
  let shards =
    Array.init n (fun _ -> Server.create ~config ~plans ~stop fleet)
  in
  if n > 1 then begin
    let all = Array.to_list shards in
    Array.iter (fun s -> Server.set_siblings s all) shards
  end;
  {
    shards;
    stop;
    rr = Atomic.make 0;
    unix_listeners = [];
    domains = [];
    running = false;
  }

(* --- listeners ----------------------------------------------------------- *)

let listen_tcp t ~host ~port =
  match t.shards with
  | [| only |] -> Server.listen_tcp only ~host ~port
  | shards ->
      (* shard 0 resolves an ephemeral port, siblings join it *)
      let port = Server.listen_tcp ~reuseport:true shards.(0) ~host ~port in
      Array.iteri
        (fun i s ->
          if i > 0 then
            ignore (Server.listen_tcp ~reuseport:true s ~host ~port))
        shards;
      port

let next_shard t =
  let n = Array.length t.shards in
  t.shards.(Atomic.fetch_and_add t.rr 1 mod n)

(* Round-robin a connected socket to some shard.  Safe from any domain;
   this is also the dispatcher's balancing policy. *)
let inject t fd = Server.hand_off (next_shard t) fd

let listen_unix t path =
  match t.shards with
  | [| only |] -> Server.listen_unix only path
  | _ ->
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
      Unix.bind fd (ADDR_UNIX path);
      Unix.listen fd 64;
      Unix.set_nonblock fd;
      t.unix_listeners <- (fd, path) :: t.unix_listeners

(* The dispatcher loop: accept until the stop flag rises, handing each
   connection to the next shard.  Runs in its own domain. *)
let dispatch_loop t lfd path =
  let rec accept_all () =
    match Unix.accept lfd with
    | fd, _ ->
        inject t fd;
        accept_all ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  in
  let rec loop () =
    if not (Atomic.get t.stop) then begin
      (match Unix.select [ lfd ] [] [] 0.2 with
      | _ :: _, _, _ -> accept_all ()
      | _ -> ()
      | exception Unix.Unix_error (EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  (try Unix.close lfd with Unix.Unix_error _ -> ());
  try Unix.unlink path with Unix.Unix_error _ -> ()

(* --- lifecycle ----------------------------------------------------------- *)

let spawn_dispatchers t =
  List.map
    (fun (lfd, path) -> Domain.spawn (fun () -> dispatch_loop t lfd path))
    t.unix_listeners

(* Every shard (and any unix-socket dispatcher) in a background domain;
   the caller's domain stays free to drive clients (tests, benches). *)
let start t =
  if t.running then invalid_arg "Sharded.start: already running";
  t.running <- true;
  t.domains <-
    spawn_dispatchers t
    @ List.map
        (fun s -> Domain.spawn (fun () -> Server.run s))
        (Array.to_list t.shards)

let join t =
  let ds = t.domains in
  t.domains <- [];
  t.running <- false;
  List.iter Domain.join ds

(* The CLI shape: shard 0 runs on the calling domain (so an interactive
   process keeps its main domain busy in the loop), siblings and
   dispatchers in spawned domains; returns when every loop has drained
   after a {!shutdown}.  With one shard and no unix dispatcher this is
   exactly [Server.run] — no domain is ever spawned. *)
let run t =
  if t.running then invalid_arg "Sharded.run: already running";
  t.running <- true;
  let siblings =
    List.filteri (fun i _ -> i > 0) (Array.to_list t.shards)
    |> List.map (fun s -> Domain.spawn (fun () -> Server.run s))
  in
  t.domains <- spawn_dispatchers t @ siblings;
  Server.run t.shards.(0);
  join t

(* Raise the shared stop flag and wake every shard.  [Server.shutdown]
   on any shard reaches its siblings; the dispatchers poll the flag. *)
let shutdown t = Server.shutdown t.shards.(0)

let active t = Array.fold_left (fun n s -> n + Server.active s) 0 t.shards
let merged_view t = Server.merged_view t.shards.(0)
let stats_wire t = Server.stats_wire t.shards.(0)
let stats_to_lines t = Server.stats_to_lines t.shards.(0)
