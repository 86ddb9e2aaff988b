(* Target-memory data cache: line-granular reads, coalesced writes.

   The evaluator issues one DBGI access per scalar it touches, so a
   traversal like [head-->next[[1000]].val] costs thousands of
   round-trips through the narrow interface — catastrophic over a packet
   transport.  This module wraps any [Dbgi.t] in a client-side cache, the
   same layering gdb's dcache puts over the remote protocol: the nub
   interface stays narrow, the client amortises it. *)

(* How the cache learns that target memory changed behind its back.  An
   in-process backend exposes a write-generation counter to snoop
   ([Probe]); a genuinely remote transport has nothing to poll, so the
   owner must tell the cache about stop boundaries ([Explicit] +
   [mark_stale]/[invalidate]). *)
type stale_policy = Probe of (unit -> int) | Explicit

type config = {
  line_size : int;
  max_lines : int;
  max_pending : int;
  stale_policy : stale_policy;
}

let default_config =
  { line_size = 64; max_lines = 256; max_pending = 4096; stale_policy = Explicit }

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable fills : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
  mutable invalidations : int;
  mutable backend_reads : int;
  mutable backend_writes : int;
  mutable backend_other : int;
}

let round_trips st = st.backend_reads + st.backend_writes + st.backend_other

let fresh_stats () =
  {
    hits = 0;
    misses = 0;
    fills = 0;
    bytes_read = 0;
    bytes_written = 0;
    invalidations = 0;
    backend_reads = 0;
    backend_writes = 0;
    backend_other = 0;
  }

(* Lines are threaded on an intrusive doubly-linked recency list (MRU at
   [mru], LRU at [lru]), so a [touch] is pointer surgery and eviction is
   O(1) instead of a full-table minimum scan.  [spec] marks a line that
   arrived with a block fill around some other line's miss and has not
   yet been touched by a demand access; the flag exists only for
   accounting — the bytes are as real as a demand fill's. *)
type line = {
  base : int;
  buf : bytes;
  mutable dirty : bool;
  mutable spec : bool;
  mutable prev : line option;  (* towards MRU *)
  mutable next : line option;  (* towards LRU *)
}

type spec_stats = {
  mutable issued : int;
  mutable useful : int;
  mutable wasted : int;
  mutable blocks : int;
}

type cache = {
  cfg : config;
  backend : Dbgi.t;
  lines : (int, line) Hashtbl.t;  (* keyed by line base address *)
  mutable mru : line option;
  mutable lru : line option;
  mutable pending : (int * bytes) list;  (* disjoint, ascending addresses *)
  mutable pending_bytes : int;
  mutable last_gen : int;
  mutable stale : bool;  (* [mark_stale]: drop lines on the next operation *)
  block : int;  (* read-ahead block in bytes; [line_size] off the wire *)
  mutable ledger : spec_stats option;  (* read-ahead's, once attached *)
  mutable readahead : bool;
  st : stats;
}

let line_base c addr = addr land lnot (c.cfg.line_size - 1)

let line_bases c addr len =
  let rec go base last = if base > last then [] else base :: go (base + c.cfg.line_size) last in
  go (line_base c addr) (line_base c (addr + len - 1))

let unlink c l =
  (match l.prev with Some p -> p.next <- l.next | None -> ());
  (match l.next with Some n -> n.prev <- l.prev | None -> ());
  (match c.mru with Some m when m == l -> c.mru <- l.next | _ -> ());
  (match c.lru with Some m when m == l -> c.lru <- l.prev | _ -> ());
  l.prev <- None;
  l.next <- None

let push_front c l =
  l.next <- c.mru;
  (match c.mru with Some m -> m.prev <- Some l | None -> c.lru <- Some l);
  c.mru <- Some l

let touch c line =
  match c.mru with
  | Some m when m == line -> ()
  | _ ->
      unlink c line;
      push_front c line

(* Resolve [n] still-speculative lines as dropped. *)
let waste c n =
  match c.ledger with Some s -> s.wasted <- s.wasted + n | None -> ()

let clear_lines c =
  Hashtbl.iter (fun _ l -> if l.spec then waste c 1) c.lines;
  Hashtbl.reset c.lines;
  c.mru <- None;
  c.lru <- None

let resync_gen c =
  match c.cfg.stale_policy with
  | Probe probe -> c.last_gen <- probe ()
  | Explicit -> ()

(* Push every coalesced range to the backend, in ascending address order
   (the list invariant), and mark all lines clean.  Ends by resyncing the
   coherence generation: the writes we just issued are our own. *)
let flush_cache c =
  (try
     List.iter
       (fun (addr, data) ->
         c.st.backend_writes <- c.st.backend_writes + 1;
         c.backend.Dbgi.put_bytes ~addr data)
     c.pending
   with Dbgi.Target_transient _ as e ->
     (* the transport flaked mid-flush: every pending range is still
        buffered (cleared only below), so a later flush point retries the
        whole batch — byte writes are idempotent.  Mark the cache stale so
        the next operation re-validates rather than trusting lines the
        backend may or may not have seen. *)
     c.stale <- true;
     raise e);
  c.pending <- [];
  c.pending_bytes <- 0;
  Hashtbl.iter (fun _ l -> l.dirty <- false) c.lines;
  resync_gen c

let invalidate_cache c =
  flush_cache c;
  clear_lines c;
  c.st.invalidations <- c.st.invalidations + 1

(* Detect stores that bypassed this cache, on entry to every cached
   operation.  An explicit [mark_stale] (a remote client observing a stop
   boundary or a server-side eval) always wins; otherwise a [Probe]
   policy snoops the write generation — the mini-C interpreter executing,
   a scenario builder poking memory, a direct Memory.write in a test all
   bump it — and any change drops every line. *)
let check_coherence c =
  if c.stale then begin
    (* invalidate first, clear the flag after: if the flush inside raises
       (a transient transport fault), the mark survives and the next
       operation tries again instead of proceeding on suspect lines *)
    invalidate_cache c;
    c.stale <- false
  end
  else
    match c.cfg.stale_policy with
    | Explicit -> ()
    | Probe probe -> if probe () <> c.last_gen then invalidate_cache c

let evict_one c =
  match c.lru with
  | None -> ()
  | Some l ->
      (* A dirty victim still has unflushed bytes in [pending]; flushing
         first keeps the invariant that every pending byte lives in a
         cached line, so fills can never resurrect stale backend data. *)
      if l.dirty then flush_cache c;
      if l.spec then waste c 1;
      unlink c l;
      Hashtbl.remove c.lines l.base

let install c base buf ~spec =
  if Hashtbl.length c.lines >= c.cfg.max_lines then evict_one c;
  let l = { base; buf; dirty = false; spec; prev = None; next = None } in
  push_front c l;
  Hashtbl.replace c.lines base l

let read c ~addr ~len =
  c.st.backend_reads <- c.st.backend_reads + 1;
  c.backend.Dbgi.get_bytes ~addr ~len

(* Insert whole lines carved out of one block read as speculative, each
   counted as it lands (an eviction's flush may raise mid-block).  Lines
   already resident are skipped — in particular dirty lines, preserving
   the invariant that every pending byte lives in a cached line — so
   read-ahead can never clobber buffered writes or demand-fresh data. *)
let spec_insert c ~start buf =
  let line = c.cfg.line_size in
  for i = 0 to (Bytes.length buf / line) - 1 do
    let base = start + (i * line) in
    if not (Hashtbl.mem c.lines base) then begin
      install c base (Bytes.sub buf (i * line) line) ~spec:true;
      match c.ledger with Some s -> s.issued <- s.issued + 1 | None -> ()
    end
  done

(* A demand fill.  With read-ahead on over a wire, the miss reads the
   whole aligned block around the line in its one round trip: the line
   is installed as demand, the rest of the block as speculative lines,
   for no extra trip.  A faulting block falls back to the one-line read,
   so a demand fault keeps its exact attribution; a transient propagates
   with nothing inserted.  [~block:false] asks for the one-line read. *)
let fill c ~block base =
  c.st.fills <- c.st.fills + 1;
  let line = c.cfg.line_size in
  if block && c.readahead && c.block > line then begin
    let start = base land lnot (c.block - 1) in
    match read c ~addr:start ~len:c.block with
    | buf ->
        Option.iter (fun s -> s.blocks <- s.blocks + 1) c.ledger;
        install c base (Bytes.sub buf (base - start) line) ~spec:false;
        spec_insert c ~start buf
    | exception Dbgi.Target_fault _ ->
        install c base (read c ~addr:base ~len:line) ~spec:false
  end
  else install c base (read c ~addr:base ~len:line) ~spec:false

(* Copy [addr, addr+len) between a client buffer and the cached lines.
   [get] reads lines into [out]; otherwise writes [data] into lines,
   marking them dirty.  A demand touch resolves speculative lines. *)
let blit_lines c ~addr ~len ~(out : bytes option) ~(data : bytes option) =
  List.iter
    (fun base ->
      let l = Hashtbl.find c.lines base in
      let lo = max addr base in
      let hi = min (addr + len) (base + c.cfg.line_size) in
      (match out with
      | Some out -> Bytes.blit l.buf (lo - base) out (lo - addr) (hi - lo)
      | None -> ());
      (match data with
      | Some data ->
          Bytes.blit data (lo - addr) l.buf (lo - base) (hi - lo);
          l.dirty <- true
      | None -> ());
      if l.spec then begin
        (* the read-ahead paid off, exactly once per line *)
        l.spec <- false;
        match c.ledger with Some s -> s.useful <- s.useful + 1 | None -> ()
      end;
      touch c l)
    (line_bases c addr len)

let all_cached c ~addr ~len =
  List.for_all (fun base -> Hashtbl.mem c.lines base) (line_bases c addr len)

(* Ensure every line covering the range is cached.  Raises the fill's
   [Target_fault] if a line cannot be read.  No fill may evict a line the
   access still needs: its resident lines move to the MRU end first, so
   evictions take older lines, and block fills are used only while every
   block the range touches fits in the cache at once (always, up to four
   blocks); a longer range fills one line at a time. *)
let ensure_lines c ~addr ~len =
  let bases = line_bases c addr len in
  let resident = List.filter_map (Hashtbl.find_opt c.lines) bases in
  if List.compare_lengths resident bases < 0 then begin
    List.iter (touch c) resident;
    let block_of a = a land lnot (c.block - 1) in
    let span = block_of (addr + len - 1) - block_of addr + c.block in
    let block = span <= c.cfg.max_lines * c.cfg.line_size in
    List.iter
      (fun base -> if not (Hashtbl.mem c.lines base) then fill c ~block base)
      bases
  end

let cached_get c ~addr ~len =
  if len <= 0 then c.backend.Dbgi.get_bytes ~addr ~len
  else begin
    check_coherence c;
    c.st.bytes_read <- c.st.bytes_read + len;
    if all_cached c ~addr ~len then c.st.hits <- c.st.hits + 1
    else begin
      c.st.misses <- c.st.misses + 1;
      try ensure_lines c ~addr ~len
      with
      | Dbgi.Target_transient _ as e ->
          (* a flaky transport, not a bad address: lines filled so far are
             valid, but be conservative — mark stale and let the caller's
             retry policy (or the session's resumable error) take over *)
          c.stale <- true;
          raise e
      | Dbgi.Target_fault _ ->
        (* Partial-line fallback: the request may be fine even though its
           enclosing line crosses into unmapped space (a fill rounds up).
           Flush first — the exact-range read below may cover dirty lines
           the backend hasn't seen yet — then let the backend serve (or
           fault on) precisely the requested range, preserving the exact
           {addr; len} attribution. *)
        flush_cache c;
        c.st.backend_reads <- c.st.backend_reads + 1;
        raise_notrace Exit
    end;
    let out = Bytes.create len in
    blit_lines c ~addr ~len ~out:(Some out) ~data:None;
    out
  end

let cached_get c ~addr ~len =
  try cached_get c ~addr ~len
  with Exit -> c.backend.Dbgi.get_bytes ~addr ~len

(* Merge a write into the pending list, coalescing with any ranges it
   overlaps or abuts, so a scalar-at-a-time store loop flushes as one
   backend round-trip.  Later bytes win over earlier ones. *)
let add_pending c addr data =
  let len = Bytes.length data in
  let before, rest =
    List.partition (fun (a, d) -> a + Bytes.length d < addr) c.pending
  in
  let overlap, after = List.partition (fun (a, _) -> a <= addr + len) rest in
  let lo = List.fold_left (fun m (a, _) -> min m a) addr overlap in
  let hi =
    List.fold_left (fun m (a, d) -> max m (a + Bytes.length d)) (addr + len)
      overlap
  in
  let buf = Bytes.create (hi - lo) in
  List.iter
    (fun (a, d) -> Bytes.blit d 0 buf (a - lo) (Bytes.length d))
    overlap;
  Bytes.blit data 0 buf (addr - lo) len;
  c.pending <- before @ ((lo, buf) :: after);
  c.pending_bytes <-
    List.fold_left (fun s (_, d) -> s + Bytes.length d) 0 c.pending

let cached_put c ~addr data =
  let len = Bytes.length data in
  if len = 0 then ()
  else begin
    check_coherence c;
    c.st.bytes_written <- c.st.bytes_written + len;
    match ensure_lines c ~addr ~len with
    | () ->
        (* Write-allocate: the lines are cached, so update them in place
           and buffer the store; it reaches the backend coalesced, at the
           next flush point. *)
        blit_lines c ~addr ~len ~out:None ~data:(Some data);
        add_pending c addr data;
        if c.pending_bytes > c.cfg.max_pending then flush_cache c
    | exception (Dbgi.Target_transient _ as e) ->
        (* nothing was mutated yet; degrade exactly as the read path does *)
        c.stale <- true;
        raise e
    | exception Dbgi.Target_fault _ ->
        (* The enclosing lines are not fully readable (page boundary, or a
           genuinely bad address): write through uncached so the backend
           decides, with exact fault attribution.  Any lines that were
           cached get the new bytes too — they are clean copies. *)
        flush_cache c;
        c.st.backend_writes <- c.st.backend_writes + 1;
        c.backend.Dbgi.put_bytes ~addr data;
        List.iter
          (fun base ->
            match Hashtbl.find_opt c.lines base with
            | None -> ()
            | Some l ->
                let lo = max addr base
                and hi = min (addr + len) (base + c.cfg.line_size) in
                Bytes.blit data (lo - addr) l.buf (lo - base) (hi - lo);
                touch c l)
          (line_bases c addr len);
        resync_gen c
  end

(* Target code can mutate arbitrary memory, and an allocation changes
   what is mapped: flush our stores first so the target sees them, then
   drop every line. *)
let around_target_op c op =
  check_coherence c;
  flush_cache c;
  c.st.backend_other <- c.st.backend_other + 1;
  Fun.protect
    ~finally:(fun () ->
      (* invalidate even if the call raised: the target may have run and
         mutated memory before failing *)
      clear_lines c;
      c.st.invalidations <- c.st.invalidations + 1;
      resync_gen c)
    op

let probe c ~addr ~len =
  check_coherence c;
  if all_cached c ~addr ~len then begin
    c.st.hits <- c.st.hits + 1;
    (* probes are demand accesses too: the traversal's first touch of a
       node resolves its read-ahead lines *)
    blit_lines c ~addr ~len ~out:None ~data:None;
    true
  end
  else
    match cached_get c ~addr ~len with
    | (_ : bytes) -> true
    | exception Dbgi.Target_fault _ -> false

(* The wrapped interface is a plain [Dbgi.t]; caches are found again by
   physical identity (most recent first, so the live session's wrapper is
   at the head). *)
let registry : (Dbgi.t * cache) list ref = ref []

let find dbg =
  Option.map snd (List.find_opt (fun (d, _) -> d == dbg) !registry)

(* The read-ahead block for a backend: the page around a line, which is
   also the RSP stub's largest read, so a block read faults only when the
   line's own page is unmapped.  It is capped at a quarter of the cache,
   so a fill never evicts the line it has just fetched and an access
   spanning up to four blocks keeps its own lines ([ensure_lines]), and
   kept a power of two, so blocks tile pages.  Only a wire has a round trip to
   amortise; in-process backends fill one line. *)
let block_size cfg (backend : Dbgi.t) =
  match backend.Dbgi.caps.Dbgi.c_transport with
  | Dbgi.Loopback | Dbgi.Socket ->
      let rec pow2_floor n =
        if n land (n - 1) = 0 then n else pow2_floor (n land (n - 1))
      in
      let lines =
        min (Duel_mem.Memory.page_size / cfg.line_size) (cfg.max_lines / 4)
      in
      if lines < 2 then cfg.line_size else cfg.line_size * pow2_floor lines
  | Dbgi.Direct | Dbgi.Synthetic -> cfg.line_size

let wrap ?(config = default_config) backend =
  if config.line_size <= 0 || config.line_size land (config.line_size - 1) <> 0
  then invalid_arg "Dcache.wrap: line_size must be a positive power of two";
  if config.max_lines <= 0 then
    invalid_arg "Dcache.wrap: max_lines must be positive";
  let c =
    {
      cfg = config;
      backend;
      lines = Hashtbl.create (min config.max_lines 64);
      mru = None;
      lru = None;
      pending = [];
      pending_bytes = 0;
      last_gen =
        (match config.stale_policy with Probe probe -> probe () | Explicit -> 0);
      stale = false;
      block = block_size config backend;
      ledger = None;
      readahead = false;
      st = fresh_stats ();
    }
  in
  let dbg =
    {
      backend with
      Dbgi.get_bytes = (fun ~addr ~len -> cached_get c ~addr ~len);
      put_bytes = (fun ~addr data -> cached_put c ~addr data);
      alloc_space = (fun size -> around_target_op c (fun () -> backend.Dbgi.alloc_space size));
      call_func =
        (fun name args ->
          around_target_op c (fun () -> backend.Dbgi.call_func name args));
    }
  in
  let dbg = Dbgi.add_layer "cache" dbg in
  registry := (dbg, c) :: !registry;
  Dbgi.register_probe dbg (fun ~addr ~len -> probe c ~addr ~len);
  dbg

let is_cached dbg = find dbg <> None

let coherence_probe dbg =
  Option.bind (find dbg) (fun c ->
      match c.cfg.stale_policy with Probe f -> Some f | Explicit -> None)
let stats dbg = Option.map (fun c -> c.st) (find dbg)
let cached_lines dbg =
  match find dbg with None -> 0 | Some c -> Hashtbl.length c.lines

let flush dbg = match find dbg with None -> () | Some c -> flush_cache c

let flush_all () = List.iter (fun (_, c) -> flush_cache c) !registry

let release dbg =
  match find dbg with
  | None -> ()
  | Some c ->
      Fun.protect
        ~finally:(fun () ->
          registry := List.filter (fun (d, _) -> d != dbg) !registry;
          Dbgi.unregister_probe dbg)
        (fun () -> flush_cache c)

let invalidate dbg =
  match find dbg with None -> () | Some c -> invalidate_cache c

let mark_stale dbg =
  match find dbg with None -> () | Some c -> c.stale <- true

(* --- read-ahead, by wrapped interface ------------------------------------ *)

let spec_stats dbg = Option.bind (find dbg) (fun c -> c.ledger)
let readahead dbg = match find dbg with Some c -> c.readahead | None -> false

let set_readahead dbg on =
  match find dbg with
  | None -> false
  | Some c ->
      if c.ledger = None then
        c.ledger <- Some { issued = 0; useful = 0; wasted = 0; blocks = 0 };
      c.readahead <- on;
      true

let reset_stats dbg =
  match find dbg with
  | None -> ()
  | Some c ->
      let z = fresh_stats () in
      c.st.hits <- z.hits;
      c.st.misses <- z.misses;
      c.st.fills <- z.fills;
      c.st.bytes_read <- z.bytes_read;
      c.st.bytes_written <- z.bytes_written;
      c.st.invalidations <- z.invalidations;
      c.st.backend_reads <- z.backend_reads;
      c.st.backend_writes <- z.backend_writes;
      c.st.backend_other <- z.backend_other

let to_lines st =
  [
    Printf.sprintf "reads: %d hits, %d misses, %d line fills (%d bytes served)"
      st.hits st.misses st.fills st.bytes_read;
    Printf.sprintf "writes: %d bytes accepted, %d coalesced backend writes"
      st.bytes_written st.backend_writes;
    Printf.sprintf
      "backend round-trips: %d (%d reads, %d writes, %d calls/allocs); %d \
       invalidations"
      (round_trips st) st.backend_reads st.backend_writes st.backend_other
      st.invalidations;
  ]
