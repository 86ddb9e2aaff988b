(** The DUEL–debugger interface.

    The paper keeps this interface "intentionally narrow to simplify
    connecting it to a debugger": copy bytes to/from the target, allocate
    target space, call a target function, and query symbol/type
    information.  DUEL proper (the [duel_core] library) talks to the target
    {e only} through a value of type {!t}; backends exist for the direct
    in-process simulator ({!Duel_target.Backend} in the target library) and
    for the GDB remote-serial-protocol client ([duel_rsp]).

    Mirrors the paper's function list:
    [duel_get_target_bytes], [duel_put_target_bytes],
    [duel_alloc_target_space], [duel_call_target_func],
    [duel_get_target_variable], [duel_get_target_typedef/struct/union/enum],
    plus the "miscellaneous" frame queries.

    {2 Zero-length convention}

    A zero-length transfer is valid at {e any} address, mapped or not:
    [get_bytes ~addr ~len:0] returns empty bytes, [put_bytes] of empty
    bytes is a no-op, and {!readable} [~len:0] is [true], all without
    touching the target.  (This mirrors C, where any pointer may be used
    for a zero-byte access.)  Backends must honour this; both the direct
    simulator and the RSP client do.  [len] must be non-negative. *)

exception Target_fault of { addr : int; len : int }
(** Raised by [get_bytes]/[put_bytes]: [addr] is the exact faulting target
    address (the first inaccessible byte, which for an access spanning a
    mapping boundary may lie {e inside} the requested range), and [len] is
    the length of the attempted access. *)

exception Target_transient of { addr : int; len : int }
(** A {e transient} failure of the same access: the address is (believed)
    valid but the transport or target flaked — a dropped packet, a stalled
    stub, an injected chaos fault.  Unlike {!Target_fault} it is an
    invitation to retry: [Duel_chaos.resilient] retries these with
    backoff, the data cache marks itself stale and re-raises (so no
    half-completed operation is trusted), and the session surfaces a
    typed, resumable error rather than treating the address as bad.
    {!readable} deliberately does {e not} catch it — a flaky wire must
    never make a valid pointer look invalid. *)

(** Scalar values crossing the interface for target-function calls.
    Pointers travel as [Cint] with a pointer type. *)
type cval = Cint of Duel_ctype.Ctype.t * int64 | Cfloat of Duel_ctype.Ctype.t * float

(** {1 Identity and health}

    Introspection over an otherwise-opaque record of functions.  A
    backend's {!caps} says what it {e is} — which transport class moves
    its bytes and which decoration layers wrap it — so tools
    ([info backend], the {!Dispatcher}) can describe a stack without
    reverse-engineering closures.  Its [health] thunk says how it is
    {e doing} right now: trivially constant for simple backends, scored
    live (EWMA latency, consecutive failures) by layers that track
    faults. *)

(** How the backend's live bytes travel. *)
type transport =
  | Direct  (** in-process simulator, no wire *)
  | Loopback  (** RSP packets handled by an in-process server *)
  | Socket  (** a real file descriptor: TCP, Unix-domain, socketpair *)
  | Synthetic  (** fabricated for tests or fault rigs (e.g. a dead replica) *)

type caps = {
  c_id : string;  (** stable identity, e.g. ["direct:all"] *)
  c_transport : transport;
  c_layers : string list;
      (** decoration layers, outermost first: ["cache"], ["retry"],
          ["chaos"], ["dispatch"], … *)
}

type health = {
  h_ok : bool;
  h_detail : string;
  h_latency_ms : float;  (** EWMA of recent op latency; [0.] if unmeasured *)
  h_failures : int;  (** consecutive failures observed *)
}

type var_info = { v_addr : int; v_type : Duel_ctype.Ctype.t }

type frame_info = {
  fr_index : int;  (** 0 is the innermost active frame *)
  fr_func : string;
  fr_locals : (string * var_info) list;
}

type t = {
  abi : Duel_ctype.Abi.t;
  get_bytes : addr:int -> len:int -> bytes;
  put_bytes : addr:int -> bytes -> unit;
  alloc_space : int -> int;
  call_func : string -> cval list -> cval;
      (** @raise Failure if the function is unknown. *)
  find_variable : string -> var_info option;
      (** Global (file-scope) variables and functions by name. *)
  tenv : Duel_ctype.Tenv.t;
      (** Tag and typedef lookup — the paper's
          [duel_get_target_typedef/struct/union/enum]. *)
  frames : unit -> frame_info list;
      (** Active frames, innermost first ("the number of active frames" and
          locals, from the paper's miscellaneous functions). *)
  caps : caps;  (** identity: transport class and decoration layers *)
  health : unit -> health;
      (** Live condition.  Must never raise and never touch the target:
          it reports what recent operations observed. *)
}

val basic_caps : ?transport:transport -> ?layers:string list -> string -> caps
(** [basic_caps id] with [Synthetic] transport and no layers by default. *)

val always_healthy : unit -> health
(** The constant answer for backends with nothing to measure. *)

val add_layer : string -> t -> t
(** Record one more decoration layer (outermost first) in [caps]. *)

val has_layer : t -> string -> bool

val transport_name : transport -> string

val caps_line : caps -> string
(** One line: ["direct:all via direct [cache retry]"]. *)

val health_line : health -> string
(** One line: ["ok (0.12 ms ewma, 0 consecutive failures)"]. *)

val serialized : Mutex.t -> t -> t
(** [serialized lock d]: every target-touching operation ([get_bytes],
    [put_bytes], [alloc_space], [call_func], [find_variable], [frames])
    runs holding [lock], so multiple OCaml 5 domains can share one
    backend whose implementation assumes a single thread (the direct
    in-process simulator).  The granularity is one lock hold per
    operation — a domain's query interleaves with its peers at the same
    per-access boundary concurrent RSP clients always did, and writes
    are serialized rather than refused.  [abi] and [tenv] are immutable
    after construction and [health] only reads counters; they are left
    unwrapped.  Adds the ["lock"] layer to [caps].  Pass the same
    [lock] to every wrapper sharing one target. *)

val readable : t -> addr:int -> len:int -> bool
(** [true] iff [get_bytes] would succeed — used by [-->] traversals to
    recognise invalid pointers without raising.  Always [true] for
    [len = 0], per the zero-length convention above.  When a readability
    probe is registered for [dbg] (see {!register_probe}), it is consulted
    instead of issuing a [get_bytes] — the data cache answers from already
    cached lines without a backend round-trip. *)

val register_probe : t -> (addr:int -> len:int -> bool) -> unit
(** Attach a readability probe to [dbg] (compared by physical identity).
    Used by {!Dcache.wrap}; the probe is only consulted for [len > 0]. *)

val unregister_probe : t -> unit
(** Drop [dbg]'s probe, if any ({!Dcache.release}). *)

(** {1 Scalar helpers}

    Endian-aware integer access on top of [get_bytes]/[put_bytes] and
    {!Duel_mem.Codec}, so that consumers (the C-baseline queries, the value
    machinery) do not hand-roll byte decoding against the record.  The
    record itself stays paper-narrow: these are functions {e over} the
    interface, not members of it. *)

val read_scalar : t -> addr:int -> size:int -> signed:bool -> int64
(** Read one scalar of [size] bytes (1, 2, 4, or 8), sign-extending iff
    [signed].
    @raise Target_fault as [get_bytes] does.
    @raise Invalid_argument on a bad size. *)

val write_scalar : t -> addr:int -> size:int -> int64 -> unit
(** Store the low [size] bytes of the value in the ABI's byte order. *)
