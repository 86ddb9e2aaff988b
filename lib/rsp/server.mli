(** An RSP stub ("gdbserver") fronting a simulated inferior.

    Speaks standard memory packets plus three [qDuel] extension queries in
    the spirit of gdb's [q] packets (a real debug agent would also need
    them, because DUEL allocates scratch target space and calls target
    functions):

    {ul
    {- [m<addr>,<len>] — read memory, hex reply or [E01] on fault}
    {- [M<addr>,<len>:<hex>] — write memory, [OK] or [E01]}
    {- [qDuelAlloc:<len>] — allocate target space, reply [<addr hex>]}
    {- [qDuelCall:<name>;<arg>;...] — call a target function; each arg and
       the reply are [i<hex64>] (integer/pointer) or [f<hex64>] (double
       bits)}
    {- [qDuelFrames] — reply [<n hex>], the active frame count}
    {- [qSupported], [?], [Hg...] — handshake niceties, answered inertly}}

    Unknown packets get the RSP-standard empty reply.

    {2 Resource limits}

    The stub serves a shared target, possibly to many connections at
    once (see [Duel_serve]), so per-request sizes are bounded: reads and
    writes beyond {!limits.max_read}/{!limits.max_write} bytes and
    allocations beyond {!limits.max_alloc} (or a heap-exhausted
    allocator) reply [E02] instead of performing the operation or
    raising — one greedy client cannot exhaust the simulated target or
    provoke an unbounded reply. *)

type limits = {
  max_read : int;  (** largest [m] read, bytes *)
  max_write : int;  (** largest [M] write, bytes *)
  max_alloc : int;  (** largest single [qDuelAlloc], bytes *)
}

val default_limits : limits
(** 4 KiB reads and writes (comfortably above the advertised
    [PacketSize]), 1 MiB allocations. *)

type t

val create : ?limits:limits -> Duel_target.Inferior.t -> t

val handle_payload : t -> string -> string
(** Process one decoded payload, returning the reply payload. *)

val reply_frame : t -> string -> string
(** {!handle_payload} framed, a protocol error as [E00]. *)

val handle : t -> string -> string
(** Process one framed packet ([$...#xx]) and return the framed reply.
    Malformed packets get a NAK ["-"]. *)
