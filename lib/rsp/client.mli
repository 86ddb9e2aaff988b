(** The RSP-backed debugger interface.

    Implements {!Duel_dbgi.Dbgi.t} over an RSP byte exchange: memory
    reads/writes, target-space allocation, and target-function calls go
    over the wire; symbols and types come from local "debug info" — just
    as gdb reads symbols and types from the executable file and uses the
    remote protocol only for the live process state.

    The [exchange] function carries one framed packet each way (a network
    transport, or {!loopback} for an in-process server). *)

type debug_info = {
  di_abi : Duel_ctype.Abi.t;
  di_tenv : Duel_ctype.Tenv.t;
  di_find_variable : string -> Duel_dbgi.Dbgi.var_info option;
  di_frames : unit -> Duel_dbgi.Dbgi.frame_info list;
}

val debug_info_of_inferior : Duel_target.Inferior.t -> debug_info
(** Extract the "executable side" information from a simulated inferior —
    what gdb would have parsed out of the binary's debug sections. *)

val connect : exchange:(string -> string) -> debug_info -> Duel_dbgi.Dbgi.t
(** @raise Failure on protocol errors. *)

val of_rpc : rpc:(string -> string) -> debug_info -> Duel_dbgi.Dbgi.t
(** [connect] for a transport that already frames, checks and deframes:
    [rpc] carries one payload each way. *)

val loopback :
  ?cache:bool -> ?prefetch:bool -> Duel_target.Inferior.t -> Duel_dbgi.Dbgi.t
(** A ready-made client wired to an in-process {!Server} over the framed
    packet format (every byte still goes through encode/decode).  By
    default wrapped in {!Duel_dbgi.Dcache} (with a write-generation
    coherence probe on the in-process memory) with read-ahead, so that
    traversals cost one packet per missed page block instead of one per
    scalar ([~prefetch:false]: one per line); [~cache:false] gives the
    raw one-packet-per-access client. *)
