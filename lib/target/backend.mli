(** The direct in-process debugger backend.

    [direct inf] wraps a simulated inferior in the paper's narrow debugger
    interface — the moral equivalent of DUEL's ~400-line gdb glue module.
    Memory faults ({!Duel_mem.Memory.Fault}) surface as
    {!Duel_dbgi.Dbgi.Target_fault} carrying the exact faulting byte address
    and the length of the attempted access; zero-length transfers always
    succeed, per the interface convention.

    By default the interface is wrapped in {!Duel_dbgi.Dcache} with a
    coherence probe on the inferior's memory, so direct stores (the
    mini-C interpreter, scenario builders) invalidate it automatically;
    pass [~cache:false] for the raw, uncached interface (the inferior's
    own store path, conformance baselines).  No read-ahead is attached:
    in-process memory has no round trip to amortise. *)

val direct : ?cache:bool -> Inferior.t -> Duel_dbgi.Dbgi.t

val cached : Inferior.t -> Duel_dbgi.Dbgi.t -> Duel_dbgi.Dbgi.t
(** [cached inf dbg] fronts [dbg] with a {!Duel_dbgi.Dcache} whose
    coherence probe reads [inf]'s memory write-generation — the wrap
    [direct] applies by default, for any interface over [inf]. *)
