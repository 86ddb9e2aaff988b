module Memory = Duel_mem.Memory
module Dbgi = Duel_dbgi.Dbgi
module Dcache = Duel_dbgi.Dcache

(* The memory is in-process, so the cache snoops its write generation:
   stores that bypass the interface (the mini-C interpreter, scenario
   builders, another shard) invalidate on the next access instead of
   going stale. *)
let cached inf dbg =
  let mem = Inferior.mem inf in
  Dcache.wrap
    ~config:
      {
        Dcache.default_config with
        stale_policy = Dcache.Probe (fun () -> Memory.generation mem);
      }
    dbg

let direct ?(cache = true) inf =
  let mem = Inferior.mem inf in
  let raw =
    {
      Dbgi.abi = Inferior.abi inf;
    get_bytes =
      (fun ~addr ~len ->
        try Memory.read mem ~addr ~len
        with Memory.Fault fault ->
          raise (Dbgi.Target_fault { addr = fault; len }));
    put_bytes =
      (fun ~addr data ->
        try Memory.write mem ~addr data
        with Memory.Fault fault ->
          raise (Dbgi.Target_fault { addr = fault; len = Bytes.length data }));
      alloc_space = (fun size -> Inferior.alloc_data inf ~size ~align:16);
      call_func = (fun name args -> Inferior.call inf name args);
      find_variable = Inferior.find_variable inf;
      tenv = Inferior.tenv inf;
      frames = (fun () -> Inferior.frames inf);
      caps = Dbgi.basic_caps ~transport:Dbgi.Direct "direct";
      health = Dbgi.always_healthy;
    }
  in
  if cache then cached inf raw else raw
