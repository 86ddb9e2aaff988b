(* The target fleet: N named debuggees behind one serving instance.

   mdb's lesson (PAPERS.md) is that the debugger core should never know
   how many targets exist; this module is where that count lives.  A
   fleet is an immutable array of named targets — each a scenario
   instance with its own lock, its own write-generation (the coherence
   source for per-target data and plan caches), and its own observable
   counters.  The serve layer builds one shard-local access interface
   per (shard, target) pair from {!shard_dbgi}; the fleet object itself
   is shared by every shard, so the per-target locks serialize raw
   access across domains and the atomic counters aggregate for free.

   The scenario grammar also lives here (it used to be private to
   [Duel_backend]): the fleet is where new scenarios — notably the
   seeded-buggy twins for relative debugging — become addressable, and
   the backend spec language delegates to {!scenario_of_name} so the
   same names work in [--target] specs and fleet slots. *)

module Dbgi = Duel_dbgi.Dbgi
module Inferior = Duel_target.Inferior
module Memory = Duel_mem.Memory
module Scenarios = Duel_scenarios.Scenarios

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

(* ------------------------------------------------------------------ *)
(* The scenario grammar *)

let scenario_grammar =
  "all, symtab, faulty, big:N, deep_list:N, deep_tree:N, deep_list_buggy:N, \
   deep_list_swapped:N, deep_tree_buggy:N"

let inferior_of_scenario name =
  let name = String.trim name in
  let num what n =
    match int_of_string_opt n with
    | Some v when v > 0 -> v
    | _ -> bad "scenario %s: expected a positive count, got %S" what n
  in
  match String.split_on_char ':' name with
  | [ "all" ] | [ "" ] -> Scenarios.all ()
  | [ "symtab" ] -> Scenarios.symtab ()
  | [ "faulty" ] -> Scenarios.faulty ()
  | [ "big"; n ] -> Scenarios.big_array (num "big" n)
  | [ "deep_list"; n ] -> Scenarios.deep_list (num "deep_list" n)
  | [ "deep_tree"; n ] -> Scenarios.deep_tree (num "deep_tree" n)
  | [ "deep_list_buggy"; n ] ->
      Scenarios.deep_list_buggy ~bug:Scenarios.Off_by_one
        (num "deep_list_buggy" n)
  | [ "deep_list_swapped"; n ] ->
      Scenarios.deep_list_buggy ~bug:Scenarios.Swapped_link
        (num "deep_list_swapped" n)
  | [ "deep_tree_buggy"; n ] ->
      Scenarios.deep_tree_buggy (num "deep_tree_buggy" n)
  | _ -> bad "unknown scenario %S (want %s)" name scenario_grammar

let scenario_of_name name =
  match inferior_of_scenario name with
  | inf -> Ok inf
  | exception Bad m -> Error m

(* ------------------------------------------------------------------ *)
(* Targets *)

type tstats = {
  binds : int Atomic.t;  (* qDuelUse bindings *)
  evals : int Atomic.t;  (* queries evaluated against this target *)
  values : int Atomic.t;  (* result lines those queries streamed *)
  errors : int Atomic.t;  (* evals whose output reported an error *)
}

type target = {
  id : string;
  spec : string;  (* as written in the fleet slot, e.g. "dead:all" *)
  inf : Inferior.t;
  dead : bool;
  lock : Mutex.t;  (* serializes raw target access across shards *)
  wrap : Dbgi.t -> Dbgi.t;  (* extra decoration (chaos rigs); id by default *)
  tstats : tstats;
}

type t = { members : target array }

let targets t = Array.to_list t.members
let ids t = Array.to_list (Array.map (fun tg -> tg.id) t.members)
let size t = Array.length t.members
let find t id = Array.find_opt (fun tg -> tg.id = id) t.members
let generation tg = Memory.generation (Inferior.mem tg.inf)

(* The sum is monotone under any single target's store, so it serves as
   the coherence stamp for artifacts spanning the whole fleet (the
   fan-out's shared plan entries). *)
let generation_sum t =
  Array.fold_left (fun acc tg -> acc + generation tg) 0 t.members

let note_bind tg = Atomic.incr tg.tstats.binds

let note_eval tg ~values ~error =
  Atomic.incr tg.tstats.evals;
  ignore (Atomic.fetch_and_add tg.tstats.values values);
  if error then Atomic.incr tg.tstats.errors

(* Ids travel inside reply frames tagged per-target, so they must stay
   clear of the frame syntax (',', ';', '=', '*'). *)
let id_ok id =
  id <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '_' || c = '-' || c = '.')
       id

(* Local debug information, dead live target: every wire-class operation
   raises the typed transient fault (zero-length ops and static queries
   still succeed), so a fan-out over a dead slot reports the fault in
   that slot's stream and nowhere else, and a dispatcher trips a dead
   replica. *)
let dead_of inf =
  let raw = Duel_target.Backend.direct ~cache:false inf in
  let down ~addr ~len = raise (Dbgi.Target_transient { addr; len }) in
  {
    raw with
    Dbgi.get_bytes =
      (fun ~addr ~len -> if len = 0 then Bytes.create 0 else down ~addr ~len);
    put_bytes =
      (fun ~addr data ->
        if Bytes.length data = 0 then ()
        else down ~addr ~len:(Bytes.length data));
    alloc_space = (fun size -> down ~addr:0 ~len:size);
    call_func = (fun _ _ -> down ~addr:0 ~len:0);
    frames = (fun () -> down ~addr:0 ~len:0);
    caps = Dbgi.basic_caps ~transport:Dbgi.Synthetic "dead";
  }

(* One member over a debuggee that already exists — the one constructor
   every target goes through. *)
let member ?(wrap = fun _ dbg -> dbg) ?(dead = false) ~id ~spec inf =
  {
    id;
    spec;
    inf;
    dead;
    lock = Mutex.create ();
    wrap = wrap id;
    tstats =
      {
        binds = Atomic.make 0;
        evals = Atomic.make 0;
        values = Atomic.make 0;
        errors = Atomic.make 0;
      };
  }

let of_inferior ~spec inf = { members = [| member ~id:"main" ~spec inf |] }

let create ?wrap slots =
  match
    if slots = [] then bad "a fleet needs at least one target";
    let seen = Hashtbl.create 8 in
    List.map
      (fun (id, spec) ->
        if not (id_ok id) then
          bad "bad target id %S (want letters, digits, '_', '-', '.')" id;
        if Hashtbl.mem seen id then bad "duplicate target id %S" id;
        Hashtbl.add seen id ();
        let dead, scen =
          if String.length spec >= 5 && String.sub spec 0 5 = "dead:" then
            (true, String.sub spec 5 (String.length spec - 5))
          else (false, spec)
        in
        member ?wrap ~dead ~id ~spec (inferior_of_scenario scen))
      slots
  with
  | members -> Ok { members = Array.of_list members }
  | exception Bad m -> Error m

(* ------------------------------------------------------------------ *)
(* The fleet spec: fleet(id=scenario,id=dead:scenario,...) *)

let is_fleet_spec s =
  let s = String.trim s in
  String.length s > 6
  && String.sub s 0 6 = "fleet("
  && s.[String.length s - 1] = ')'

let parse s =
  let s = String.trim s in
  if not (is_fleet_spec s) then
    Error (Printf.sprintf "not a fleet spec: %S (want fleet(id=scenario,...))" s)
  else
    let inner = String.sub s 6 (String.length s - 7) in
    match
      String.split_on_char ',' inner
      |> List.map String.trim
      |> List.filter (fun x -> x <> "")
      |> List.map (fun slot ->
             match String.index_opt slot '=' with
             | None -> bad "fleet slot %S: expected id=scenario" slot
             | Some i ->
                 ( String.trim (String.sub slot 0 i),
                   String.trim
                     (String.sub slot (i + 1) (String.length slot - i - 1)) ))
    with
    | slots -> Ok slots
    | exception Bad m -> Error m

let of_string ?wrap s =
  match parse s with Error m -> Error m | Ok slots -> create ?wrap slots

(* The qDuelTargets reply (and the canonical spelling of the fleet). *)
let describe t =
  String.concat ","
    (Array.to_list (Array.map (fun tg -> tg.id ^ "=" ^ tg.spec) t.members))

(* ------------------------------------------------------------------ *)
(* Per-shard access *)

(* One shard's interface to one target: direct (or dead) raw access,
   serialized per-operation by the target's own lock — so two shards
   evaluating against {e different} targets never contend — decorated
   by the target's [wrap], and fronted by a shard-local data cache
   whose generation probe snoops this target's write counter (a store
   through any shard retires every sibling's cached lines for this
   target, and only this target). *)
let shard_dbgi ?(cache = true) tg =
  let base =
    if tg.dead then dead_of tg.inf
    else Duel_target.Backend.direct ~cache:false tg.inf
  in
  let base = tg.wrap (Dbgi.serialized tg.lock base) in
  if cache then Duel_target.Backend.cached tg.inf base else base
