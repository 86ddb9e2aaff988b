(* In-memory spans around the driver's calls into the library, written out
   at the end as Chrome trace-event JSON (opens in Perfetto).

   A span records its name, start, end, parent and the id of the command
   it belongs to; counter deltas taken at the same boundaries ride along
   as [args].  Nothing is recorded unless the recorder is on, and the
   untraced runs never create one. *)

type span = {
  id : int;
  name : string;
  cmd : int;  (** command id shared by every span of one command *)
  parent : int;  (** parent span id, -1 for a root *)
  t0 : float;
  mutable t1 : float;
  mutable args : (string * float) list;
}

type t = {
  lane : string;  (** one Perfetto process per workload *)
  mutable spans : span list;  (** newest first *)
  mutable open_ : span list;  (** innermost first *)
  mutable next_id : int;
  mutable cur_cmd : int;
}

let create lane = { lane; spans = []; open_ = []; next_id = 0; cur_cmd = -1 }
let set_cmd t cmd = t.cur_cmd <- cmd

let span t ?(args = fun () -> []) name f =
  let parent = match t.open_ with s :: _ -> s.id | [] -> -1 in
  let s =
    { id = t.next_id; name; cmd = t.cur_cmd; parent; t0 = Unix.gettimeofday ();
      t1 = nan; args = [] }
  in
  t.next_id <- t.next_id + 1;
  t.open_ <- s :: t.open_;
  let finish () =
    s.t1 <- Unix.gettimeofday ();
    t.open_ <- List.tl t.open_;
    t.spans <- s :: t.spans
  in
  match f () with
  | v ->
      finish ();
      s.args <- args ();
      v
  | exception e ->
      finish ();
      raise e

(* Record a span whose interval was measured elsewhere (a reply that
   completed while the driver was busy with another connection). *)
let add t ?(parent = -1) name ~t0 ~t1 =
  let s = { id = t.next_id; name; cmd = t.cur_cmd; parent; t0; t1; args = [] } in
  t.next_id <- t.next_id + 1;
  t.spans <- s :: t.spans;
  s.id

let spans t = List.rev t.spans

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered lo hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max lo a and b = Float.min hi b in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0., None) sorted
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

(* Self time: a span's duration minus the part of it its children cover. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then Hashtbl.add children s.parent (s.t0, s.t1))
    spans;
  List.map
    (fun s ->
      (s, s.t1 -. s.t0 -. covered s.t0 s.t1 (Hashtbl.find_all children s.id)))
    spans

(* Total self time per span name, in seconds. *)
let self_by_name spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let prev = Option.value (Hashtbl.find_opt tbl s.name) ~default:0. in
      Hashtbl.replace tbl s.name (prev +. self))
    (self_times spans);
  fun name -> Option.value (Hashtbl.find_opt tbl name) ~default:0.

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Chrome trace-event JSON: one complete ("X") event per span, times in
   microseconds from the earliest span, one pid per lane. *)
let write_chrome path (lanes : t list) =
  let all = List.concat_map (fun t -> List.map (fun s -> (t, s)) (spans t)) lanes in
  let origin = List.fold_left (fun m (_, s) -> Float.min m s.t0) infinity all in
  let oc = open_out_bin path in
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i (pid, t) ->
      Printf.fprintf oc
        "%s{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%d,\"tid\":1,\"args\":{\"name\":%s}}"
        (if i = 0 then "" else ",\n")
        pid (json_string t.lane))
    (List.mapi (fun i t -> (i + 1, t)) lanes);
  let pid t =
    let rec find i = function
      | [] -> 0
      | l :: rest -> if l == t then i else find (i + 1) rest
    in
    find 1 lanes
  in
  List.iter
    (fun (t, s) ->
      let args =
        ("cmd", float_of_int s.cmd) :: ("parent", float_of_int s.parent)
        :: s.args
      in
      Printf.fprintf oc
        ",\n{\"ph\":\"X\",\"name\":%s,\"pid\":%d,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{%s}}"
        (json_string s.name) (pid t)
        ((s.t0 -. origin) *. 1e6)
        ((s.t1 -. s.t0) *. 1e6)
        (String.concat ","
           (List.map
              (fun (k, v) -> Printf.sprintf "%s:%.17g" (json_string k) v)
              args)))
    all;
  output_string oc "\n]}\n";
  close_out oc
