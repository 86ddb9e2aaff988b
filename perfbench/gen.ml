(* Seeded command sequences and their golden outputs.

   Goldens never come from the engine under test: they are either the
   paper's transcripts (golden.txt) or computed here from the scenarios'
   definitions.  Each workload's sequence is a fixed multiset of commands
   shuffled by the seed, so every seed has the same command mix and the
   same light/heavy share; only the order and the cost-neutral parameters
   (which cell, which bucket) change. *)

(* [Heavy] commands are the ones heavy_p50_ms times; [Scan]s are the
   other scans and traversals. *)
type kind = Light | Scan | Heavy

type cmd = { text : string; golden : string list; kind : kind }

(* A step of the local and remote workloads: the program resumes and
   stops (a store of the value already in x[resume], straight into target
   memory behind the cache, so the command finds every cache stale), then
   one command at the duel> prompt. *)
type step = { cmd : cmd; resume : int }

let rng seed salt = Random.State.make [| seed; salt |]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* --- the paper's transcripts ------------------------------------------- *)

let load_paper path =
  let ic = open_in_bin path in
  let rec lines acc =
    match input_line ic with
    | l -> lines (l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  let kind = ref Light in
  let out = ref [] in
  let cur = ref None in
  let close () =
    match !cur with
    | Some (k, text, golden) ->
        out := { text; golden = List.rev golden; kind = k } :: !out;
        cur := None
    | None -> ()
  in
  List.iter
    (fun l ->
      let has p = String.length l >= String.length p && String.sub l 0 (String.length p) = p in
      let rest p = String.sub l (String.length p) (String.length l - String.length p) in
      if has "# " || l = "" then ()
      else if has "@ " then (
        close ();
        kind :=
          match rest "@ " with
          | "heavy" -> Heavy
          | "scan" -> Scan
          | _ -> Light)
      else if has "> " then (
        close ();
        cur := Some (!kind, rest "> ", []))
      else
        match !cur with
        | Some (k, t, g) -> cur := Some (k, t, l :: g)
        | None -> failwith ("golden.txt: output line before any command: " ^ l))
    (lines []);
  close ();
  List.rev !out

(* --- the "all" scenario, from its definition -------------------------- *)

(* x[100]: zero except these cells. *)
let x_value i =
  match i with 3 -> 7 | 18 -> 9 | 47 -> 6 | 60 -> 12 | 77 -> 25 | _ -> 0

(* Buckets with a generic chain: 1 + b mod 3 symbols, scopes counting
   down to 1 (the special buckets 0, 1, 9, 42, 287, 529 are excluded). *)
let generic_bucket st ~len =
  let rec draw () =
    let b = 2 + Random.State.int st 1000 in
    if List.mem b [ 9; 42; 287; 529 ] || 1 + (b mod 3) <> len then draw () else b
  in
  draw ()

let chain_len b = 1 + (b mod 3)

(* A symbolic access path: [base], then the [fields] in order, then
   [rest], with every run of four or more identical ->field steps
   compressed to -->field[[n]] (the paper's threshold-4 compression). *)
let fields_path base fields rest =
  let rec runs acc = function
    | [] -> List.rev acc
    | f :: tl -> (
        match acc with
        | (g, n) :: acc' when g = f -> runs ((g, n + 1) :: acc') tl
        | _ -> runs ((f, 1) :: acc) tl)
  in
  base
  ^ String.concat ""
      (List.map
         (fun (f, n) ->
           if n >= 4 then Printf.sprintf "-->%s[[%d]]" f n
           else String.concat "" (List.init n (fun _ -> "->" ^ f)))
         (runs [] fields))
  ^ rest

let path base field n rest = fields_path base (List.init n (fun _ -> field)) rest

let bucket_walk b =
  let n = chain_len b in
  {
    text = Printf.sprintf "hash[%d]-->next->scope" b;
    golden =
      List.init n (fun i ->
          Printf.sprintf "%s = %d"
            (path (Printf.sprintf "hash[%d]" b) "next" i "->scope")
            (n - i));
    kind = Light;
  }

let x_read i =
  { text = Printf.sprintf "x[%d]" i;
    golden = [ Printf.sprintf "x[%d] = %d" i (x_value i) ]; kind = Light }

(* A DUEL store of the value already there, then a read of it. *)
let x_store i =
  let v = x_value i in
  { text = Printf.sprintf "x[%d] = %d; x[%d]" i v i;
    golden = [ Printf.sprintf "x[%d] = %d" i v ]; kind = Light }

let scope_store b =
  let n = chain_len b in
  { text = Printf.sprintf "hash[%d]->scope = %d; hash[%d]->scope" b n b;
    golden = [ Printf.sprintf "hash[%d]->scope = %d" b n ]; kind = Light }

(* One cycle of the local/remote sequence: every paper one-liner and
   scan twice, four single-cell reads, four bucket walks (chains of 1, 2,
   3 and 3 symbols) and four same-value stores, each after a resume. *)
let repl_cycle ~seed paper =
  let st = rng seed 1 in
  let cell () = Random.State.int st 100 in
  let cmds =
    List.concat_map (fun c -> [ c; c ]) paper
    @ List.init 4 (fun _ -> x_read (cell ()))
    @ List.map (fun len -> bucket_walk (generic_bucket st ~len)) [ 1; 2; 3; 3 ]
    @ List.init 2 (fun _ -> x_store (cell ()))
    @ List.map (fun len -> scope_store (generic_bucket st ~len)) [ 1; 3 ]
  in
  shuffle st (Array.of_list (List.map (fun cmd -> { cmd; resume = cell () }) cmds))

(* --- deep_tree:D, from its definition ----------------------------------- *)

(* A complete binary tree of depth [tree_depth] whose keys number the
   nodes in preorder.  The node reached by [dirs] from the root: its key. *)
let tree_depth = 10

let tree_key dirs =
  let rec go key depth = function
    | [] -> key
    | d :: tl ->
        let left_size = (1 lsl (tree_depth - depth - 1)) - 1 in
        go (if d = "left" then key + 1 else key + 1 + left_size) (depth + 1) tl
  in
  go 0 0 dirs

(* Every node's path, in preorder (which is key order). *)
let tree_paths () =
  let rec go dirs depth =
    if depth = tree_depth then []
    else
      List.rev dirs
      :: (go ("left" :: dirs) (depth + 1) @ go ("right" :: dirs) (depth + 1))
  in
  go [] 0

let tree_line dirs = Printf.sprintf "%s = %d" (fields_path "droot" dirs "->key") (tree_key dirs)

(* The paper's guided tree search (golden.txt's
   root-->(if (key > 5) left else if (key < 5) right)->key), adapted to
   preorder keys: below a node, key K lies in the right subtree when the
   right child's key is at most K, and the search stops at K itself.  It
   prints the key of every node on the path from the root to K.

   The condition reads +/(right->key), not right->key: an if keeps its
   condition's -> scope open while its branch runs (on every engine), so
   the plain form would step to right->right; the reduction closes the
   scope first.  README.md lists this among the findings. *)
let tree_search dirs =
  let k = tree_key dirs in
  {
    text =
      Printf.sprintf "droot-->(if (key < %d) (if (+/(right->key) > %d) left else right))->key"
        k k;
    golden =
      List.init
        (List.length dirs + 1)
        (fun i -> tree_line (List.filteri (fun j _ -> j < i) dirs));
    kind = Light;
  }

(* The searched keys: 64 a cycle, spread over the depths as a uniform draw
   over the 1023 keys spreads them (2^d keys sit at depth d; rounded, that
   is one key each at depths 3 and 4, two at 5, four at 6, ..., 32 leaves
   at depth 9), so every seed searches the same mix of path lengths. *)
let search_depths = [ (3, 1); (4, 1); (5, 2); (6, 4); (7, 8); (8, 16); (9, 32) ]

(* The path to the [i]th node at depth [d], counting from the left. *)
let node_at d i =
  List.init d (fun b -> if (i lsr (d - 1 - b)) land 1 = 1 then "right" else "left")

(* One cycle of the tree workload, each command after a resume: the
   guided searches, and three whole-tree traversals.  The count is what
   heavy_p50_ms times; a search for a seeded key and a filter on
   key % 100 are the other traversals. *)
let tree_cycle ~seed =
  let st = rng seed 6 in
  (* The n keys searched at depth d are spread evenly: the jth is the
     middle node of the jth of n equal runs of that depth's nodes.  They
     are the same on every seed, which only orders them: a search costs
     one round trip per line its path misses, so its cost steps with its
     key, and with seeded keys cmd_p50_ms moved by a whole round trip
     (8%) from one seed to the next. *)
  let searches (d, n) =
    let run = (1 lsl d) / n in
    List.init n (fun j -> tree_search (node_at d ((j * run) + (run / 2))))
  in
  let nodes = (1 lsl tree_depth) - 1 in
  let paths = tree_paths () in
  let traversal kind text golden = { text; golden; kind } in
  let key = Random.State.int st nodes in
  let cmds =
    List.concat_map searches search_depths
    @ [
        traversal Heavy "#/(droot-->(left,right))"
          [ Printf.sprintf "#/(droot-->(left,right)) = %d" nodes ];
        traversal Scan
          (Printf.sprintf "droot-->(left,right)->key ==? %d" key)
          (List.filter_map
             (fun d -> if tree_key d = key then Some (tree_line d) else None)
             paths);
        traversal Scan "droot-->(left,right)->(if (key % 100 == 0) key)"
          (List.filter_map
             (fun d -> if tree_key d mod 100 = 0 then Some (tree_line d) else None)
             paths);
      ]
  in
  shuffle st (Array.of_list (List.map (fun cmd -> { cmd; resume = 0 }) cmds))

(* --- the deep_list fleet members --------------------------------------- *)

(* deep node i holds 3i; the buggy twin's node n/2 holds 3(n/2) + 1. *)
let deep_value ~buggy n i = if buggy && i = n / 2 then (3 * i) + 1 else 3 * i
let deep_line i v = Printf.sprintf "%s = %d" (path "deep" "next" i "->value") v

(* The fan-out commands and each leg's golden: a traversal printing every
   node, a filter that finds the seeded divergence, and value searches
   (one aimed at the seeded node) that take the quadratic symbolic path. *)
let heavy_cmds ~seed n =
  let st = rng seed 2 in
  let legs f = [ ("good", f ~buggy:false); ("bad", f ~buggy:true) ] in
  let all_nodes ~buggy = List.init n (fun i -> deep_line i (deep_value ~buggy n i)) in
  let not_mult3 ~buggy =
    List.filter_map
      (fun i ->
        let v = deep_value ~buggy n i in
        if v mod 3 <> 0 then Some (deep_line i v) else None)
      (List.init n Fun.id)
  in
  let search m ~buggy =
    List.filter_map
      (fun i ->
        let v = deep_value ~buggy n i in
        if v = 3 * m then Some (deep_line i v) else None)
      (List.init n Fun.id)
  in
  let other = Random.State.int st n in
  [
    ("deep-->next->value", legs all_nodes);
    ("deep-->next->(if (value % 3) value)", legs not_mult3);
    (Printf.sprintf "deep-->next->value ==? %d" (3 * (n / 2)), legs (search (n / 2)));
    (Printf.sprintf "deep-->next->value ==? %d" (3 * other), legs (search other));
  ]

(* The light connection's cycle: every paper one-liner, shuffled. *)
let serve_light_cycle ~seed paper =
  shuffle (rng seed 3) (Array.of_list (List.concat_map (fun c -> [ c; c ]) paper))

(* The heavy connection's schedule: the fan-out commands in seeded order. *)
let serve_heavy_cycle ~seed heavy = shuffle (rng seed 4) (Array.of_list heavy)

(* --- the watchpoint program -------------------------------------------- *)

(* bump(k) toggles the low bit of the first k cells; each toggle changes
   the watched count by one, so bump(k) fires the watchpoint k times.  A
   cycle is six each of bump(1), bump(2), bump(3) and one each of
   bump(10), bump(11), bump(12). *)
let watch_cycle ~seed =
  let light = List.concat (List.init 6 (fun _ -> [ 1; 2; 3 ])) in
  shuffle (rng seed 5)
    (Array.of_list
       (List.map (fun k -> (k, Light)) light
       @ List.map (fun k -> (k, Heavy)) [ 10; 11; 12 ]))
