(* Differential tests: the lazy-Seq engine and the paper-faithful
   state-machine engine must produce identical output on everything —
   a fixed corpus covering every operator, plus randomly generated
   expressions.  Also checks the with-stack depth invariant. *)

open Support
module Session = Duel_core.Session
module Env = Duel_core.Env

let corpus =
  [
    "1 + (double)3/2";
    "(1,2,5)*4+(10,200)";
    "(1..3)+(5,9)";
    "(1,5)..(5,10)";
    "x[1..4,8,12..50] >? 5 <? 10";
    "x[1..3] == 7";
    "(hash[..1024] !=? 0)->scope >? 5";
    "hash[1,9]->(scope,name)";
    "hash[0]-->next->scope";
    "root-->(left,right)->key";
    "root-->>(left,right)->key";
    "root-->(if (key > 5) left else if (key < 5) right)->key";
    "#/(root-->(left,right)->key)";
    "+/(root-->(left,right)->key)";
    "&&/(v[..8])";
    "||/(w[..10] >? 100)";
    "hash[..1024]-->next->if (next) scope <? next->scope";
    "head-->next->value[[3,5]]";
    "((1..9)*(1..9))[[52,74]]";
    "(0..)[[5,2,7]]";
    "L-->next#i->value ==? L-->next#j->value => if (i < j) L-->next[[i,j]]->value";
    "w[..10].if (_ < 0 || _ > 100) _";
    "y := w[..10] => if (y < 0 || y > 100) y";
    "int q0; for (q0 = 0; q0 < 9; q0++) 4 + if (q0%3 == 0) {q0}*5";
    "i := 1..3; i + 4";
    "i := 1..3 => {i} + 4";
    "printf(\"%d %d, \", (3,4), 5..7)";
    "argv[0..]@0";
    "s[0..999]@(_=='\\0')";
    "(3,2,1,0,5)@0";
    "(head-->next@(value == 29))->value";
    "hash[0]-->next@(scope == 2)->name";
    "L-->next->(value ==? next-->next->value)";
    "frames.n";
    "frame(0..2).acc";
    "sizeof(struct symbol)";
    "sizeof hash";
    "v[..8] ==/ v[..8]";
    "(1..3) ==/ (1,2)";
    "paint, RED, BLUE";
    "pk.(lo, mid, hi)";
    "uv.i, uv.c[0]";
    "mat[..3][..4] >? 20";
    "dd * (1..3)";
    "w[0] = (5, 9); w[0]";
    "value := 5; L->value = value; L->value";
    "L->(value = value + 1); L->value";
    "w[0..2] += 10; w[..3]";
    "int k0; k0 = 0; while (k0 < 3) (k0++; k0)";
    "-x[3], ~x[3], !x[3]";
    "&x[5] - &x[2]";
    "*(x + 3)";
    "(char)321, (unsigned)-1";
    "hash[2]->name[0]";
    "strcmp(argv[0], \"duel\"), strlen(s)";
    "x[0] ? 111 : 222, x[3] ? 111 : 222";
    "(0,1,2) && 7";
    "(0,3) || 9";
    "1..0";
    "..0";
    "(1..0)+(5,9)";
    "5 >? (1,2)";
  ]

(* Run a query on both engines against identical fresh debuggees; output
   lines and captured target stdout must agree; the with-scope stack must
   be restored afterwards. *)
let run_both query =
  let run engine =
    let k = kit ~engine () in
    let lines = exec k query in
    let out = Duel_target.Inferior.take_output k.inf in
    let depth = Env.scope_depth k.session.Session.env in
    (lines, out, depth)
  in
  (run Session.Seq_engine, run Session.Sm_engine)

let corpus_case query =
  Support.case ("engines agree: " ^ query) (fun () ->
      let (l1, o1, d1), (l2, o2, d2) = run_both query in
      Alcotest.(check (list string)) "output lines" l1 l2;
      Alcotest.(check string) "target stdout" o1 o2;
      Alcotest.(check int) "seq engine scope depth restored" 0 d1;
      Alcotest.(check int) "sm engine scope depth restored" 0 d2)

(* Random expression generator over the kitchen-sink debuggee's globals.
   Restricted to side-effect-free operators so that sequencing differences
   cannot mask bugs (side effects are covered by the corpus). *)
let gen_query : string QCheck2.Gen.t =
  let open QCheck2.Gen in
  let atom =
    oneofl
      [ "1"; "3"; "0"; "42"; "x[3]"; "w[1]"; "v[2]"; "dd"; "paint"; "'a'";
        "i0"; "argc"; "2.5"; "L->value"; "head->value"; "root->key" ]
  in
  let small = oneofl [ "1"; "2"; "3"; "0"; "5" ] in
  let rec expr n =
    if n <= 0 then atom
    else
      frequency
        [
          (4, atom);
          (3, map2 (fun a b -> Printf.sprintf "(%s)+(%s)" a b) (expr (n - 1)) (expr (n - 1)));
          (2, map2 (fun a b -> Printf.sprintf "(%s)*(%s)" a b) (expr (n - 1)) (expr (n - 1)));
          (2, map2 (fun a b -> Printf.sprintf "(%s),(%s)" a b) (expr (n - 1)) (expr (n - 1)));
          (2, map2 (fun a b -> Printf.sprintf "(%s)..(%s)" a b) small small);
          (2, map2 (fun a b -> Printf.sprintf "(%s) >? (%s)" a b) (expr (n - 1)) (expr (n - 1)));
          (2, map (fun a -> Printf.sprintf "x[..%s]" a) small);
          (1, map (fun a -> Printf.sprintf "#/(%s)" a) (expr (n - 1)));
          (1, map (fun a -> Printf.sprintf "+/(%s)" a) (expr (n - 1)));
          (1, map2 (fun a b -> Printf.sprintf "(%s)[[%s]]" a b) (expr (n - 1)) small);
          (1, map2 (fun a b -> Printf.sprintf "(%s)@(%s)" a b) (expr (n - 1)) small);
          (1, map2 (fun c t -> Printf.sprintf "if (%s) (%s)" c t) (expr (n - 1)) (expr (n - 1)));
          (1, map2 (fun c t -> Printf.sprintf "(%s) => (%s)" c t) (expr (n - 1)) (expr (n - 1)));
          (1, map2 (fun a b -> Printf.sprintf "(%s) && (%s)" a b) (expr (n - 1)) (expr (n - 1)));
          (1, map2 (fun a b -> Printf.sprintf "(%s) ==/ (%s)" a b) (expr (n - 1)) (expr (n - 1)));
          (1, map (fun a -> Printf.sprintf "L-->next->(value + (%s))" a) small);
          (1, map (fun a -> Printf.sprintf "head-->next->value[[%s]]" a) small);
          (1, map (fun a -> Printf.sprintf "w[..3].(_ + (%s))" a) small);
        ]
  in
  expr 4

let prop_engines_agree =
  QCheck2.Test.make ~name:"engines agree on random expressions" ~count:250
    gen_query (fun query ->
      let (l1, o1, d1), (l2, o2, d2) = run_both query in
      l1 = l2 && o1 = o2 && d1 = 0 && d2 = 0)

(* Directed goldens, checked on all four engines.  An [if]/[?:]
   condition keeps its [left->key] with-scope open until its sequence
   ends; that scope must not capture the branch's [left].  The engines
   agreed with each other while all four had this wrong, so only a
   golden catches it. *)
let four_engines =
  [
    ("ast", Session.Seq_engine, false);
    ("ir", Session.Seq_engine, true);
    ("sm", Session.Sm_engine, true);
    ("vm", Session.Vm_engine, true);
  ]

let directed_case (query, expected) =
  Support.case ("directed golden on every engine: " ^ query) (fun () ->
      List.iter
        (fun (name, engine, lower) ->
          let k = kit ~engine () in
          k.session.Session.lower <- lower;
          Alcotest.(check (list string)) name expected (exec k query);
          Alcotest.(check int) (name ^ ": scope depth restored") 0
            (Env.scope_depth k.session.Session.env))
        four_engines)

let directed =
  [
    ( "root-->(if (left && left->key == 3) left else 0)->key",
      [ "root->key = 9"; "root->left->key = 3" ] );
    ( "root-->(left && left->key == 3 ? left : 0)->key",
      [ "root->key = 9"; "root->left->key = 3" ] );
  ]

let suite =
  List.map corpus_case corpus
  @ [ QCheck_alcotest.to_alcotest prop_engines_agree ]
  @ List.map directed_case directed
