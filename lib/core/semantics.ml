module Ctype = Duel_ctype.Ctype
module Layout = Duel_ctype.Layout
module Tenv = Duel_ctype.Tenv
module Dbgi = Duel_dbgi.Dbgi

let no_sym = Symbolic.atom "?"
let sym_on env = env.Env.flags.Env.symbolic

(* --- type resolution ---------------------------------------------------- *)

let base_of_words words =
  let canon = List.sort compare words in
  match canon with
  | [ "void" ] -> Ctype.Void
  | [ "char" ] -> Ctype.char
  | [ "char"; "signed" ] -> Ctype.schar
  | [ "char"; "unsigned" ] -> Ctype.uchar
  | [ "short" ] | [ "int"; "short" ] | [ "short"; "signed" ] | [ "int"; "short"; "signed" ]
    ->
      Ctype.short
  | [ "short"; "unsigned" ] | [ "int"; "short"; "unsigned" ] -> Ctype.ushort
  | [ "int" ] | [ "signed" ] | [ "int"; "signed" ] -> Ctype.int
  | [ "unsigned" ] | [ "int"; "unsigned" ] -> Ctype.uint
  | [ "long" ] | [ "int"; "long" ] | [ "long"; "signed" ] | [ "int"; "long"; "signed" ] ->
      Ctype.long
  | [ "long"; "unsigned" ] | [ "int"; "long"; "unsigned" ] -> Ctype.ulong
  | [ "long"; "long" ] | [ "int"; "long"; "long" ] | [ "long"; "long"; "signed" ]
  | [ "int"; "long"; "long"; "signed" ] ->
      Ctype.llong
  | [ "long"; "long"; "unsigned" ] | [ "int"; "long"; "long"; "unsigned" ] ->
      Ctype.ullong
  | [ "float" ] -> Ctype.float
  | [ "double" ] -> Ctype.double
  | [ "double"; "long" ] -> Ctype.ldouble
  | [ "_Bool" ] -> Ctype.bool
  | words -> Error.failf "invalid type specifier '%s'" (String.concat " " words)

let rec resolve_type env ~eval_int (te : Ir.type_expr) =
  let tenv = env.Env.dbg.Dbgi.tenv in
  match te with
  | Ir.Tready t -> t
  | Ir.Tname words -> base_of_words words
  | Ir.Tstruct_ref tag -> (
      match Tenv.find_struct tenv tag with
      | Some c -> Ctype.Comp c
      | None -> Error.failf "no struct named %s" tag)
  | Ir.Tunion_ref tag -> (
      match Tenv.find_union tenv tag with
      | Some c -> Ctype.Comp c
      | None -> Error.failf "no union named %s" tag)
  | Ir.Tenum_ref tag -> (
      match Tenv.find_enum tenv tag with
      | Some e -> Ctype.Enum e
      | None -> Error.failf "no enum named %s" tag)
  | Ir.Ttypedef_ref name -> (
      match Tenv.find_typedef tenv name with
      | Some t -> t
      | None -> Error.failf "no typedef named %s" name)
  | Ir.Tptr inner -> Ctype.Ptr (resolve_type env ~eval_int inner)
  | Ir.Tarr (inner, dim) ->
      let n = Option.map (fun e -> Int64.to_int (eval_int e)) dim in
      Ctype.Array (resolve_type env ~eval_int inner, n)

(* --- with scopes -------------------------------------------------------- *)

let member_value env ~fi ~addr ~base_sym ~sep name =
  let abi = env.Env.dbg.Dbgi.abi in
  let f = fi.Layout.fi_field in
  let sym =
    if sym_on env then Symbolic.member base_sym sep name else no_sym
  in
  match f.Ctype.f_bits with
  | Some width ->
      Value.make f.Ctype.f_type
        (Value.Lbit
           {
             addr = addr + fi.Layout.fi_offset;
             unit_size = Layout.size_of abi f.Ctype.f_type;
             bit_off = fi.Layout.fi_bit_off;
             width;
           })
        sym
  | None -> Value.lvalue ~sym f.Ctype.f_type (addr + fi.Layout.fi_offset)

let field_value env ~comp ~addr ~base_sym ~sep name =
  let abi = env.Env.dbg.Dbgi.abi in
  match Layout.find_field abi comp name with
  | None -> None
  | Some fi -> Some (member_value env ~fi ~addr ~base_sym ~sep name)

let comp_scope env value comp addr sep =
  {
    Env.sc_value = value;
    sc_lookup =
      (fun name ->
        field_value env ~comp ~addr ~base_sym:value.Value.sym ~sep name);
    sc_comp =
      Some
        {
          Env.ci_comp = comp;
          ci_addr = addr;
          ci_sep = sep;
          ci_sym = value.Value.sym;
        };
  }

let plain_scope value =
  { Env.sc_value = value; sc_lookup = (fun _ -> None); sc_comp = None }

let with_scope env kind u =
  let dbg = env.Env.dbg in
  match kind with
  | Ast.Wdot -> (
      match (u.Value.typ, u.Value.st) with
      | Ctype.Comp c, (Value.Lval addr | Value.Lbit { addr; _ }) ->
          comp_scope env u c addr "."
      | _ -> plain_scope u)
  | Ast.Warrow -> (
      let uf = Value.fetch dbg u in
      match uf.Value.typ with
      | Ctype.Ptr (Ctype.Comp c) -> (
          match uf.Value.st with
          | Value.Rint p -> comp_scope env uf c (Int64.to_int p) "->"
          | _ -> plain_scope uf)
      | Ctype.Ptr _ -> plain_scope uf
      | _ ->
          Error.fail
            ~operand:(Symbolic.to_string uf.Value.sym, Value.describe uf)
            "-> applied to a non-pointer")

let node_scope env u =
  let dbg = env.Env.dbg in
  match (u.Value.typ, u.Value.st) with
  | Ctype.Comp c, (Value.Lval addr | Value.Lbit { addr; _ }) ->
      comp_scope env u c addr "."
  | _ -> (
      let uf = Value.fetch dbg u in
      match (uf.Value.typ, uf.Value.st) with
      | Ctype.Ptr (Ctype.Comp c), Value.Rint p ->
          comp_scope env uf c (Int64.to_int p) "->"
      | _ -> plain_scope uf)

let frame_count env = List.length (env.Env.dbg.Dbgi.frames ())

let frame_scope env i =
  let frames = env.Env.dbg.Dbgi.frames () in
  match List.nth_opt frames i with
  | None -> Error.failf "no active frame %d (of %d)" i (List.length frames)
  | Some fr ->
      let base = Printf.sprintf "frame(%d)" i in
      let value =
        Value.int_value ~sym:(Symbolic.atom base) Ctype.int (Int64.of_int i)
      in
      {
        Env.sc_value = value;
        sc_lookup =
          (fun name ->
            match List.assoc_opt name fr.Dbgi.fr_locals with
            | None -> None
            | Some info ->
                let sym =
                  if sym_on env then
                    Symbolic.member (Symbolic.atom base) "." name
                  else no_sym
                in
                Some (Value.lvalue ~sym info.Dbgi.v_type info.Dbgi.v_addr));
        sc_comp = None;
      }

(* --- lowered name resolution -------------------------------------------- *)

(* The full chain, classifying the result into the node's slot.  Members
   of the innermost scope cache the field layout (rebuilt from the live
   scope subject on each hit); the four stable stages cache their value
   under a generation stamp.  Outer-scope members stay transient: they
   are rare and their validity would need the whole stack compared. *)
let cache_slot env (nm : Ir.name) v =
  nm.Ir.n_slot <- Ir.Scached { c_stamp = Env.stamp env; c_value = v };
  v

let resolve_unscoped env (nm : Ir.name) =
  let name = nm.Ir.n_name in
  match Env.find_alias env name with
  | Some v -> cache_slot env nm (Value.with_sym v (Symbolic.atom name))
  | None -> (
      match Env.frame_local env name with
      | Some v -> cache_slot env nm v
      | None -> (
          match Env.global env name with
          | Some v -> cache_slot env nm v
          | None -> (
              match Env.enum_const env name with
              | Some v -> cache_slot env nm v
              | None -> Error.failf "undefined name %s" name)))

let resolve_name env (nm : Ir.name) =
  let name = nm.Ir.n_name in
  let outer rest =
    match Env.scope_find rest name with
    | Some v ->
        nm.Ir.n_slot <- Ir.Snone;
        v
    | None -> resolve_unscoped env nm
  in
  match env.Env.scopes with
  | [] -> resolve_unscoped env nm
  | sc :: rest -> (
      match sc.Env.sc_comp with
      | Some ci -> (
          match
            Layout.find_field env.Env.dbg.Dbgi.abi ci.Env.ci_comp name
          with
          | Some fi ->
              nm.Ir.n_slot <-
                Ir.Smember { m_comp = ci.Env.ci_comp; m_fi = fi };
              member_value env ~fi ~addr:ci.Env.ci_addr
                ~base_sym:ci.Env.ci_sym ~sep:ci.Env.ci_sep name
          | None -> outer rest)
      | None -> (
          match sc.Env.sc_lookup name with
          | Some v ->
              nm.Ir.n_slot <- Ir.Snone;
              v
          | None -> outer rest))

let name_value env (nm : Ir.name) =
  let ls = env.Env.lstats in
  match nm.Ir.n_slot with
  | Ir.Sdynamic ->
      ls.Env.l_dynamic <- ls.Env.l_dynamic + 1;
      Env.lookup env nm.Ir.n_name
  | Ir.Snone ->
      ls.Env.l_misses <- ls.Env.l_misses + 1;
      resolve_name env nm
  | Ir.Smember { m_comp; m_fi } -> (
      match env.Env.scopes with
      | { Env.sc_comp = Some ci; _ } :: _ when ci.Env.ci_comp == m_comp ->
          ls.Env.l_hits <- ls.Env.l_hits + 1;
          member_value env ~fi:m_fi ~addr:ci.Env.ci_addr
            ~base_sym:ci.Env.ci_sym ~sep:ci.Env.ci_sep nm.Ir.n_name
      | _ ->
          ls.Env.l_misses <- ls.Env.l_misses + 1;
          ls.Env.l_stale <- ls.Env.l_stale + 1;
          resolve_name env nm)
  | Ir.Scached { c_stamp; c_value } ->
      if Env.stamp_valid env c_stamp then begin
        ls.Env.l_hits <- ls.Env.l_hits + 1;
        c_value
      end
      else begin
        ls.Env.l_misses <- ls.Env.l_misses + 1;
        ls.Env.l_stale <- ls.Env.l_stale + 1;
        resolve_name env nm
      end

(* Effect-free singleton operands (Ir.pure_single): evaluated with a
   direct call instead of a nested generator. *)
let rec single env (e : Ir.expr) =
  match e with
  | Ir.Lit l -> l.Ir.l_value
  | Ir.Name nm -> name_value env nm
  | Ir.Underscore -> (Env.current_scope env).Env.sc_value
  | Ir.Group inner -> single env inner
  | _ -> invalid_arg "Semantics.single: not a pure singleton"

(* --- traversal ---------------------------------------------------------- *)

let traversal_child_ok env w =
  let dbg = env.Env.dbg in
  match Value.fetch dbg w with
  | wf -> (
      match (wf.Value.st, wf.Value.typ) with
      | Value.Rint 0L, _ -> None
      | Value.Rint p, Ctype.Ptr t ->
          let len =
            match Layout.size_of dbg.Dbgi.abi t with
            | n -> n
            | exception Layout.Incomplete _ -> 1
          in
          if Dbgi.readable dbg ~addr:(Int64.to_int p) ~len then Some wf
          else None
      | Value.Rint _, _ -> Some wf
      | Value.Rfloat f, _ -> if f = 0.0 then None else Some wf
      | (Value.Lval _ | Value.Lbit _), _ -> Some wf)
  | exception Error.Duel_error _ -> None

(* --- calls -------------------------------------------------------------- *)

let default_promote env v =
  let dbg = env.Env.dbg in
  let v = Value.fetch dbg v in
  match v.Value.typ with
  | Ctype.Floating Ctype.Float -> Value.convert dbg Ctype.double v
  | t -> (
      match Ctype.integer_kind t with
      | Some k ->
          let pk = Ctype.promote_ikind dbg.Dbgi.abi k in
          if pk = k then v else Value.convert dbg (Ctype.Integer pk) v
      | None -> v)

let call_function env callee args =
  let dbg = env.Env.dbg in
  let name =
    match callee with
    | Some n -> n
    | None -> Error.fail "only named functions can be called"
  in
  let ftype =
    match dbg.Dbgi.find_variable name with
    | Some { Dbgi.v_type = Ctype.Func ft; _ } -> Some ft
    | Some { Dbgi.v_type = Ctype.Ptr (Ctype.Func ft); _ } -> Some ft
    | _ -> None
  in
  let converted =
    match ftype with
    | None -> List.map (default_promote env) args
    | Some ft ->
        let rec conv params args =
          match (params, args) with
          | _, [] -> []
          | [], rest -> List.map (default_promote env) rest
          | p :: ps, a :: rest ->
              Value.convert dbg (Ctype.decay p) a :: conv ps rest
        in
        conv ft.Ctype.params args
  in
  let cvals = List.map (Value.to_cval dbg) converted in
  let result =
    try dbg.Dbgi.call_func name cvals
    with Failure msg -> Error.fail msg
  in
  (* the target ran: frames may have come and gone, memory moved *)
  Env.bump_ext env;
  let sym =
    if sym_on env then
      Symbolic.postfix (Symbolic.atom name)
        ("("
        ^ String.concat ", "
            (List.map (fun a -> Symbolic.to_string a.Value.sym) args)
        ^ ")")
    else no_sym
  in
  Value.of_cval result sym

(* --- reductions --------------------------------------------------------- *)

let sum_step env acc v =
  let dbg = env.Env.dbg in
  let vf = Value.fetch dbg v in
  match (acc, vf.Value.st) with
  | Either.Left i, Value.Rint j -> Either.Left (Int64.add i j)
  | Either.Left i, Value.Rfloat f -> Either.Right (Int64.to_float i +. f)
  | Either.Right f, _ -> Either.Right (f +. Value.to_float dbg vf)
  | Either.Left _, (Value.Lval _ | Value.Lbit _) ->
      Error.fail
        ~operand:(Symbolic.to_string v.Value.sym, Value.describe v)
        "+/ requires scalar values"

let sum_result _env ~sym = function
  | Either.Left i -> Value.int_value ~sym Ctype.long i
  | Either.Right f -> Value.float_value ~sym Ctype.double f
