exception Type_error of { line : int; col : int; message : string }

type scheme = {
  sch_vars : string list;
  sch_params : Ast.typ list;
  sch_ret : Ast.typ;
}

type env = {
  funcs : (string, scheme) Hashtbl.t;
  structs : (string, Ast.struct_def) Hashtbl.t;
  typedefs : (string, Ast.typedef) Hashtbl.t;
  mutable pardatas : string list;
}

(* Errors carry a (line, col) pair threaded from the offending expression;
   (0, 0) marks checks with no source anchor (e.g. an uninitialised
   declaration). *)
let err (line, col) fmt =
  Printf.ksprintf (fun message -> raise (Type_error { line; col; message })) fmt

let epos (e : Ast.expr) = (e.Ast.line, e.Ast.col)
let no_pos = (0, 0)

(* ---------------- unification ---------------- *)

let meta_counter = ref 0

let fresh_meta () =
  incr meta_counter;
  Ast.TMeta (ref (Ast.Unbound !meta_counter))

let rec repr = function
  | Ast.TMeta ({ contents = Ast.Link t } as r) ->
      let t' = repr t in
      r := Ast.Link t';
      t'
  | t -> t

(* Expand typedefs (not structs or pardatas) at the head of a type. *)
let rec expand env t =
  match repr t with
  | Ast.TNamed (n, args) as t -> (
      match Hashtbl.find_opt env.typedefs n with
      | Some td ->
          if List.length td.Ast.td_params <> List.length args then t
          else
            let subst = List.combine td.Ast.td_params args in
            expand env (Ast.subst_type subst td.Ast.td_type)
      | None -> t)
  | t -> t

let rec occurs r = function
  | Ast.TMeta r' when r == r' -> true
  | Ast.TMeta { contents = Ast.Link t } -> occurs r t
  | Ast.TPtr t -> occurs r t
  | Ast.TNamed (_, args) -> List.exists (occurs r) args
  | Ast.TFun (args, ret) -> List.exists (occurs r) args || occurs r ret
  | _ -> false

let rec unify env line t1 t2 =
  let t1 = expand env t1 and t2 = expand env t2 in
  match (t1, t2) with
  | Ast.TMeta r1, Ast.TMeta r2 when r1 == r2 -> ()
  | Ast.TMeta r, t | t, Ast.TMeta r ->
      if occurs r t then err line "cyclic type";
      r := Ast.Link t
  | Ast.TInt, Ast.TInt
  | Ast.TFloat, Ast.TFloat
  | Ast.TChar, Ast.TChar
  | Ast.TVoid, Ast.TVoid
  | Ast.TString, Ast.TString
  | Ast.TIndex, Ast.TIndex
  | Ast.TBounds, Ast.TBounds ->
      ()
  | Ast.TVar a, Ast.TVar b when a = b -> ()
  | Ast.TPtr a, Ast.TPtr b -> unify env line a b
  | Ast.TNamed (n1, a1), Ast.TNamed (n2, a2)
    when n1 = n2 && List.length a1 = List.length a2 ->
      List.iter2 (unify env line) a1 a2
  | Ast.TFun (p1, r1), Ast.TFun (p2, r2) when List.length p1 = List.length p2
    ->
      List.iter2 (unify env line) p1 p2;
      unify env line r1 r2
  | _ ->
      err line "type mismatch: %s vs %s" (Ast.type_to_string t1)
        (Ast.type_to_string t2)

let rec zonk env t =
  match expand env t with
  | Ast.TMeta { contents = Ast.Link t } -> zonk env t
  | Ast.TPtr t -> Ast.TPtr (zonk env t)
  | Ast.TNamed (n, args) -> Ast.TNamed (n, List.map (zonk env) args)
  | Ast.TFun (args, ret) ->
      Ast.TFun (List.map (zonk env) args, zonk env ret)
  | t -> t

(* The paper's pardata restrictions (sections 2.2-2.3): distributed data
   structures may not be nested, and type variables inside other data types
   may not be instantiated with pardata types.  After zonking, this means a
   pardata name may appear only at the outermost level of a type. *)
let rec check_pardata_placement env line ~inside t =
  match zonk env t with
  | Ast.TNamed (n, args) ->
      let is_pd = List.mem n env.pardatas in
      if is_pd && inside then
        err line
          "distributed data structures may not be nested or stored inside            other data types (%s)"
          n;
      List.iter (check_pardata_placement env line ~inside:true) args
  | Ast.TPtr t | Ast.TFun ([], t) ->
      check_pardata_placement env line ~inside:true t
  | Ast.TFun (args, ret) ->
      List.iter (check_pardata_placement env line ~inside) args;
      check_pardata_placement env line ~inside ret
  | _ -> ()


(* ---------------- builtins ---------------- *)

let arr t = Ast.TNamed ("array", [ t ])
let v s = Ast.TVar s

let builtins =
  let f params ret = { sch_vars = []; sch_params = params; sch_ret = ret } in
  let pf vars params ret =
    { sch_vars = vars; sch_params = params; sch_ret = ret }
  in
  [
    (* section 3 skeletons *)
    ( "array_create",
      pf [ "t" ]
        [
          Ast.TInt; Ast.TIndex; Ast.TIndex; Ast.TIndex;
          Ast.TFun ([ Ast.TIndex ], v "t"); Ast.TInt;
        ]
        (arr (v "t")) );
    (* like array_create but with a ready element value instead of an
       initialiser function: every element is a copy of the given value.
       The fusion pass rewrites constant-initialiser array_create calls to
       this (no per-element function application to charge); it is also a
       legal source-level builtin. *)
    ( "array_create_const",
      pf [ "t" ]
        [ Ast.TInt; Ast.TIndex; Ast.TIndex; Ast.TIndex; v "t"; Ast.TInt ]
        (arr (v "t")) );
    ("array_destroy", pf [ "t" ] [ arr (v "t") ] Ast.TVoid);
    ( "array_map",
      pf [ "t1"; "t2" ]
        [
          Ast.TFun ([ v "t1"; Ast.TIndex ], v "t2");
          arr (v "t1"); arr (v "t2");
        ]
        Ast.TVoid );
    ( "array_fold",
      pf [ "t1"; "t2" ]
        [
          Ast.TFun ([ v "t1"; Ast.TIndex ], v "t2");
          Ast.TFun ([ v "t2"; v "t2" ], v "t2");
          arr (v "t1");
        ]
        (v "t2") );
    ("array_copy", pf [ "t" ] [ arr (v "t"); arr (v "t") ] Ast.TVoid);
    ( "array_broadcast_part",
      pf [ "t" ] [ arr (v "t"); Ast.TIndex ] Ast.TVoid );
    ( "array_permute_rows",
      pf [ "t" ]
        [ arr (v "t"); Ast.TFun ([ Ast.TInt ], Ast.TInt); arr (v "t") ]
        Ast.TVoid );
    ( "array_gen_mult",
      pf [ "t" ]
        [
          arr (v "t"); arr (v "t");
          Ast.TFun ([ v "t"; v "t" ], v "t");
          Ast.TFun ([ v "t"; v "t" ], v "t");
          arr (v "t");
        ]
        Ast.TVoid );
    ("array_part_bounds", pf [ "t" ] [ arr (v "t") ] Ast.TBounds);
    ("array_get_elem", pf [ "t" ] [ arr (v "t"); Ast.TIndex ] (v "t"));
    ( "array_put_elem",
      pf [ "t" ] [ arr (v "t"); Ast.TIndex; v "t" ] Ast.TVoid );
    (* small C runtime *)
    ("print_int", f [ Ast.TInt ] Ast.TVoid);
    ("print_float", f [ Ast.TFloat ] Ast.TVoid);
    ("print_string", f [ Ast.TString ] Ast.TVoid);
    ("print_char", f [ Ast.TChar ] Ast.TVoid);
    ("error", f [ Ast.TString ] Ast.TVoid);
    ("min", pf [ "a" ] [ v "a"; v "a" ] (v "a"));
    ("max", pf [ "a" ] [ v "a"; v "a" ] (v "a"));
    ("abs", f [ Ast.TInt ] Ast.TInt);
    ("fabs", f [ Ast.TFloat ] Ast.TFloat);
    ("sqrt", f [ Ast.TFloat ] Ast.TFloat);
    ("log2", f [ Ast.TInt ] Ast.TInt);
    ("itof", f [ Ast.TInt ] Ast.TFloat);
    ("ftoi", f [ Ast.TFloat ] Ast.TInt);
    ("int_max", f [] Ast.TInt);
    ("procId", f [] Ast.TInt);
    ("nProcs", f [] Ast.TInt);
    ("NULL", pf [ "a" ] [] (Ast.TPtr (v "a")));
    ("DISTR_DEFAULT", f [] Ast.TInt);
    ("DISTR_RING", f [] Ast.TInt);
    ("DISTR_TORUS2D", f [] Ast.TInt);
  ]

(* Hashtable view of [builtins]: the execution engines resolve builtin names
   and arities on every unbound-identifier lookup and every curried
   application, so give them O(1) instead of a list scan. *)
let builtins_tbl =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (name, sch) -> Hashtbl.replace tbl name sch) builtins;
  tbl

let builtin_scheme name = Hashtbl.find_opt builtins_tbl name
let is_builtin name = Hashtbl.mem builtins_tbl name

let builtin_arity name =
  match Hashtbl.find_opt builtins_tbl name with
  | Some sch -> Some (List.length sch.sch_params)
  | None -> None

(* ---------------- environment construction ---------------- *)

let collect env program =
  List.iter
    (fun top ->
      match top with
      | Ast.TStruct s ->
          (* pardata may not be stored inside other data structures *)
          List.iter
            (fun (ft, _) -> check_pardata_placement env no_pos ~inside:true ft)
            s.Ast.s_fields;
          Hashtbl.replace env.structs s.Ast.s_name s
      | Ast.TTypedef td -> Hashtbl.replace env.typedefs td.Ast.td_name td
      | Ast.TPardata pd -> env.pardatas <- pd.Ast.pd_name :: env.pardatas
      | Ast.TFunc fn ->
          let vars =
            List.fold_left
              (fun acc p -> Parser.tyvars_of acc p.Ast.p_type)
              (Parser.tyvars_of [] fn.Ast.f_ret)
              fn.Ast.f_params
          in
          Hashtbl.replace env.funcs fn.Ast.f_name
            {
              sch_vars = vars;
              sch_params = List.map (fun p -> p.Ast.p_type) fn.Ast.f_params;
              sch_ret = fn.Ast.f_ret;
            })
    program

(* ---------------- expression checking ---------------- *)

type ctx = {
  env : env;
  mutable locals : (string * Ast.typ) list;
  ret : Ast.typ;
  in_loop : bool; (* break/continue are legal here *)
}

let instantiate_scheme sch =
  let subst = List.map (fun var -> (var, fresh_meta ())) sch.sch_vars in
  ( subst,
    List.map (Ast.subst_type subst) sch.sch_params,
    Ast.subst_type subst sch.sch_ret )

let operator_scheme op =
  match op with
  | "+" | "-" | "*" | "/" ->
      let a = fresh_meta () in
      ([ a; a ], a)
  | "%" -> ([ Ast.TInt; Ast.TInt ], Ast.TInt)
  | "==" | "!=" | "<" | ">" | "<=" | ">=" ->
      let a = fresh_meta () in
      ([ a; a ], Ast.TInt)
  | "&&" | "||" -> ([ Ast.TInt; Ast.TInt ], Ast.TInt)
  | _ -> invalid_arg ("operator_scheme: " ^ op)

(* Record the resolved aggregate type of a field access on the node itself
   (under the "<struct>" key, which cannot collide with a $-variable): the
   compiled engine reads it to turn field names into positional indices
   without redoing inference.  Idempotent across repeated checks. *)
let record_field_struct ctx (e : Ast.expr) t =
  match expand ctx.env t with
  | Ast.TNamed _ as st ->
      e.Ast.inst <- ("<struct>", st) :: List.remove_assoc "<struct>" e.Ast.inst
  | _ -> ()

let rec field_type ctx line t field =
  match expand ctx.env t with
  | Ast.TBounds ->
      if field = "lowerBd" || field = "upperBd" then Ast.TIndex
      else err line "Bounds has fields lowerBd and upperBd, not %s" field
  | Ast.TNamed (n, args) -> (
      match Hashtbl.find_opt ctx.env.structs n with
      | None -> err line "%s is not a structure type" n
      | Some s -> (
          if List.length s.Ast.s_params <> List.length args then
            err line "wrong number of type arguments for %s" n;
          let subst = List.combine s.Ast.s_params args in
          match
            List.find_opt (fun (_, fname) -> fname = field) s.Ast.s_fields
          with
          | Some (ft, _) -> Ast.subst_type subst ft
          | None -> err line "structure %s has no field %s" n field))
  | t -> err line "%s has no fields" (Ast.type_to_string t)

and check_expr ctx (e : Ast.expr) : Ast.typ =
  let line = epos e in
  match e.Ast.desc with
  | Ast.Int _ -> Ast.TInt
  | Ast.Float _ -> Ast.TFloat
  | Ast.Str _ -> Ast.TString
  | Ast.Chr _ -> Ast.TChar
  | Ast.Var x -> (
      match List.assoc_opt x ctx.locals with
      | Some t -> t
      | None -> (
          match Hashtbl.find_opt ctx.env.funcs x with
          | Some sch ->
              let subst, params, ret = instantiate_scheme sch in
              e.Ast.inst <- subst;
              if params = [] then ret else Ast.TFun (params, ret)
          | None -> err line "unbound identifier %s" x))
  | Ast.OpSection op ->
      let params, ret = operator_scheme op in
      (* record the operand type so instantiation can type lifted operands *)
      (match params with p :: _ -> e.Ast.inst <- [ ("op", p) ] | [] -> ());
      Ast.TFun (params, ret)
  | Ast.Call (f, args) ->
      let tf = check_expr ctx f in
      let targs = List.map (check_expr ctx) args in
      apply ctx line tf targs
  | Ast.Binop (op, a, b) ->
      let params, ret = operator_scheme op in
      (match params with
       | [ pa; pb ] ->
           unify ctx.env line (check_expr ctx a) pa;
           unify ctx.env line (check_expr ctx b) pb
       | _ -> assert false);
      ret
  | Ast.Unop ("!", a) ->
      unify ctx.env line (check_expr ctx a) Ast.TInt;
      Ast.TInt
  | Ast.Unop ("-", a) ->
      let t = check_expr ctx a in
      (match expand ctx.env t with
       | Ast.TInt | Ast.TFloat | Ast.TMeta _ -> ()
       | t -> err line "cannot negate %s" (Ast.type_to_string t));
      t
  | Ast.Unop (op, _) -> err line "unknown operator %s" op
  | Ast.Assign (l, r) ->
      check_lvalue ctx l;
      let tl = check_expr ctx l in
      let tr = check_expr ctx r in
      unify ctx.env line tl tr;
      tl
  | Ast.Idx (a, i) ->
      unify ctx.env line (check_expr ctx a) Ast.TIndex;
      unify ctx.env line (check_expr ctx i) Ast.TInt;
      Ast.TInt
  | Ast.Field (s, f) ->
      let ts = check_expr ctx s in
      record_field_struct ctx e ts;
      field_type ctx line ts f
  | Ast.Arrow (p, f) -> (
      let t = expand ctx.env (check_expr ctx p) in
      match t with
      | Ast.TPtr t ->
          record_field_struct ctx e t;
          field_type ctx line t f
      | Ast.TBounds -> field_type ctx line Ast.TBounds f
      | t -> err line "-> applied to non-pointer %s" (Ast.type_to_string t))
  | Ast.Deref p -> (
      match expand ctx.env (check_expr ctx p) with
      | Ast.TPtr t -> t
      | Ast.TMeta _ as t ->
          let cell = fresh_meta () in
          unify ctx.env line t (Ast.TPtr cell);
          cell
      | t -> err line "dereference of non-pointer %s" (Ast.type_to_string t))
  | Ast.ArrayLit es ->
      List.iter (fun e -> unify ctx.env line (check_expr ctx e) Ast.TInt) es;
      Ast.TIndex
  | Ast.Cond (c, a, b) ->
      unify ctx.env line (check_expr ctx c) Ast.TInt;
      let ta = check_expr ctx a in
      unify ctx.env line ta (check_expr ctx b);
      ta
  | Ast.New e -> Ast.TPtr (check_expr ctx e)

and check_lvalue ctx (e : Ast.expr) =
  match e.Ast.desc with
  | Ast.Var x ->
      if List.assoc_opt x ctx.locals = None then
        err (epos e) "cannot assign to %s" x
  | Ast.Idx _ | Ast.Field _ | Ast.Arrow _ | Ast.Deref _ -> ()
  | _ -> err (epos e) "not an lvalue"

(* Curried application: consume as many parameters as there are arguments,
   possibly unrolling nested function results, and return the remainder. *)
and apply ctx line tf targs =
  match targs with
  | [] -> tf
  | targ :: rest -> (
      match expand ctx.env tf with
      | Ast.TFun (p :: ps, ret) ->
          unify ctx.env line targ p;
          let remainder = if ps = [] then ret else Ast.TFun (ps, ret) in
          apply ctx line remainder rest
      | Ast.TFun ([], ret) -> apply ctx line ret targs
      | Ast.TMeta _ as t ->
          let ret = fresh_meta () in
          unify ctx.env line t (Ast.TFun ([ targ ], ret));
          apply ctx line ret rest
      | t -> err line "%s is not a function" (Ast.type_to_string t))

(* ---------------- statements ---------------- *)

let rec check_stmt ctx = function
  | Ast.SExpr e -> ignore (check_expr ctx e)
  | Ast.SDecl (t, name, init) ->
      (* anchor declaration errors on the initialiser when there is one;
         the bare declaration has no token of its own in the AST *)
      let p = match init with Some e -> epos e | None -> no_pos in
      check_pardata_placement ctx.env p ~inside:false t;
      (match init with
       | Some e -> unify ctx.env (epos e) (check_expr ctx e) t
       | None -> ());
      ctx.locals <- (name, t) :: ctx.locals
  | Ast.SIf (c, a, b) ->
      unify ctx.env (epos c) (check_expr ctx c) Ast.TInt;
      check_block ctx a;
      check_block ctx b
  | Ast.SWhile (c, b) ->
      unify ctx.env (epos c) (check_expr ctx c) Ast.TInt;
      check_block { ctx with in_loop = true } b
  | Ast.SFor (init, cond, step, body) ->
      let saved = ctx.locals in
      Option.iter (check_stmt ctx) init;
      Option.iter
        (fun c -> unify ctx.env (epos c) (check_expr ctx c) Ast.TInt)
        cond;
      Option.iter (fun e -> ignore (check_expr ctx e)) step;
      check_block { ctx with in_loop = true } body;
      ctx.locals <- saved
  | Ast.SReturn None ->
      unify ctx.env no_pos ctx.ret Ast.TVoid
  | Ast.SReturn (Some e) ->
      unify ctx.env (epos e) (check_expr ctx e) ctx.ret
  (* statements carry no position of their own *)
  | Ast.SBreak ->
      if not ctx.in_loop then err no_pos "break statement not within a loop"
  | Ast.SContinue ->
      if not ctx.in_loop then
        err no_pos "continue statement not within a loop"
  | Ast.SBlock b -> check_block ctx b

and check_block ctx stmts =
  let saved = ctx.locals in
  List.iter (check_stmt ctx) stmts;
  ctx.locals <- saved

(* Resolve the instantiations recorded on a node once its function body
   is fully checked. *)
let zonk_inst env (e : Ast.expr) =
  e.Ast.inst <- List.map (fun (v', t) -> (v', zonk env t)) e.Ast.inst;
  (* a bare pardata instantiation (e.g. passing an array to a generic
     function) is fine; a pardata nested inside a constructed type is not *)
  List.iter
    (fun (_, t) -> check_pardata_placement env (epos e) ~inside:false t)
    e.Ast.inst

(* ---------------- entry points ---------------- *)

let check_function env fn =
  match fn.Ast.f_body with
  | None -> ()
  | Some body ->
      let ctx =
        {
          env;
          locals =
            List.map (fun p -> (p.Ast.p_name, p.Ast.p_type)) fn.Ast.f_params;
          ret = fn.Ast.f_ret;
          in_loop = false;
        }
      in
      check_block ctx body;
      List.iter (Ast.iter_stmt (zonk_inst env) ignore) body

let fresh_env () =
  let env =
    {
      funcs = Hashtbl.create 64;
      structs = Hashtbl.create 16;
      typedefs = Hashtbl.create 16;
      pardatas = [ "array" ];
    }
  in
  List.iter (fun (name, sch) -> Hashtbl.replace env.funcs name sch) builtins;
  env

let check program =
  let env = fresh_env () in
  collect env program;
  List.iter
    (function Ast.TFunc fn -> check_function env fn | _ -> ())
    program;
  env

let function_scheme env name = Hashtbl.find_opt env.funcs name
let struct_def env name = Hashtbl.find_opt env.structs name
let is_pardata env name = List.mem name env.pardatas
