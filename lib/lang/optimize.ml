(* Skeleton-fusion optimizer.  Runs on the *instantiated* program, after
   [Typecheck.check] has refilled the [inst] annotations and before either
   execution engine sees the AST (the C emitter never sees its output —
   [bin/skilc.ml] rejects [--optimize fuse] for emit-c).

   Rewrites, each proven value-preserving (same printed output, same final
   values) and each strictly reducing charged element-ops on programs where
   it fires:

   - map/map fusion            map(f,a,b); map(g,b,b)    => map(g.f, a, b)
                               map(f,a,b); map(g,b,c)    => map(g.f, a, c)
                               (second form only when b is a dead
                               intermediate: created, written once, read
                               once, destroyed)
   - map-into-fold fusion      map(f,a,b); ..fold(c,m,b) => ..fold(c.f,m,a)
   - dead array_copy removal   copy(s,d) when d is never read afterwards
   - dead create/destroy       an array only ever created and destroyed
   - constant-initialiser      create(.., f, ..) where f returns a literal
     folding                   => array_create_const(.., literal, ..)
   - loop-invariant hoisting   array_broadcast_part at the head of a loop
                               whose argument array the loop never writes;
                               pure multi-node loop-bound expressions
                               (there is no source-level to_flat gather, so
                               the paper's gather-hoisting case is vacuous
                               here — documented in EXPERIMENTS.md)

   Soundness leans on the typechecker/instantiation invariants: argument
   functions at skeleton call sites are first-order ([Var f] or
   [Call (Var f, lifts)]), [Value.copy] semantics mean a callee can only
   affect its caller through pointers or distributed arrays, and
   [Skeletons.map] raises on layout mismatch, so a fused map/fold observes
   the exact same index sequence as the two passes it replaces.  Every
   rewrite requires the functions it touches to be [Pure] under the effect
   analysis below; closures that mutate captured state (through a pointer
   parameter) or touch arrays are never fused. *)

type effect_ = Pure | Read_only | Impure

let eff_rank = function Pure -> 0 | Read_only -> 1 | Impure -> 2
let eff_join a b = if eff_rank a >= eff_rank b then a else b

type ctx = {
  env : Typecheck.env;
  funcs : (string, Ast.func) Hashtbl.t;  (* user functions, incl. fused *)
  eff : (string, effect_) Hashtbl.t;
  used : (string, unit) Hashtbl.t;  (* every identifier in the program *)
  mutable fresh : int;
  mutable new_funcs : Ast.func list;  (* fused functions, reverse order *)
  mutable changed : bool;
  clean : bool;  (* no user shadowing of the array_* builtins *)
}

(* ---------------- generic expression utilities ---------------- *)

(* Occurrences of [x]: as a [Var] node, or as a declared name. *)
let mentions_stmts x stmts =
  let n = ref 0 in
  let fe (e : Ast.expr) =
    match e.Ast.desc with Ast.Var y when y = x -> incr n | _ -> ()
  in
  let fs = function Ast.SDecl (_, y, _) when y = x -> incr n | _ -> () in
  List.iter (Ast.iter_stmt fe fs) stmts;
  !n

let mentions_stmt x s = mentions_stmts x [ s ]

(* Substitute [Var] nodes by name, rebuilding every node (the [inst] field
   is mutable, so sharing nodes between functions would let one re-check
   clobber another).  Replacements are inserted as fresh copies and are not
   themselves traversed. *)
let rec subst_expr sub (e : Ast.expr) : Ast.expr =
  match e.Ast.desc with
  | Ast.Var x when List.mem_assoc x sub -> subst_expr [] (List.assoc x sub)
  | _ -> Ast.map_expr (subst_expr sub) e

let copy_expr e = subst_expr [] e

(* (always, guarded) occurrence counts of [x] in [e]: [always] counts
   occurrences on paths evaluated exactly once per evaluation of [e],
   [guarded] everything under a conditional ([Cond] arms, short-circuit
   right operands). *)
let rec var_counts x (e : Ast.expr) =
  let ( ++ ) (a, g) (a', g') = (a + a', g + g') in
  let all l = List.fold_left (fun acc e -> acc ++ var_counts x e) (0, 0) l in
  match e.Ast.desc with
  | Ast.Var y -> if y = x then (1, 0) else (0, 0)
  | Ast.Int _ | Ast.Float _ | Ast.Str _ | Ast.Chr _ | Ast.OpSection _ ->
      (0, 0)
  | Ast.Cond (c, a, b) ->
      let ca, cg = var_counts x c in
      let aa, ag = var_counts x a in
      let ba, bg = var_counts x b in
      (ca, cg + aa + ag + ba + bg)
  | Ast.Binop (("&&" | "||"), a, b) ->
      let aa, ag = var_counts x a in
      let ba, bg = var_counts x b in
      (aa, ag + ba + bg)
  | Ast.Binop (_, a, b) | Ast.Assign (a, b) | Ast.Idx (a, b) -> all [ a; b ]
  | Ast.Unop (_, a) | Ast.Field (a, _) | Ast.Arrow (a, _) | Ast.Deref a
  | Ast.New a ->
      var_counts x a
  | Ast.Call (h, args) -> all (h :: args)
  | Ast.ArrayLit es -> all es

let node_count e =
  let n = ref 0 in
  Ast.iter_expr (fun _ -> incr n) e;
  !n

let is_leaf (e : Ast.expr) =
  match e.Ast.desc with
  | Ast.Var _ | Ast.Int _ | Ast.Float _ | Ast.Chr _ -> true
  | _ -> false

(* ---------------- effect analysis ---------------- *)

let builtin_effect = function
  | "array_get_elem" | "array_part_bounds" -> Read_only
  | "min" | "max" | "abs" | "fabs" | "sqrt" | "log2" | "itof" | "ftoi"
  | "int_max" | "procId" | "nProcs" | "NULL" | "DISTR_DEFAULT" | "DISTR_RING"
  | "DISTR_TORUS2D" ->
      Pure
  | _ -> Impure (* array_* skeletons, print_*, error, anything unknown *)

let func_effect ctx f =
  match Hashtbl.find_opt ctx.eff f with Some e -> e | None -> Impure

let rec expr_effect ctx (e : Ast.expr) =
  let all l =
    List.fold_left (fun acc e -> eff_join acc (expr_effect ctx e)) Pure l
  in
  match e.Ast.desc with
  | Ast.Int _ | Ast.Float _ | Ast.Str _ | Ast.Chr _ | Ast.OpSection _ -> Pure
  | Ast.Var x ->
      (* a bare reference to a user function is a closure escaping the
         analysis — conservative *)
      if Hashtbl.mem ctx.funcs x then Impure else Pure
  | Ast.Call (h, args) -> (
      let ae = all args in
      match h.Ast.desc with
      | Ast.Var f when Hashtbl.mem ctx.funcs f ->
          eff_join ae (func_effect ctx f)
      | Ast.Var f when Typecheck.is_builtin f ->
          eff_join ae (builtin_effect f)
      | Ast.OpSection _ -> ae
      | _ -> Impure)
  | Ast.Assign (lv, r) ->
      let rec lv_eff (l : Ast.expr) =
        match l.Ast.desc with
        | Ast.Var _ -> Pure (* locals are private: [Value.copy] on invoke *)
        | Ast.Idx (b, i) -> eff_join (lv_eff b) (expr_effect ctx i)
        | Ast.Field (b, _) -> lv_eff b
        | _ -> Impure (* writes through Deref/Arrow reach shared state *)
      in
      eff_join (lv_eff lv) (expr_effect ctx r)
  | Ast.Deref a | Ast.Arrow (a, _) ->
      (* reads through a pointer (or of Bounds fields) observe state the
         caller can alias — enough to disqualify fusion's Pure requirement
         without being a write *)
      eff_join Read_only (expr_effect ctx a)
  | Ast.New a -> eff_join Impure (expr_effect ctx a)
  | Ast.Binop (_, a, b) | Ast.Idx (a, b) -> all [ a; b ]
  | Ast.Unop (_, a) | Ast.Field (a, _) -> expr_effect ctx a
  | Ast.ArrayLit es -> all es
  | Ast.Cond (a, b, c) -> all [ a; b; c ]

(* joining at every node revisits its children, but the join is
   idempotent, so the result is the same *)
let stmts_effect ctx stmts =
  let acc = ref Pure in
  let fe e = acc := eff_join !acc (expr_effect ctx e) in
  List.iter (Ast.iter_stmt fe ignore) stmts;
  !acc

let compute_effects ctx =
  Hashtbl.reset ctx.eff;
  Hashtbl.iter (fun n _ -> Hashtbl.replace ctx.eff n Pure) ctx.funcs;
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun n (f : Ast.func) ->
        let e =
          match f.Ast.f_body with
          | None -> Impure
          | Some body -> stmts_effect ctx body
        in
        if eff_rank e > eff_rank (func_effect ctx n) then begin
          Hashtbl.replace ctx.eff n e;
          changed := true
        end)
      ctx.funcs
  done

(* ---------------- best-effort monomorphic typing ---------------- *)

(* Just enough typing to answer "is this expression a scalar int/float, and
   which?" for hoisted declarations.  Returns [None] whenever unsure; every
   caller treats [None] as "don't rewrite". *)

let rec type_of ctx locals (e : Ast.expr) : Ast.typ option =
  let expand t = Some (Typecheck.expand ctx.env t) in
  match e.Ast.desc with
  | Ast.Int _ -> Some Ast.TInt
  | Ast.Float _ -> Some Ast.TFloat
  | Ast.Chr _ -> Some Ast.TChar
  | Ast.Str _ -> Some Ast.TString
  | Ast.ArrayLit _ -> Some Ast.TIndex
  | Ast.Var x -> (
      match List.assoc_opt x locals with
      | Some t -> expand t
      | None -> (
          match x with
          | "int_max" | "procId" | "nProcs" | "DISTR_DEFAULT" | "DISTR_RING"
          | "DISTR_TORUS2D" ->
              Some Ast.TInt
          | _ -> None))
  | Ast.Binop (("==" | "!=" | "<" | ">" | "<=" | ">=" | "&&" | "||"), _, _)
    ->
      Some Ast.TInt
  | Ast.Binop ("%", _, _) -> Some Ast.TInt
  | Ast.Binop (_, a, b) -> (
      match type_of ctx locals a with
      | Some _ as t -> t
      | None -> type_of ctx locals b)
  | Ast.Unop ("!", _) -> Some Ast.TInt
  | Ast.Unop (_, a) -> type_of ctx locals a
  | Ast.Idx (_, _) -> Some Ast.TInt (* Index subscription *)
  | Ast.Assign (l, _) -> type_of ctx locals l
  | Ast.Cond (_, a, b) -> (
      match type_of ctx locals a with
      | Some _ as t -> t
      | None -> type_of ctx locals b)
  | Ast.Deref p -> (
      match type_of ctx locals p with
      | Some (Ast.TPtr t) -> expand t
      | _ -> None)
  | Ast.New _ -> None
  | Ast.OpSection _ -> None
  | Ast.Field (b, f) | Ast.Arrow (b, f) -> (
      match type_of ctx locals b with
      | Some Ast.TBounds -> Some Ast.TIndex (* lowerBd / upperBd *)
      | Some (Ast.TNamed (sname, targs)) | Some (Ast.TPtr (Ast.TNamed (sname, targs)))
        -> (
          match Typecheck.struct_def ctx.env sname with
          | Some sd when List.length sd.Ast.s_params = List.length targs -> (
              let sub = List.combine sd.Ast.s_params targs in
              match
                List.find_opt (fun (_, fn) -> fn = f) sd.Ast.s_fields
              with
              | Some (ft, _) -> expand (Ast.subst_type sub ft)
              | None -> None)
          | _ -> None)
      | _ -> None)
  | Ast.Call (h, args) -> (
      match h.Ast.desc with
      | Ast.Var f -> (
          let scheme =
            if Hashtbl.mem ctx.funcs f then
              Typecheck.function_scheme ctx.env f
            else Typecheck.builtin_scheme f
          in
          match scheme with
          | Some sch when List.length sch.Typecheck.sch_params
                          = List.length args -> (
              match sch.Typecheck.sch_vars with
              | [] -> expand sch.Typecheck.sch_ret
              | vars when List.length h.Ast.inst = List.length vars ->
                  (* the pre-optimizer typecheck left the instantiation on
                     the head Var *)
                  expand (Ast.subst_type h.Ast.inst sch.Typecheck.sch_ret)
              | _ -> None)
          | _ -> None)
      | _ -> None)

(* Hoistable = evaluating it any number of times, at any point where the
   same variables are in scope with the same values, yields the same value
   and no effect.  Stricter than [expr_effect = Pure]: additionally bans
   every pointer read, allowing Arrow only on Bounds *values* (which are
   caller-private), so name-based invariance checks are sound. *)
let rec hoistable ctx locals (e : Ast.expr) =
  let all = List.for_all (hoistable ctx locals) in
  match e.Ast.desc with
  | Ast.Int _ | Ast.Float _ | Ast.Str _ | Ast.Chr _ -> true
  | Ast.Var x -> not (Hashtbl.mem ctx.funcs x)
  | Ast.Binop (_, a, b) | Ast.Idx (a, b) -> all [ a; b ]
  | Ast.Unop (_, a) -> hoistable ctx locals a
  | Ast.Cond (a, b, c) -> all [ a; b; c ]
  | Ast.Field (b, _) -> hoistable ctx locals b
  | Ast.Arrow (b, _) ->
      type_of ctx locals b = Some Ast.TBounds && hoistable ctx locals b
  | Ast.Call (h, args) -> (
      all args
      &&
      match h.Ast.desc with
      | Ast.Var f when Hashtbl.mem ctx.funcs f -> func_effect ctx f = Pure
      | Ast.Var f when Typecheck.is_builtin f -> builtin_effect f = Pure
      | _ -> false)
  | Ast.ArrayLit es -> List.for_all (hoistable ctx locals) es
  | Ast.OpSection _ | Ast.Assign _ | Ast.Deref _ | Ast.New _ -> false

(* Variable names assigned (or declared) anywhere in a statement — the
   kill-set for invariance.  Roots of Deref/Arrow lvalues are included for
   completeness, but hoistable expressions never read through pointers, so
   pointer writes cannot invalidate them. *)
let assigned_names stmts =
  let tbl = Hashtbl.create 8 in
  let rec root (l : Ast.expr) =
    match l.Ast.desc with
    | Ast.Var x -> Some x
    | Ast.Idx (b, _) | Ast.Field (b, _) | Ast.Arrow (b, _) | Ast.Deref b ->
        root b
    | _ -> None
  in
  let fe (e : Ast.expr) =
    match e.Ast.desc with
    | Ast.Assign (lv, _) -> Option.iter (fun x -> Hashtbl.replace tbl x ()) (root lv)
    | _ -> ()
  in
  let fs = function
    | Ast.SDecl (_, x, _) -> Hashtbl.replace tbl x ()
    | _ -> ()
  in
  List.iter (Ast.iter_stmt fe fs) stmts;
  tbl

let invariant_under killed e =
  let ok = ref true in
  Ast.iter_expr
    (fun (e : Ast.expr) ->
      match e.Ast.desc with
      | Ast.Var x when Hashtbl.mem killed x -> ok := false
      | _ -> ())
    e;
  !ok

(* ---------------- gensym ---------------- *)

let fresh_name ctx base =
  let rec go () =
    let n = ctx.fresh in
    ctx.fresh <- n + 1;
    let nm = Printf.sprintf "__%s%d" base n in
    if Hashtbl.mem ctx.used nm || Typecheck.is_builtin nm then go ()
    else begin
      Hashtbl.replace ctx.used nm ();
      nm
    end
  in
  go ()

(* ---------------- constant-initialiser folding ---------------- *)

(* array_create whose initialiser function ignores its Index argument and
   returns a literal becomes array_create_const: one skeleton with the same
   Mapped charge but zero per-element interpreter work. *)
let const_return ctx (f : Ast.func) : Ast.expr option =
  let literal (e : Ast.expr) =
    match e.Ast.desc with
    | Ast.Int _ | Ast.Float _ | Ast.Chr _ | Ast.Str _ -> true
    | Ast.Unop ("-", { desc = Ast.Int _ | Ast.Float _; _ }) -> true
    | Ast.Var "int_max" -> not (Hashtbl.mem ctx.funcs "int_max")
    | _ -> false
  in
  match f.Ast.f_body with
  | Some [ Ast.SReturn (Some e) ] when literal e -> Some e
  | _ -> None

let fold_const_creates ctx (e : Ast.expr) =
  match e.Ast.desc with
  | Ast.Call
      ( ({ desc = Ast.Var "array_create"; _ } as head),
        [ dim; size; bs; lb; { desc = Ast.Var fname; _ }; distr ] )
    when ctx.clean -> (
      match Hashtbl.find_opt ctx.funcs fname with
      | Some f when List.length f.Ast.f_params = 1 -> (
          match const_return ctx f with
          | Some lit ->
              e.Ast.desc <-
                Ast.Call
                  ( Ast.mk ~line:head.Ast.line ~col:head.Ast.col
                      (Ast.Var "array_create_const"),
                    [ dim; size; bs; lb; copy_expr lit; distr ] );
              ctx.changed <- true
          | None -> ())
      | _ -> ())
  | _ -> ()

(* ---------------- fusion ---------------- *)

(* A skeleton argument function at a call site, post-instantiation: either
   [Var f] or [Call (Var f, lifts)] with the lifts being plain data. *)
type arg_fn = {
  af_func : Ast.func;
  af_lifts : Ast.expr list;  (* original call-site nodes *)
}

let single_return (f : Ast.func) =
  match f.Ast.f_body with
  | Some [ Ast.SReturn (Some e) ] -> Some e
  | Some [ Ast.SBlock [ Ast.SReturn (Some e) ] ] -> Some e
  | _ -> None

(* Accept [e] as a fusable (elem, Index) -> ret argument function: a Pure
   user function whose body is a single return, fully applied but for the
   two element parameters, with pure lift arguments (they will be evaluated
   at a merged call site, so their values must not depend on the skeleton
   pass being deleted). *)
let arg_fn ctx (e : Ast.expr) : arg_fn option =
  let resolve name lifts =
    match Hashtbl.find_opt ctx.funcs name with
    | Some f
      when List.length f.Ast.f_params = List.length lifts + 2
           && func_effect ctx name = Pure
           && single_return f <> None
           && List.for_all (fun l -> expr_effect ctx l = Pure) lifts ->
        Some { af_func = f; af_lifts = lifts }
    | _ -> None
  in
  match e.Ast.desc with
  | Ast.Var f -> resolve f []
  | Ast.Call ({ desc = Ast.Var f; _ }, lifts) -> resolve f lifts
  | _ -> None

(* Build the composition outer . inner as a fresh top-level function
   [\lifts_i \lifts_o v ix. e_outer[elem_o := e_inner[elem_i := v]]] and
   return (function, call-site expression).  Only when the outer body uses
   its element parameter exactly once on an unconditionally-evaluated path
   (the inner body is then evaluated exactly as often as before), or the
   inner body is a leaf (re-evaluation is free and cannot raise). *)
let fuse_arg_fns ctx (inner : arg_fn) (outer : arg_fn) :
    (Ast.func * Ast.expr) option =
  let e_in = Option.get (single_return inner.af_func) in
  let e_out = Option.get (single_return outer.af_func) in
  let split_params (f : Ast.func) =
    let ps = f.Ast.f_params in
    let n = List.length ps in
    let lifts = List.filteri (fun i _ -> i < n - 2) ps in
    let elem = List.nth ps (n - 2) and ix = List.nth ps (n - 1) in
    (lifts, elem, ix)
  in
  let i_lifts, i_elem, i_ix = split_params inner.af_func in
  let o_lifts, o_elem, o_ix = split_params outer.af_func in
  let always, guarded = var_counts o_elem.Ast.p_name e_out in
  if
    not
      ((always = 1 && guarded = 0)
      || (is_leaf e_in && always + guarded >= 1))
  then None
  else begin
    let fp (p : Ast.param) base =
      { Ast.p_type = p.Ast.p_type; p_name = fresh_name ctx base }
    in
    let il = List.map (fun p -> fp p "l") i_lifts in
    let ol = List.map (fun p -> fp p "l") o_lifts in
    let velem = fp i_elem "v" and vix = { Ast.p_type = Ast.TIndex;
                                          p_name = fresh_name ctx "ix" } in
    let vars ps = List.map (fun (p : Ast.param) ->
        Ast.mk (Ast.Var p.Ast.p_name)) ps in
    let sub_of names repls =
      List.map2 (fun (p : Ast.param) r -> (p.Ast.p_name, r)) names repls
    in
    let e_in' =
      subst_expr
        (sub_of i_lifts (vars il)
        @ [ (i_elem.Ast.p_name, Ast.mk (Ast.Var velem.Ast.p_name));
            (i_ix.Ast.p_name, Ast.mk (Ast.Var vix.Ast.p_name)) ])
        e_in
    in
    let e_out' =
      subst_expr
        (sub_of o_lifts (vars ol)
        @ [ (o_elem.Ast.p_name, e_in');
            (o_ix.Ast.p_name, Ast.mk (Ast.Var vix.Ast.p_name)) ])
        e_out
    in
    let name = fresh_name ctx "fused" in
    let f =
      {
        Ast.f_ret = outer.af_func.Ast.f_ret;
        f_name = name;
        f_params = il @ ol @ [ velem; vix ];
        f_body = Some [ Ast.SReturn (Some e_out') ];
      }
    in
    Hashtbl.replace ctx.funcs name f;
    (* pure by construction: built from two Pure bodies and pure lifts *)
    Hashtbl.replace ctx.eff name Pure;
    ctx.new_funcs <- f :: ctx.new_funcs;
    let lifts = inner.af_lifts @ outer.af_lifts in
    let call =
      if lifts = [] then Ast.mk (Ast.Var name)
      else Ast.mk (Ast.Call (Ast.mk (Ast.Var name), lifts))
    in
    Some (f, call)
  end

(* How a local array is defined/destroyed inside one function body. *)
let array_profile fbody x =
  let creates = ref [] and destroys = ref 0 and bare_decls = ref 0 in
  let fs s =
    match s with
    | Ast.SDecl (_, y, None) when y = x -> incr bare_decls
    | Ast.SDecl
        ( _,
          y,
          Some { desc = Ast.Call ({ desc = Ast.Var cn; _ }, _); _ } )
      when y = x && (cn = "array_create" || cn = "array_create_const") ->
        creates := (s, 1) :: !creates (* the decl mentions x once *)
    | Ast.SExpr
        {
          desc =
            Ast.Assign
              ( { desc = Ast.Var y; _ },
                { desc = Ast.Call ({ desc = Ast.Var cn; _ }, _); _ } );
          _;
        }
      when y = x && (cn = "array_create" || cn = "array_create_const") ->
        creates := (s, 1) :: !creates
    | Ast.SExpr
        {
          desc =
            Ast.Call
              ( { desc = Ast.Var "array_destroy"; _ },
                [ { desc = Ast.Var y; _ } ] );
          _;
        }
      when y = x ->
        incr destroys
    | _ -> ()
  in
  List.iter (Ast.iter_stmt ignore fs) fbody;
  (!creates, !destroys, !bare_decls)

(* [x] is a dead intermediate if its only mentions in the whole body are one
   create (plus its bare declaration, for the decl-then-assign style), its
   destroys, and the [extra] mentions the caller is about to rewrite away. *)
let dead_intermediate fbody x ~extra =
  match array_profile fbody x with
  | [ (_, decl_mentions) ], destroys, bare ->
      mentions_stmts x fbody = decl_mentions + bare + destroys + extra
  | _ -> false

let mk_map_call fe src dst =
  Ast.SExpr
    (Ast.mk (Ast.Call (Ast.mk (Ast.Var "array_map"), [ fe; src; dst ])))

(* Rewrite one adjacent statement pair; [fbody] is the enclosing function
   body (for liveness).  Returns the replacement for [s1; s2]. *)
let try_fuse_pair ctx fbody s1 s2 : Ast.stmt list option =
  if not ctx.clean then None
  else
    match (s1, s2) with
    (* map(f, a, b); map(g, b, c) *)
    | ( Ast.SExpr
          {
            desc =
              Ast.Call
                ( { desc = Ast.Var "array_map"; _ },
                  [ fe; ae; ({ desc = Ast.Var b; _ } as _be) ] );
            _;
          },
        Ast.SExpr
          {
            desc =
              Ast.Call
                ( { desc = Ast.Var "array_map"; _ },
                  [ ge; { desc = Ast.Var b2; _ }; ce ] );
            _;
          } )
      when b2 = b
           && (match ce.Ast.desc with
              | Ast.Var c when c = b -> true (* in-place second map *)
              | Ast.Var _ ->
                  (* b is consumed here and nowhere else *)
                  dead_intermediate fbody b
                    ~extra:(mentions_stmt b s1 + mentions_stmt b s2)
              | _ -> false) -> (
        match (arg_fn ctx fe, arg_fn ctx ge) with
        | Some inner, Some outer -> (
            match fuse_arg_fns ctx inner outer with
            | Some (_, call) ->
                ctx.changed <- true;
                Some [ mk_map_call call ae ce ]
            | None -> None)
        | _ -> None)
    | _ -> None

(* map(f, a, b) followed by a statement whose only skeleton use of [b] is
   array_fold(conv, merge, b): fuse f into conv and fold directly over a. *)
let try_fuse_fold ctx fbody s1 s2 : Ast.stmt list option =
  if not ctx.clean then None
  else
    let rebuild_fold (e : Ast.expr) =
      (* the fold call must be the whole rhs so lift/merge evaluation order
         is preserved *)
      match e.Ast.desc with
      | Ast.Call
          ( ({ desc = Ast.Var "array_fold"; _ } as head),
            [ conv; merge; { desc = Ast.Var b; _ } ] ) ->
          Some (e, head, conv, merge, b)
      | _ -> None
    in
    let site =
      match s2 with
      | Ast.SExpr { desc = Ast.Assign (_, rhs); _ } -> rebuild_fold rhs
      | Ast.SExpr e -> rebuild_fold e
      | Ast.SDecl (_, _, Some e) -> rebuild_fold e
      | Ast.SReturn (Some e) -> rebuild_fold e
      | _ -> None
    in
    match (s1, site) with
    | ( Ast.SExpr
          {
            desc =
              Ast.Call
                ( { desc = Ast.Var "array_map"; _ },
                  [ fe; ae; { desc = Ast.Var b; _ } ] );
            _;
          },
        Some (fold_expr, head, conv, merge, b2) )
      when b2 = b
           && dead_intermediate fbody b
                ~extra:(mentions_stmt b s1 + 1)
           (* merge is evaluated with S1 deleted: restrict it to a function
              value whose (pure) lifts cannot observe the difference *)
           && (match merge.Ast.desc with
              | Ast.Var _ | Ast.OpSection _ -> true
              | Ast.Call ({ desc = Ast.Var _ | Ast.OpSection _; _ }, margs)
                ->
                  List.for_all (fun l -> expr_effect ctx l = Pure) margs
              | _ -> false) -> (
        match (arg_fn ctx fe, arg_fn ctx conv) with
        | Some inner, Some outer -> (
            match fuse_arg_fns ctx inner outer with
            | Some (_, call) ->
                fold_expr.Ast.desc <-
                  Ast.Call (head, [ call; merge; ae ]);
                ctx.changed <- true;
                Some [ s2 ]
            | None -> None)
        | _ -> None)
    | _ -> None

(* array_copy(s, d) where d is only ever created, copied into and
   destroyed: the copy can never be observed. *)
let try_dead_copy ctx fbody s : Ast.stmt list option =
  if not ctx.clean then None
  else
    match s with
    | Ast.SExpr
        {
          desc =
            Ast.Call
              ( { desc = Ast.Var "array_copy"; _ },
                [ { desc = Ast.Var src; _ }; { desc = Ast.Var d; _ } ] );
          _;
        }
      when src <> d -> (
        (* every mention of d outside create/destroy must be a copy target *)
        let copy_targets = ref 0 in
        let fs = function
          | Ast.SExpr
              {
                desc =
                  Ast.Call
                    ( { desc = Ast.Var "array_copy"; _ },
                      [ { desc = Ast.Var s'; _ }; { desc = Ast.Var d'; _ } ]
                    );
                _;
              }
            when d' = d && s' <> d ->
              incr copy_targets
          | _ -> ()
        in
        List.iter (Ast.iter_stmt ignore fs) fbody;
        match array_profile fbody d with
        | [ (_, decl_mentions) ], destroys, bare
          when mentions_stmts d fbody
               = decl_mentions + bare + destroys + !copy_targets ->
            ctx.changed <- true;
            Some []
        | _ -> None)
    | _ -> None

(* ---------------- loop-invariant hoisting ---------------- *)

(* Positions at which a builtin only *reads* the array argument. *)
let read_positions = function
  | "array_get_elem" | "array_part_bounds" | "array_copy"
  | "array_permute_rows" ->
      [ 0 ]
  | "array_map" -> [ 1 ]
  | "array_fold" -> [ 2 ]
  | "array_gen_mult" -> [ 0; 1 ]
  | _ -> []

(* Every occurrence of array [arr] in [stmts] is a read: a read-position
   argument of a skeleton, or an argument to a Pure/Read_only user function
   (which can only call array_get_elem / array_part_bounds on it). *)
let array_read_only ctx arr stmts =
  let reads = ref 0 in
  let fe (e : Ast.expr) =
    match e.Ast.desc with
    | Ast.Call ({ desc = Ast.Var f; _ }, args) ->
        let positions =
          if Hashtbl.mem ctx.funcs f then
            if eff_rank (func_effect ctx f) <= eff_rank Read_only then
              List.mapi (fun i _ -> i) args
            else []
          else read_positions f
        in
        List.iteri
          (fun i (a : Ast.expr) ->
            match a.Ast.desc with
            | Ast.Var y when y = arr && List.mem i positions -> incr reads
            | _ -> ())
          args
    | _ -> ()
  in
  List.iter (Ast.iter_stmt fe ignore) stmts;
  mentions_stmts arr stmts = !reads

let bcast_pattern = function
  | Ast.SExpr
      {
        desc =
          Ast.Call
            ( { desc = Ast.Var "array_broadcast_part"; _ },
              [ { desc = Ast.Var arr; _ }; ixe ] );
        _;
      } as s ->
      Some (s, arr, ixe)
  | _ -> None

(* A broadcast at the head of a loop body, of an array the loop only reads,
   at a loop-invariant index, moves before the loop (guarded by the loop
   condition so a zero-trip loop still broadcasts zero times).  Re-running
   the broadcast with unchanged contents is a no-op on values, so dropping
   iterations 2..n only removes charged communication. *)
let try_hoist_bcast ctx locals s : Ast.stmt list option =
  if not ctx.clean then None
  else
    let attempt cond rest step_stmts =
      match bcast_pattern (List.hd rest) with
      | Some (bcast, arr, ixe)
        when hoistable ctx locals cond && hoistable ctx locals ixe ->
          let body_rest = List.tl rest @ step_stmts in
          let killed = assigned_names body_rest in
          if
            invariant_under killed ixe
            && (not (Hashtbl.mem killed arr))
            && array_read_only ctx arr body_rest
          then Some (Ast.SIf (copy_expr cond, [ bcast ], []))
          else None
      | _ -> None
    in
    match s with
    | Ast.SWhile (cond, (_ :: _ as body)) -> (
        match attempt cond body [] with
        | Some guard ->
            ctx.changed <- true;
            Some [ guard; Ast.SWhile (cond, List.tl body) ]
        | None -> None)
    | Ast.SFor (init, Some cond, step, (_ :: _ as body)) -> (
        let step_stmts =
          match step with Some e -> [ Ast.SExpr e ] | None -> []
        in
        match attempt cond body step_stmts with
        | Some guard ->
            ctx.changed <- true;
            (* the init moves into an enclosing block so the guard can see
               its declarations; scoping is preserved *)
            let init_stmts = Option.to_list init in
            Some
              [
                Ast.SBlock
                  (init_stmts
                  @ [ guard; Ast.SFor (None, Some cond, step, List.tl body) ]
                  );
              ]
        | None -> None)
    | _ -> None

(* Pure, multi-node, loop-invariant scalar sides of a loop-condition
   comparison are computed once before the loop.  The paper's running
   examples spend per-iteration scalar work on bounds like
   [i <= bds->upperBd[0]] and [j < n / 2]. *)
let try_hoist_bounds ctx locals s : Ast.stmt list option =
  let comparison = function
    | "<" | "<=" | ">" | ">=" | "==" | "!=" -> true
    | _ -> false
  in
  let hoist_side killed side =
    if
      hoistable ctx locals side
      && node_count side >= 2
      && invariant_under killed side
    then
      match type_of ctx locals side with
      | Some ((Ast.TInt | Ast.TFloat) as t) ->
          let x = fresh_name ctx "b" in
          let decl = Ast.SDecl (t, x, Some side) in
          Some (decl, Ast.mk ~line:side.Ast.line ~col:side.Ast.col (Ast.Var x))
      | _ -> None
    else None
  in
  let rewrite killed cond rebuild =
    match cond.Ast.desc with
    | Ast.Binop (op, l, r) when comparison op ->
        let dl = hoist_side killed l and dr = hoist_side killed r in
        if dl = None && dr = None then None
        else begin
          let l' = match dl with Some (_, v) -> v | None -> l in
          let r' = match dr with Some (_, v) -> v | None -> r in
          cond.Ast.desc <- Ast.Binop (op, l', r');
          ctx.changed <- true;
          let decls =
            List.filter_map (Option.map fst) [ dl; dr ]
          in
          Some (decls @ [ rebuild () ])
        end
    | _ -> None
  in
  match s with
  | Ast.SWhile (cond, body) ->
      rewrite (assigned_names body) cond (fun () -> s)
  | Ast.SFor (init, Some cond, step, body) ->
      let step_stmts =
        match step with Some e -> [ Ast.SExpr e ] | None -> []
      in
      let killed =
        assigned_names (Option.to_list init @ step_stmts @ body)
      in
      rewrite killed cond (fun () -> s)
  | _ -> None

(* ---------------- dead create/destroy cleanup ---------------- *)

(* evaluation of [e] as plain data has no effect and can be dropped *)
let droppable_data ctx e = expr_effect ctx e = Pure

let droppable_fn_value ctx (e : Ast.expr) =
  match e.Ast.desc with
  | Ast.Var f | Ast.Call ({ desc = Ast.Var f; _ }, _) -> (
      (match e.Ast.desc with
      | Ast.Call (_, lifts) -> List.for_all (droppable_data ctx) lifts
      | _ -> true)
      && match Hashtbl.find_opt ctx.funcs f with
         | Some _ -> func_effect ctx f = Pure
         | None -> false)
  | Ast.OpSection _ -> true
  | _ -> false

let removable_create ctx x = function
  | Ast.SDecl
      (_, y, Some { desc = Ast.Call ({ desc = Ast.Var cn; _ }, args); _ })
    when y = x -> (
      match (cn, args) with
      | "array_create", [ dim; size; bs; lb; fe; distr ] ->
          List.for_all (droppable_data ctx) [ dim; size; bs; lb; distr ]
          && droppable_fn_value ctx fe
      | "array_create_const", [ dim; size; bs; lb; cv; distr ] ->
          List.for_all (droppable_data ctx) [ dim; size; bs; lb; cv; distr ]
      | _ -> false)
  | _ -> false

let is_destroy x = function
  | Ast.SExpr
      {
        desc =
          Ast.Call
            ( { desc = Ast.Var "array_destroy"; _ },
              [ { desc = Ast.Var y; _ } ] );
        _;
      } ->
      y = x
  | _ -> false

let rec remove_stmts keep stmts =
  List.filter_map
    (fun s ->
      if not (keep s) then None
      else
        Some
          (match s with
          | Ast.SIf (c, a, b) ->
              Ast.SIf (c, remove_stmts keep a, remove_stmts keep b)
          | Ast.SWhile (c, b) -> Ast.SWhile (c, remove_stmts keep b)
          | Ast.SFor (i, c, st, b) ->
              Ast.SFor (i, c, st, remove_stmts keep b)
          | Ast.SBlock b -> Ast.SBlock (remove_stmts keep b)
          | s -> s))
    stmts

(* Arrays that are only ever created and destroyed (fusion leaves these
   behind) disappear entirely: the create and every destroy go.  Both are
   collectives, but removal is syntactic so all processors still agree. *)
let cleanup_dead_arrays ctx body =
  if not ctx.clean then body
  else begin
    let candidates = ref [] in
    let fs s =
      match s with
      | Ast.SDecl (_, x, _) when removable_create ctx x s ->
          candidates := (x, s) :: !candidates
      | _ -> ()
    in
    List.iter (Ast.iter_stmt ignore fs) body;
    List.fold_left
      (fun body (x, create_stmt) ->
        let destroys = ref 0 in
        List.iter
          (Ast.iter_stmt ignore (fun s -> if is_destroy x s then incr destroys))
          body;
        (* the decl is the only non-destroy mention? *)
        if mentions_stmts x body = 1 + !destroys then begin
          ctx.changed <- true;
          remove_stmts
            (fun s -> not (s == create_stmt || is_destroy x s))
            body
        end
        else body)
      body !candidates
  end

(* ---------------- driver ---------------- *)

let locals_after s locals =
  match s with Ast.SDecl (t, x, _) -> (x, t) :: locals | _ -> locals

let fold_consts_in ctx e = Ast.iter_expr (fold_const_creates ctx) e

let rec opt_stmt ctx fbody locals s : Ast.stmt list =
  match s with
  | Ast.SExpr e ->
      fold_consts_in ctx e;
      [ s ]
  | Ast.SDecl (_, _, init) ->
      Option.iter (fold_consts_in ctx) init;
      [ s ]
  | Ast.SReturn (Some e) ->
      fold_consts_in ctx e;
      [ s ]
  | Ast.SReturn None | Ast.SBreak | Ast.SContinue -> [ s ]
  | Ast.SIf (c, a, b) ->
      fold_consts_in ctx c;
      [
        Ast.SIf
          (c, opt_stmts ctx fbody locals a, opt_stmts ctx fbody locals b);
      ]
  | Ast.SBlock b -> [ Ast.SBlock (opt_stmts ctx fbody locals b) ]
  | Ast.SWhile (cond, body) -> (
      match try_hoist_bcast ctx locals s with
      | Some repl -> repl
      | None -> (
          match try_hoist_bounds ctx locals s with
          | Some repl -> repl
          | None ->
              fold_consts_in ctx cond;
              [ Ast.SWhile (cond, opt_stmts ctx fbody locals body) ]))
  | Ast.SFor (init, cond, step, body) -> (
      match try_hoist_bcast ctx locals s with
      | Some repl -> repl
      | None -> (
          match try_hoist_bounds ctx locals s with
          | Some repl -> repl
          | None ->
              Option.iter
                (fun i -> ignore (opt_stmt ctx fbody locals i))
                init;
              Option.iter (fold_consts_in ctx) cond;
              Option.iter (fold_consts_in ctx) step;
              let locals' =
                match init with
                | Some i -> locals_after i locals
                | None -> locals
              in
              [
                Ast.SFor
                  (init, cond, step, opt_stmts ctx fbody locals' body);
              ]))

and opt_stmts ctx fbody locals = function
  | [] -> []
  | s1 :: (s2 :: rest as tl) -> (
      match try_fuse_pair ctx fbody s1 s2 with
      | Some repl -> opt_stmts ctx fbody locals (repl @ rest)
      | None -> (
          match try_fuse_fold ctx fbody s1 s2 with
          | Some repl -> opt_stmts ctx fbody locals (repl @ rest)
          | None -> (
              match try_dead_copy ctx fbody s1 with
              | Some repl -> opt_stmts ctx fbody locals (repl @ tl)
              | None ->
                  opt_stmt ctx fbody locals s1
                  @ opt_stmts ctx fbody (locals_after s1 locals) tl)))
  | [ s ] -> (
      match try_dead_copy ctx fbody s with
      | Some repl -> repl
      | None -> opt_stmt ctx fbody locals s)

let opt_func ctx (f : Ast.func) =
  match f.Ast.f_body with
  | None -> f
  | Some body ->
      let locals =
        List.map
          (fun (p : Ast.param) -> (p.Ast.p_name, p.Ast.p_type))
          f.Ast.f_params
      in
      let body = opt_stmts ctx body locals body in
      let body = cleanup_dead_arrays ctx body in
      { f with Ast.f_body = Some body }

(* Names whose user-level redefinition turns the skeleton patterns above
   into ordinary calls — one shadow disables every skeleton rewrite. *)
let skeleton_builtins =
  [
    "array_create"; "array_create_const"; "array_destroy"; "array_map";
    "array_fold"; "array_copy"; "array_broadcast_part"; "array_get_elem";
    "array_part_bounds"; "array_put_elem"; "array_permute_rows";
    "array_gen_mult";
  ]

let program ~env (prog : Ast.program) : Ast.program =
  let funcs = Hashtbl.create 64 in
  List.iter
    (function
      | Ast.TFunc f -> Hashtbl.replace funcs f.Ast.f_name f | _ -> ())
    prog;
  let used = Hashtbl.create 256 in
  let use n = Hashtbl.replace used n () in
  List.iter
    (function
      | Ast.TFunc f ->
          use f.Ast.f_name;
          List.iter (fun (p : Ast.param) -> use p.Ast.p_name) f.Ast.f_params;
          Option.iter
            (List.iter
               (Ast.iter_stmt
                  (fun (e : Ast.expr) ->
                    match e.Ast.desc with Ast.Var x -> use x | _ -> ())
                  (function Ast.SDecl (_, x, _) -> use x | _ -> ())))
            f.Ast.f_body
      | Ast.TStruct s -> use s.Ast.s_name
      | Ast.TTypedef t -> use t.Ast.td_name
      | Ast.TPardata p -> use p.Ast.pd_name)
    prog;
  let clean =
    List.for_all (fun n -> not (Hashtbl.mem funcs n)) skeleton_builtins
  in
  let ctx =
    {
      env;
      funcs;
      eff = Hashtbl.create 64;
      used;
      fresh = 0;
      new_funcs = [];
      changed = false;
      clean;
    }
  in
  let rec fix n prog =
    ctx.changed <- false;
    compute_effects ctx;
    let prog =
      List.map
        (function
          | Ast.TFunc f ->
              let f' = opt_func ctx f in
              Hashtbl.replace ctx.funcs f.Ast.f_name f';
              Ast.TFunc f'
          | t -> t)
        prog
    in
    let added = List.rev_map (fun f -> Ast.TFunc f) ctx.new_funcs in
    ctx.new_funcs <- [];
    let prog = prog @ added in
    if ctx.changed && n < 10 then fix (n + 1) prog else prog
  in
  fix 0 prog
