exception Unsupported of { line : int; message : string }

let unsupported line fmt =
  Printf.ksprintf (fun message -> raise (Unsupported { line; message })) fmt

type target = User of string | Builtin of string | Op of string

(* How a functional argument is passed: a direct target plus the data
   arguments captured by partial application (already rewritten; they are
   evaluated at the call site and lifted into parameters of the enclosing
   specialization). *)
type fdesc = {
  d_target : target;
  d_lifted : Ast.expr list;
  d_lifted_types : Ast.typ list;
}

(* A functional parameter of the function being specialized, bound to a
   concrete target; the lifted values are available in the lift parameters
   (names paired with their concrete types, needed when the parameter is
   passed along to another HOF). *)
type bound = { b_target : target; b_lifts : (string * Ast.typ) list }

type st = {
  env : Typecheck.env;
  originals : (string, Ast.func) Hashtbl.t;
  specs : (string, string) Hashtbl.t; (* key -> generated name *)
  mutable out : Ast.func list;
  counters : (string, int) Hashtbl.t;
}

(* ---------------- types ---------------- *)

let rec ground line t =
  match t with
  | Ast.TVar v -> unsupported line "unresolved type variable $%s" v
  | Ast.TPtr t -> ignore (ground line t)
  | Ast.TNamed (_, args) -> List.iter (fun t -> ignore (ground line t)) args
  | Ast.TFun (args, ret) ->
      List.iter (fun t -> ignore (ground line t)) args;
      ignore (ground line ret)
  | _ -> ()

let is_fun_type env t =
  match Typecheck.expand env t with Ast.TFun _ -> true | _ -> false

(* ---------------- naming and keys ---------------- *)

let render_target = function
  | User n -> "u:" ^ n
  | Builtin n -> "b:" ^ n
  | Op op -> "o:" ^ op

let render_fdesc d =
  Printf.sprintf "%s[%s]" (render_target d.d_target)
    (String.concat "," (List.map Ast.type_to_string d.d_lifted_types))

let spec_key g tyinst fargs =
  Printf.sprintf "%s<%s>(%s)" g
    (String.concat "," (List.map Ast.type_to_string tyinst))
    (String.concat ";" (List.map render_fdesc fargs))

let fresh_name st g =
  let k = (match Hashtbl.find_opt st.counters g with Some k -> k | None -> 0) + 1 in
  Hashtbl.replace st.counters g k;
  Printf.sprintf "%s_%d" g k

(* ---------------- instantiation of function instances ---------------- *)

let mk = Ast.mk

let rec ensure_spec st line g ~tyinst ~fargs =
  let fn =
    match Hashtbl.find_opt st.originals g with
    | Some fn -> fn
    | None -> unsupported line "no definition for function %s" g
  in
  let sch =
    match Typecheck.function_scheme st.env g with
    | Some sch -> sch
    | None -> unsupported line "unknown function %s" g
  in
  let tyinst_types =
    List.map
      (fun v ->
        match List.assoc_opt v tyinst with
        | Some t -> t
        | None -> Ast.TInt (* unused type variable: default as C would *))
      sch.Typecheck.sch_vars
  in
  List.iter (ground line) tyinst_types;
  let key = spec_key g tyinst_types fargs in
  match Hashtbl.find_opt st.specs key with
  | Some name -> name
  | None ->
      let trivial =
        tyinst_types = [] && fargs = []
        && not (List.exists (is_fun_type st.env) sch.Typecheck.sch_params)
      in
      let name = if trivial then g else fresh_name st g in
      Hashtbl.replace st.specs key name;
      let s = List.combine sch.Typecheck.sch_vars tyinst_types in
      (* build the specialized parameter list and the bindings *)
      let fargs_left = ref fargs in
      let params = ref [] in
      let bindings = ref [] in
      List.iter
        (fun p ->
          if is_fun_type st.env p.Ast.p_type then begin
            match !fargs_left with
            | [] ->
                unsupported line
                  "functional parameter %s of %s is not supplied at this \
                   call pattern"
                  p.Ast.p_name g
            | d :: rest ->
                fargs_left := rest;
                let lifts =
                  List.mapi
                    (fun i t -> (Printf.sprintf "%s_lift%d" p.Ast.p_name i, t))
                    d.d_lifted_types
                in
                List.iter
                  (fun (n, t) ->
                    params := { Ast.p_type = t; p_name = n } :: !params)
                  lifts;
                bindings :=
                  (p.Ast.p_name, { b_target = d.d_target; b_lifts = lifts })
                  :: !bindings
          end
          else
            params :=
              { Ast.p_type = Ast.subst_type s p.Ast.p_type;
                p_name = p.Ast.p_name }
              :: !params)
        fn.Ast.f_params;
      if !fargs_left <> [] then
        unsupported line "too many functional arguments for %s" g;
      let params = List.rev !params in
      let bindings = !bindings in
      let body =
        match fn.Ast.f_body with
        | None -> unsupported line "%s has no body to instantiate" g
        | Some body ->
            List.map
              (Ast.map_stmt (rewrite st s bindings) (Ast.subst_type s))
              body
      in
      st.out <-
        {
          Ast.f_ret = Ast.subst_type s fn.Ast.f_ret;
          f_name = name;
          f_params = params;
          f_body = Some body;
        }
        :: st.out;
      name

(* ---------------- rewriting ---------------- *)

(* Flatten curried application chains: ((f a) b) -> f [a; b]. *)
and flatten_call f args =
  match f.Ast.desc with
  | Ast.Call (g, inner) -> flatten_call g (inner @ args)
  | _ -> (f, args)

and tyinst_of _st s (e : Ast.expr) =
  List.map (fun (v, t) -> (v, Ast.subst_type s t)) e.Ast.inst

(* Analyze an expression in functional-argument position into an fdesc. *)
and analyze st s bindings (e : Ast.expr) : fdesc =
  let line = e.Ast.line in
  match e.Ast.desc with
  | Ast.Var p when List.mem_assoc p bindings ->
      (* a functional parameter passed along: its lifted values travel as
         references to this specialization's lift parameters *)
      let b = List.assoc p bindings in
      {
        d_target = b.b_target;
        d_lifted = List.map (fun (n, _) -> mk ~line (Ast.Var n)) b.b_lifts;
        d_lifted_types = List.map snd b.b_lifts;
      }
  | Ast.Var g -> (
      match Typecheck.function_scheme st.env g with
      | None -> unsupported line "functional argument %s is not a function" g
      | Some sch ->
          if List.exists (is_fun_type st.env) sch.Typecheck.sch_params then
            unsupported line
              "higher-order function %s passed without its functional \
               arguments"
              g;
          if Hashtbl.mem st.originals g then
            let name =
              ensure_spec st line g ~tyinst:(tyinst_of st s e) ~fargs:[]
            in
            { d_target = User name; d_lifted = []; d_lifted_types = [] }
          else { d_target = Builtin g; d_lifted = []; d_lifted_types = [] })
  | Ast.OpSection op -> { d_target = Op op; d_lifted = []; d_lifted_types = [] }
  | Ast.Call (f, args) -> (
      let head, args = flatten_call f args in
      match head.Ast.desc with
      | Ast.OpSection op ->
          let t =
            match head.Ast.inst with
            | (_, t) :: _ -> Ast.subst_type s t
            | [] -> Ast.TInt
          in
          {
            d_target = Op op;
            d_lifted = List.map (rewrite st s bindings) args;
            d_lifted_types = List.map (fun _ -> t) args;
          }
      | Ast.Var p when List.mem_assoc p bindings ->
          (* further partial application of an already-bound functional
             parameter: prior lifts keep their recorded types; the extra
             data arguments' types come from the target's remaining
             signature when it is a user/builtin function, or stay opaque
             for operators (where the operand type is uniform anyway) *)
          let b = List.assoc p bindings in
          let prior = List.map (fun (n, _) -> mk ~line (Ast.Var n)) b.b_lifts in
          let prior_types = List.map snd b.b_lifts in
          let extra_types =
            match b.b_target with
            | Op _ -> (
                match prior_types with
                | t :: _ -> List.map (fun _ -> t) args
                | [] -> List.map (fun _ -> Ast.TInt) args)
            | User tname | Builtin tname -> (
                match Typecheck.function_scheme st.env tname with
                | Some sch ->
                    let nprior = List.length prior in
                    List.mapi
                      (fun i _ ->
                        match List.nth_opt sch.Typecheck.sch_params (nprior + i) with
                        | Some t -> Ast.subst_type s t
                        | None -> Ast.TInt)
                      args
                | None -> List.map (fun _ -> Ast.TInt) args)
          in
          {
            d_target = b.b_target;
            d_lifted = prior @ List.map (rewrite st s bindings) args;
            d_lifted_types = prior_types @ extra_types;
          }
      | Ast.Var g -> (
          match Typecheck.function_scheme st.env g with
          | None -> unsupported line "%s is not a function" g
          | Some sch ->
              let tyinst = tyinst_of st s head in
              let sub =
                List.combine sch.Typecheck.sch_vars
                  (List.map
                     (fun v ->
                       match List.assoc_opt v tyinst with
                       | Some t -> t
                       | None -> Ast.TInt)
                     sch.Typecheck.sch_vars)
              in
              let nsupplied = List.length args in
              let supplied_params =
                List.filteri (fun i _ -> i < nsupplied) sch.Typecheck.sch_params
              in
              if List.length supplied_params < nsupplied then
                unsupported line "over-application in functional argument";
              let fargs = ref [] and lifted = ref [] and ltypes = ref [] in
              List.iter2
                (fun pt arg ->
                  if is_fun_type st.env pt then
                    fargs := analyze st s bindings arg :: !fargs
                  else begin
                    lifted := rewrite st s bindings arg :: !lifted;
                    ltypes :=
                      Ast.subst_type sub (Ast.subst_type s pt) :: !ltypes
                  end)
                supplied_params args;
              let fargs = List.rev !fargs in
              let lifted = List.rev !lifted in
              let ltypes = List.rev !ltypes in
              List.iter (ground line) ltypes;
              if Hashtbl.mem st.originals g then
                let name = ensure_spec st line g ~tyinst ~fargs in
                { d_target = User name; d_lifted = lifted;
                  d_lifted_types = ltypes }
              else begin
                if fargs <> [] then
                  unsupported line
                    "builtin %s partially applied to functional arguments" g;
                { d_target = Builtin g; d_lifted = lifted;
                  d_lifted_types = ltypes }
              end)
      | _ ->
          unsupported line
            "functional argument too complex for instantiation")
  | _ -> unsupported line "functional argument too complex for instantiation"

(* Rebuild an fdesc as a residual expression (functional argument of a
   builtin skeleton: a direct reference to a first-order function). *)
and rebuild line d =
  match (d.d_target, d.d_lifted) with
  | Op op, [] -> mk ~line (Ast.OpSection op)
  | Op op, lifted -> mk ~line (Ast.Call (mk ~line (Ast.OpSection op), lifted))
  | User n, [] | Builtin n, [] -> mk ~line (Ast.Var n)
  | User n, lifted | Builtin n, lifted ->
      mk ~line (Ast.Call (mk ~line (Ast.Var n), lifted))

and rewrite st s bindings (e : Ast.expr) : Ast.expr =
  let line = e.Ast.line in
  match e.Ast.desc with
  | Ast.OpSection _ ->
      unsupported line "operator section outside a functional position"
  | Ast.Var p when List.mem_assoc p bindings ->
      unsupported line
        "functional parameter %s used outside a call or argument position" p
  | Ast.Var g when Hashtbl.mem st.originals g ->
      (* direct reference to a user function in data position: only valid if
         it is monomorphic and first-order; give it its trivial instance *)
      let name = ensure_spec st line g ~tyinst:(tyinst_of st s e) ~fargs:[] in
      mk ~line (Ast.Var name)
  | Ast.Var _ -> e
  | Ast.Call (f, args) -> rewrite_call st s bindings line f args
  | _ -> Ast.map_expr (rewrite st s bindings) e

and rewrite_call st s bindings line f args =
  let head, args = flatten_call f args in
  match head.Ast.desc with
  | Ast.OpSection op -> (
      match List.map (rewrite st s bindings) args with
      | [ a; b ] -> mk ~line (Ast.Binop (op, a, b))
      | _ ->
          unsupported line
            "partially applied operator outside a functional position")
  | Ast.Var p when List.mem_assoc p bindings -> (
      let b = List.assoc p bindings in
      let lift = List.map (fun (n, _) -> mk ~line (Ast.Var n)) b.b_lifts in
      let full = lift @ List.map (rewrite st s bindings) args in
      match b.b_target with
      | Op op -> (
          match full with
          | [ x; y ] -> mk ~line (Ast.Binop (op, x, y))
          | _ ->
              unsupported line
                "operator-valued parameter %s applied to %d arguments" p
                (List.length full))
      | User n | Builtin n ->
          mk ~line (Ast.Call (mk ~line (Ast.Var n), full)))
  | Ast.Var g -> (
      match Typecheck.function_scheme st.env g with
      | None ->
          (* calling a local variable: not supported after instantiation *)
          unsupported line "call through variable %s is not first-order" g
      | Some sch ->
          let params = sch.Typecheck.sch_params in
          if List.length args < List.length params then
            unsupported line
              "partial application of %s outside a functional position" g;
          if List.length args > List.length params then
            unsupported line "over-application of %s" g;
          let has_funargs = List.exists (is_fun_type st.env) params in
          if Hashtbl.mem st.originals g then begin
            let tyinst = tyinst_of st s head in
            if has_funargs then begin
              let fargs = ref [] in
              let out_args = ref [] in
              List.iter2
                (fun pt arg ->
                  if is_fun_type st.env pt then begin
                    let d = analyze st s bindings arg in
                    fargs := d :: !fargs;
                    (* accumulator is in reverse order *)
                    out_args := List.rev_append d.d_lifted !out_args
                  end
                  else out_args := rewrite st s bindings arg :: !out_args)
                params args;
              let name =
                ensure_spec st line g ~tyinst ~fargs:(List.rev !fargs)
              in
              mk ~line (Ast.Call (mk ~line (Ast.Var name), List.rev !out_args))
            end
            else begin
              let name = ensure_spec st line g ~tyinst ~fargs:[] in
              mk ~line
                (Ast.Call
                   ( mk ~line (Ast.Var name),
                     List.map (rewrite st s bindings) args ))
            end
          end
          else
            (* builtin: keep the call, reduce functional arguments to direct
               first-order references *)
            let out_args =
              List.map2
                (fun pt arg ->
                  if is_fun_type st.env pt then
                    rebuild line (analyze st s bindings arg)
                  else rewrite st s bindings arg)
                params args
            in
            mk ~line (Ast.Call (mk ~line (Ast.Var g), out_args)))
  | _ -> unsupported line "computed function calls are not supported"

(* ---------------- entry point ---------------- *)

let program env prog ~entries =
  let originals = Hashtbl.create 32 in
  List.iter
    (function
      | Ast.TFunc f when f.Ast.f_body <> None ->
          Hashtbl.replace originals f.Ast.f_name f
      | _ -> ())
    prog;
  let st =
    { env; originals; specs = Hashtbl.create 32; out = [];
      counters = Hashtbl.create 16 }
  in
  List.iter
    (fun entry ->
      if not (Hashtbl.mem originals entry) then
        unsupported 0 "entry function %s not found" entry;
      ignore (ensure_spec st 0 entry ~tyinst:[] ~fargs:[]))
    entries;
  let others =
    List.filter (function Ast.TFunc _ -> false | _ -> true) prog
  in
  others @ List.rev_map (fun f -> Ast.TFunc f) st.out

let is_first_order prog =
  let ok_type t =
    Parser.tyvars_of [] t = []
    && (match t with Ast.TFun _ -> false | _ -> true)
  in
  List.for_all
    (function
      | Ast.TFunc f ->
          ok_type f.Ast.f_ret
          && List.for_all (fun p -> ok_type p.Ast.p_type) f.Ast.f_params
      | _ -> true)
    prog
