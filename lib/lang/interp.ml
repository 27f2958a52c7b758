open Value

type state = {
  funcs : (string, Ast.func) Hashtbl.t;
  tyenv : Typecheck.env;
  backend : [ `Seq | `Par of Machine.ctx ];
  meter : Machine.meter;
  buf : Buffer.t;
  mutable pending_ops : int;
      (* expression nodes evaluated since the last flush; charged as Scalar
         work on the simulated machine at statement granularity *)
  flat : bool;
      (* struct values keep their int and float fields unboxed (see
         [layout]) *)
  layouts : (string, Value.sdef) Hashtbl.t;  (* per struct name *)
}

exception Return_exc of Value.t
exception Break_exc
exception Continue_exc

(* environments are association lists of mutable variable cells *)

let make ?(backend = `Seq) ?(flat = false) ~tyenv program =
  let funcs = Hashtbl.create 32 in
  List.iter
    (function
      | Ast.TFunc f when f.Ast.f_body <> None ->
          Hashtbl.replace funcs f.Ast.f_name f
      | _ -> ())
    program;
  let meter =
    match backend with `Par ctx -> Machine.meter ctx | `Seq -> Machine.Idle
  in
  {
    funcs;
    tyenv;
    backend;
    meter;
    buf = Buffer.create 256;
    pending_ops = 0;
    flat;
    layouts = Hashtbl.create 8;
  }

let output st = Buffer.contents st.buf

(* The layout of struct [n], made on first use and shared by every value
   this state makes.  A flat state keeps the int and float fields of a
   struct without type parameters unboxed; every other field, and every
   field in any other state, is boxed. *)
let layout st n (sd : Ast.struct_def) =
  match Hashtbl.find_opt st.layouts n with
  | Some d -> d
  | None ->
      let kind (t, _) =
        if not (st.flat && sd.Ast.s_params = []) then Kbox
        else
          match Typecheck.expand st.tyenv t with
          | Ast.TInt -> Kint
          | Ast.TFloat -> Kfloat
          | _ -> Kbox
      in
      let fields = Array.of_list sd.Ast.s_fields in
      let d = Value.make_def n (Array.map snd fields) (Array.map kind fields) in
      Hashtbl.replace st.layouts n d;
      d

let rec default_value st (t : Ast.typ) =
  match Typecheck.expand st.tyenv t with
  | Ast.TInt -> VInt 0
  | Ast.TFloat -> VFloat 0.0
  | Ast.TChar -> VChar '\000'
  | Ast.TString -> VStr ""
  | Ast.TVoid -> VUnit
  | Ast.TIndex -> VIndex [||]
  | Ast.TBounds -> VBounds { Index.lower = [||]; upper = [||] }
  | Ast.TPtr _ -> VNull
  | Ast.TNamed (n, args) -> (
      match Typecheck.struct_def st.tyenv n with
      | Some sd ->
          let subst =
            try List.combine sd.Ast.s_params args with Invalid_argument _ ->
              []
          in
          let s = Value.zero_struct (layout st n sd) in
          List.iteri
            (fun i (ft, _) ->
              let ft =
                List.fold_left
                  (fun t (v', a) -> if t = Ast.TVar v' then a else t)
                  ft subst
              in
              Value.set_field s i (default_value st ft))
            sd.Ast.s_fields;
          VStruct s
      | None -> VUnit)
  | Ast.TVar _ | Ast.TMeta _ | Ast.TFun _ -> VUnit

(* ---------------- arithmetic ---------------- *)

let arith op a b =
  match (op, a, b) with
  | "+", VInt x, VInt y -> VInt (x + y)
  | "-", VInt x, VInt y -> VInt (x - y)
  | "*", VInt x, VInt y -> VInt (x * y)
  | "/", VInt x, VInt y ->
      if y = 0 then rte "division by zero" else VInt (x / y)
  | "%", VInt x, VInt y ->
      if y = 0 then rte "modulo by zero" else VInt (x mod y)
  | "+", VFloat x, VFloat y -> VFloat (x +. y)
  | "-", VFloat x, VFloat y -> VFloat (x -. y)
  | "*", VFloat x, VFloat y -> VFloat (x *. y)
  | "/", VFloat x, VFloat y -> VFloat (x /. y)
  | _ ->
      rte "invalid operands for %s: %s, %s" op (describe a) (describe b)

(* Ordering: defined on scalars only.  Pointers have no stable order (the
   old pointer case answered 1 for both x < y and y < x), so ordered
   comparisons on them are a runtime error; only == and != apply. *)
let compare_values a b =
  match (a, b) with
  | VInt x, VInt y -> compare x y
  | VFloat x, VFloat y -> compare x y
  | VChar x, VChar y -> compare x y
  | VStr x, VStr y -> compare x y
  | (VNull | VPtr _), (VNull | VPtr _) ->
      rte "pointers admit only == and != (no ordering)"
  | _ -> rte "cannot compare %s and %s" (describe a) (describe b)

let equal_values a b =
  match (a, b) with
  | VNull, VNull -> true
  | VNull, VPtr _ | VPtr _, VNull -> false
  | VPtr x, VPtr y -> x == y
  | _ -> compare_values a b = 0

let binop op a b =
  match op with
  | "+" | "-" | "*" | "/" | "%" -> arith op a b
  | "==" -> VInt (if equal_values a b then 1 else 0)
  | "!=" -> VInt (if equal_values a b then 0 else 1)
  | "<" -> VInt (if compare_values a b < 0 then 1 else 0)
  | ">" -> VInt (if compare_values a b > 0 then 1 else 0)
  | "<=" -> VInt (if compare_values a b <= 0 then 1 else 0)
  | ">=" -> VInt (if compare_values a b >= 0 then 1 else 0)
  | _ -> rte "unknown operator %s" op

(* ---------------- shared engine glue ----------------

   Everything from here to the expression evaluator is engine-independent:
   the compiled engine (Compile) runs on the same [state], charges through
   the same [flush_scalar], and dispatches builtins through the same
   [builtin] — which is what keeps simulated clocks, Stats and traces
   bit-identical between engines. *)

let ctx_of st =
  match st.backend with
  | `Par ctx -> ctx
  | `Seq -> rte "skeletons require parallel execution (use Spmd.run)"

(* Every statement of both engines runs this, so the common case, a
   simulated run's [Clock] meter, charges here with no call: the same
   operands in the same order as the [Charge] meter's [Machine.charge].
   It is written out rather than called from Machine because a call across
   modules is not inlined in every build (dune's dev profile compiles with
   -opaque). *)
let flush_scalar st =
  let ops = st.pending_ops in
  if ops > 0 then begin
    (match st.meter with
     | Machine.Clock m ->
         if m.cancel_on then Groups.check_cancel m.groups;
         let seconds =
           float_of_int ops *. Calibration.scalar_node_op *. m.factor
         in
         m.tm.clock <- m.tm.clock +. seconds;
         m.tm.busy <- m.tm.busy +. seconds
     | Machine.Poll g -> Groups.check_cancel g
     | Machine.Charge ctx ->
         Machine.charge ctx Cost_model.Scalar ~ops
           ~base:Calibration.scalar_node_op
     | Machine.Idle -> ());
    st.pending_ops <- 0
  end

let distr_of = function
  | 0 -> Darray.Default
  | 1 -> Darray.Ring
  | 2 -> Darray.Torus2d
  | d -> rte "unknown distribution code %d" d

(* ---------------- distributed-array payload dispatch ----------------

   The AST engine only ever creates generic (boxed) payloads; the compiled
   engine's specialised call sites create unboxed [DInt]/[DFloat] payloads
   and run the hot element loops itself (Compile).  These dispatchers are
   the single generic fallback shared by both engines: they accept every
   payload kind, boxing elements on the way into the customizing function
   and unboxing results on the way back, so observable behaviour and
   charged costs are identical whatever the representation.  Mixed-kind
   pairs can only arise between a specialised array and one created through
   a curried fallback path; copies convert element-wise, the row/product
   skeletons reject them (create both arrays through saturated calls). *)

let box_i n = VInt n
let box_f x = VFloat x

let map_arrays ctx ~apply f src dst =
  let wrap : 'a 'b. (Value.t -> 'b) -> ('a -> Value.t) -> 'a -> int array -> 'b
      =
   fun unbox box v ix -> unbox (apply f [ box v; VIndex (Array.copy ix) ])
  in
  match (src, dst) with
  | DGen s, DGen d -> Skeletons.map ctx (wrap Value.copy Fun.id) s d
  | DInt s, DInt d -> Skeletons.map ctx (wrap as_int box_i) s d
  | DFloat s, DFloat d -> Skeletons.map ctx (wrap as_float box_f) s d
  | DGen s, DInt d -> Skeletons.map_into ctx (wrap as_int Fun.id) s d
  | DGen s, DFloat d -> Skeletons.map_into ctx (wrap as_float Fun.id) s d
  | DInt s, DGen d -> Skeletons.map_into ctx (wrap Value.copy box_i) s d
  | DInt s, DFloat d -> Skeletons.map_into ctx (wrap as_float box_i) s d
  | DFloat s, DGen d -> Skeletons.map_into ctx (wrap Value.copy box_f) s d
  | DFloat s, DInt d -> Skeletons.map_into ctx (wrap as_int box_f) s d

let fold_array ctx ~apply conv f a =
  let g x y = apply f [ x; y ] in
  let wrap box v ix =
    Value.copy (apply conv [ box v; VIndex (Array.copy ix) ])
  in
  (* conv may change the accumulator type (gauss.skil folds floats into
     elemrec structs), so measure the wire size of the partial result
     instead of trusting the array's element size *)
  match a with
  | DGen a ->
      Skeletons.fold ctx ~acc_bytes_of:Value.wire_bytes ~conv:(wrap Fun.id) g a
  | DInt a ->
      Skeletons.fold ctx ~acc_bytes_of:Value.wire_bytes ~conv:(wrap box_i) g a
  | DFloat a ->
      Skeletons.fold ctx ~acc_bytes_of:Value.wire_bytes ~conv:(wrap box_f) g a

(* Generic elements are copied wherever a skeleton moves them, as C copies
   a struct: a field write through array_get_elem must show in one array
   on one processor only. *)
let copy_arrays ctx src dst =
  match (src, dst) with
  | DGen s, DGen d -> Skeletons.copy_with ctx Value.copy s d
  | DInt s, DInt d -> Skeletons.copy ctx s d
  | DFloat s, DFloat d -> Skeletons.copy ctx s d
  | DGen s, DInt d -> Skeletons.copy_with ctx as_int s d
  | DGen s, DFloat d -> Skeletons.copy_with ctx as_float s d
  | DInt s, DGen d -> Skeletons.copy_with ctx box_i s d
  | DFloat s, DGen d -> Skeletons.copy_with ctx box_f s d
  | DInt _, DFloat _ | DFloat _, DInt _ ->
      rte "array_copy: arrays have different element types"

let destroy_array ctx = function
  | DGen a -> Skeletons.destroy ctx a
  | DInt a -> Skeletons.destroy ctx a
  | DFloat a -> Skeletons.destroy ctx a

let broadcast_array ctx a ix =
  match a with
  | DGen a -> Skeletons.broadcast_part ctx ~copy:Value.copy a ix
  | DInt a -> Skeletons.broadcast_part ctx a ix
  | DFloat a -> Skeletons.broadcast_part ctx a ix

let permute_arrays ctx src p dst =
  match (src, dst) with
  | DGen s, DGen d -> Skeletons.permute_rows ctx ~copy:Value.copy s p d
  | DInt s, DInt d -> Skeletons.permute_rows ctx s p d
  | DFloat s, DFloat d -> Skeletons.permute_rows ctx s p d
  | _ -> rte "array_permute_rows: arrays use different payload \
              representations"

let gen_mult_arrays ctx ~apply add mul a b c =
  let fadd x y = apply add [ x; y ] in
  let fmul x y = apply mul [ x; y ] in
  match (a, b, c) with
  | DGen a, DGen b, DGen c -> Skeletons.gen_mult ctx ~add:fadd ~mul:fmul a b c
  | DInt a, DInt b, DInt c ->
      Skeletons.gen_mult ctx
        ~add:(fun x y -> as_int (fadd (VInt x) (VInt y)))
        ~mul:(fun x y -> as_int (fmul (VInt x) (VInt y)))
        a b c
  | DFloat a, DFloat b, DFloat c ->
      Skeletons.gen_mult ctx
        ~add:(fun x y -> as_float (fadd (VFloat x) (VFloat y)))
        ~mul:(fun x y -> as_float (fmul (VFloat x) (VFloat y)))
        a b c
  | _ -> rte "array_gen_mult: arrays use different payload representations"

let part_bounds_array ctx = function
  | DGen a -> Skeletons.part_bounds ctx a
  | DInt a -> Skeletons.part_bounds ctx a
  | DFloat a -> Skeletons.part_bounds ctx a

let get_elem_array ctx a ix =
  match a with
  | DGen a -> Skeletons.get_elem ctx a ix
  | DInt a -> VInt (Skeletons.get_elem ctx a ix)
  | DFloat a -> VFloat (Skeletons.get_elem ctx a ix)

let put_elem_array ctx a ix v =
  match a with
  | DGen a -> Skeletons.put_elem ctx a ix (Value.copy v)
  | DInt a -> Skeletons.put_elem ctx a ix (as_int v)
  | DFloat a -> Skeletons.put_elem ctx a ix (as_float v)

let builtin st ~apply name args =
  (* sequential work done so far must hit the clock before any collective *)
  if String.length name > 6 && String.sub name 0 6 = "array_" then
    flush_scalar st;
  match (name, args) with
  | "print_int", [ VInt n ] ->
      Buffer.add_string st.buf (string_of_int n);
      VUnit
  | "print_float", [ VFloat f ] ->
      Buffer.add_string st.buf (Printf.sprintf "%g" f);
      VUnit
  | "print_string", [ VStr s ] ->
      Buffer.add_string st.buf s;
      VUnit
  | "print_char", [ VChar c ] ->
      Buffer.add_char st.buf c;
      VUnit
  | "error", [ VStr s ] -> rte "%s" s
  | "min", [ a; b ] -> if compare_values a b <= 0 then a else b
  | "max", [ a; b ] -> if compare_values a b >= 0 then a else b
  | "abs", [ VInt n ] -> VInt (abs n)
  | "fabs", [ VFloat f ] -> VFloat (Float.abs f)
  | "sqrt", [ VFloat f ] -> VFloat (sqrt f)
  | "log2", [ VInt n ] ->
      let rec go k pow = if pow >= n then k else go (k + 1) (2 * pow) in
      VInt (go 0 1)
  | "itof", [ VInt n ] -> VFloat (float_of_int n)
  | "ftoi", [ VFloat f ] -> VInt (int_of_float f)
  (* skeletons (section 3) *)
  | "array_create", [ VInt dim; VIndex size; VIndex _bs; VIndex _lb; init;
                      VInt distr ] ->
      let ctx = ctx_of st in
      if Array.length size <> dim then rte "array_create: bad Size";
      let f ix = Value.copy (apply init [ VIndex (Array.copy ix) ]) in
      VDarray
        (DGen
           (Skeletons.create ctx ~gsize:(Array.copy size)
              ~distr:(distr_of distr) f))
  | "array_create_const", [ VInt dim; VIndex size; VIndex _bs; VIndex _lb;
                            init; VInt distr ] ->
      (* array_create with a constant element: same skeleton, same Mapped
         charge, but no per-element initialiser function to interpret *)
      let ctx = ctx_of st in
      if Array.length size <> dim then rte "array_create_const: bad Size";
      let f _ix = Value.copy init in
      VDarray
        (DGen
           (Skeletons.create ctx ~gsize:(Array.copy size)
              ~distr:(distr_of distr) f))
  | "array_destroy", [ VDarray a ] ->
      destroy_array (ctx_of st) a;
      VUnit
  | "array_map", [ f; VDarray src; VDarray dst ] ->
      map_arrays (ctx_of st) ~apply f src dst;
      VUnit
  | "array_fold", [ conv; f; VDarray a ] ->
      fold_array (ctx_of st) ~apply conv f a
  | "array_copy", [ VDarray src; VDarray dst ] ->
      copy_arrays (ctx_of st) src dst;
      VUnit
  | "array_broadcast_part", [ VDarray a; VIndex ix ] ->
      broadcast_array (ctx_of st) a ix;
      VUnit
  | "array_permute_rows", [ VDarray src; perm; VDarray dst ] ->
      let p r = as_int (apply perm [ VInt r ]) in
      permute_arrays (ctx_of st) src p dst;
      VUnit
  | "array_gen_mult", [ VDarray a; VDarray b; add; mul; VDarray c ] ->
      gen_mult_arrays (ctx_of st) ~apply add mul a b c;
      VUnit
  | "array_part_bounds", [ VDarray a ] ->
      VBounds (part_bounds_array (ctx_of st) a)
  | "array_get_elem", [ VDarray a; VIndex ix ] ->
      get_elem_array (ctx_of st) a ix
  | "array_put_elem", [ VDarray a; VIndex ix; v ] ->
      put_elem_array (ctx_of st) a ix v;
      VUnit
  | _ ->
      rte "builtin %s: bad arguments (%s)" name
        (String.concat ", " (List.map describe args))

let constant st name =
  match (name, st.backend) with
  (* the paper's "maximal integer value" standing for infinity, scaled so
     that int_max + weight cannot overflow (same choice as Shortest_paths) *)
  | "int_max", _ -> Some (VInt (max_int / 4))
  | "procId", `Par ctx -> Some (VInt (Machine.self ctx))
  | "procId", `Seq -> Some (VInt 0)
  | "nProcs", `Par ctx -> Some (VInt (Machine.nprocs ctx))
  | "nProcs", `Seq -> Some (VInt 1)
  | "NULL", _ -> Some VNull
  | "DISTR_DEFAULT", _ -> Some (VInt 0)
  | "DISTR_RING", _ -> Some (VInt 1)
  | "DISTR_TORUS2D", _ -> Some (VInt 2)
  | _ -> None

let is_constant = function
  | "int_max" | "procId" | "nProcs" | "NULL" | "DISTR_DEFAULT" | "DISTR_RING"
  | "DISTR_TORUS2D" ->
      true
  | _ -> false

(* Split the first [k] elements off [xs] in one linear pass. *)
let split_at k xs =
  let rec go k acc = function
    | rest when k = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> go (k - 1) (x :: acc) rest
  in
  go k [] xs

(* ---------------- application ---------------- *)

let rec apply st fv_value args =
  match fv_value with
  | VFun f -> apply_fun st f args
  | v when args = [] -> v
  | v -> rte "cannot apply %s" (describe v)

and apply_fun st f args =
    let supplied = f.fv_applied @ args in
    let arity =
      match f.fv_target with
      | `Op _ -> 2
      | `User name -> (
          match Hashtbl.find_opt st.funcs name with
          | Some fn -> List.length fn.Ast.f_params
          | None -> rte "undefined function %s" name)
      | `Builtin name -> (
          match Typecheck.builtin_arity name with
          | Some n -> n
          | None -> rte "unknown builtin %s" name)
    in
    let nsupplied = List.length supplied in
    if nsupplied < arity then VFun { f with fv_applied = supplied }
    else if nsupplied > arity then begin
      (* curried over-application: call with exactly arity, re-apply rest *)
      let now, later = split_at arity supplied in
      apply st (invoke st f.fv_target now) later
    end
    else invoke st f.fv_target supplied

and invoke st target args =
  match target with
  | `Op op -> (
      match args with
      | [ a; b ] -> binop op a b
      | _ -> rte "operator section applied to %d args" (List.length args))
  | `User name -> (
      match Hashtbl.find_opt st.funcs name with
      | None -> rte "undefined function %s" name
      | Some fn ->
          let env =
            List.map2
              (fun p v -> (p.Ast.p_name, ref (copy v)))
              fn.Ast.f_params args
          in
          let body = Option.get fn.Ast.f_body in
          (try
             exec_block st env body;
             VUnit
           with Return_exc v -> v))
  | `Builtin name -> builtin st ~apply:(apply st) name args

(* ---------------- expression evaluation ---------------- *)

and lookup st env name =
  match List.assoc_opt name env with
  | Some r -> !r
  | None -> (
      match constant st name with
      | Some v -> v
      | None ->
          if Hashtbl.mem st.funcs name then
            VFun { fv_target = `User name; fv_applied = [] }
          else if Typecheck.is_builtin name then
            VFun { fv_target = `Builtin name; fv_applied = [] }
          else rte "unbound identifier %s" name)

and eval st env (e : Ast.expr) : Value.t =
  st.pending_ops <- st.pending_ops + 1;
  match e.Ast.desc with
  | Ast.Int n -> VInt n
  | Ast.Float f -> VFloat f
  | Ast.Str s -> VStr s
  | Ast.Chr c -> VChar c
  | Ast.Var x -> lookup st env x
  | Ast.OpSection op -> VFun { fv_target = `Op op; fv_applied = [] }
  | Ast.Call (f, args) ->
      let fv = eval st env f in
      let argv = List.map (eval st env) args in
      apply st fv argv
  | Ast.Binop (("&&" | "||") as op, a, b) ->
      (* short-circuit *)
      let va = truthy (eval st env a) in
      if op = "&&" then
        if va then VInt (if truthy (eval st env b) then 1 else 0) else VInt 0
      else if va then VInt 1
      else VInt (if truthy (eval st env b) then 1 else 0)
  | Ast.Binop (op, a, b) ->
      (* pin left-to-right: OCaml argument order is unspecified, and the
         compiled engine must replay operand effects identically *)
      let va = eval st env a in
      let vb = eval st env b in
      binop op va vb
  | Ast.Unop ("!", a) -> VInt (if truthy (eval st env a) then 0 else 1)
  | Ast.Unop ("-", a) -> (
      match eval st env a with
      | VInt n -> VInt (-n)
      | VFloat f -> VFloat (-.f)
      | v -> rte "cannot negate %s" (describe v))
  | Ast.Unop (op, _) -> rte "unknown unary operator %s" op
  | Ast.Assign (l, r) ->
      let v = Value.copy (eval st env r) in
      assign st env l v;
      v
  | Ast.Idx (a, i) -> (
      let arr = as_index (eval st env a) in
      let i = as_int (eval st env i) in
      match arr with
      | arr when i >= 0 && i < Array.length arr -> VInt arr.(i)
      | _ -> rte "Index access out of range (%d)" i)
  | Ast.Field (s, f) -> field st (eval st env s) f
  | Ast.Arrow (p, f) -> (
      match eval st env p with
      | VPtr r -> field st !r f
      | VBounds b -> bounds_field b f
      | VNull -> rte "dereference of NULL"
      | v -> rte "-> applied to %s" (describe v))
  | Ast.Deref p -> (
      match eval st env p with
      | VPtr r -> !r
      | VNull -> rte "dereference of NULL"
      | v -> rte "dereference of %s" (describe v))
  | Ast.ArrayLit es ->
      VIndex (Array.of_list (List.map (fun e -> as_int (eval st env e)) es))
  | Ast.Cond (c, a, b) ->
      if truthy (eval st env c) then eval st env a else eval st env b
  | Ast.New e -> VPtr (ref (Value.copy (eval st env e)))

and field st v f =
  ignore st;
  match v with
  | VStruct s -> Value.get_field s (Value.field_pos s f)
  | VBounds b -> bounds_field b f
  | v -> rte "field access on %s" (describe v)

and bounds_field b = function
  | "lowerBd" -> VIndex (Array.copy b.Index.lower)
  | "upperBd" ->
      (* the paper's bounds are inclusive; ours are exclusive upper, so the
         visible upperBd is upper-1 per dimension *)
      VIndex (Array.map (fun u -> u - 1) b.Index.upper)
  | f -> rte "Bounds has no field %s" f

and assign st env (l : Ast.expr) v =
  match l.Ast.desc with
  | Ast.Var x -> (
      match List.assoc_opt x env with
      | Some r -> r := v
      | None -> rte "cannot assign to %s" x)
  | Ast.Idx (a, i) -> (
      let arr = as_index (eval st env a) in
      let i = as_int (eval st env i) in
      if i >= 0 && i < Array.length arr then arr.(i) <- as_int v
      else rte "Index assignment out of range (%d)" i)
  | Ast.Field (s, f) -> (
      match eval st env s with
      | VStruct str -> Value.set_field str (Value.field_pos str f) v
      | w -> rte "field assignment on %s" (describe w))
  | Ast.Arrow (p, f) -> (
      match eval st env p with
      | VPtr r -> (
          match !r with
          | VStruct str -> Value.set_field str (Value.field_pos str f) v
          | w -> rte "-> assignment on %s" (describe w))
      | VNull -> rte "assignment through NULL"
      | w -> rte "-> assignment on %s" (describe w))
  | Ast.Deref p -> (
      match eval st env p with
      | VPtr r -> r := v
      | VNull -> rte "assignment through NULL"
      | w -> rte "assignment through %s" (describe w))
  | _ -> rte "invalid assignment target"

(* ---------------- statements ---------------- *)

and exec st env stmt =
  flush_scalar st;
  exec_stmt st env stmt

and exec_stmt st env = function
  | Ast.SExpr e ->
      ignore (eval st env e);
      env
  | Ast.SDecl (t, name, init) ->
      let v =
        match init with
        | Some e -> Value.copy (eval st env e)
        | None -> default_value st t
      in
      (name, ref v) :: env
  | Ast.SIf (c, a, b) ->
      if truthy (eval st env c) then exec_block st env a
      else exec_block st env b;
      env
  | Ast.SWhile (c, body) ->
      (try
         while truthy (eval st env c) do
           try exec_block st env body with Continue_exc -> ()
         done
       with Break_exc -> ());
      env
  | Ast.SFor (init, cond, step, body) ->
      let env' = match init with Some s -> exec st env s | None -> env in
      let check () =
        match cond with Some c -> truthy (eval st env' c) | None -> true
      in
      (try
         while check () do
           (try exec_block st env' body with Continue_exc -> ());
           match step with
           | Some e -> ignore (eval st env' e)
           | None -> ()
         done
       with Break_exc -> ());
      env
  | Ast.SReturn None -> raise (Return_exc VUnit)
  | Ast.SReturn (Some e) -> raise (Return_exc (Value.copy (eval st env e)))
  | Ast.SBreak -> raise Break_exc
  | Ast.SContinue -> raise Continue_exc
  | Ast.SBlock b ->
      exec_block st env b;
      env

and exec_block st env stmts = ignore (List.fold_left (exec st) env stmts)

let call st name args =
  if Hashtbl.mem st.funcs name then
    apply st (VFun { fv_target = `User name; fv_applied = [] }) args
  else if Typecheck.is_builtin name then
    apply st (VFun { fv_target = `Builtin name; fv_applied = [] }) args
  else rte "undefined function %s" name
