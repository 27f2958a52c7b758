(* Compile-to-closures execution engine: "translation by instantiation",
   in process.

   Runs after typechecking (and normally after Instantiate.program, whose
   output is first-order).  Each function body is translated ONCE into a
   tree of OCaml closures:

     - variables become cells of the activation's [frame] instead of
       assoc-list lookups, and every closure takes the frame as its one
       argument;
     - a variable, parameter or result whose declared type is int or float
       lives unboxed in the frame's [int array] or [float array]; every
       other one in its [Value.t array];
     - a struct field resolves to its kind and slot in the layout of the
       struct type the typechecker recorded, an int or float one in the
       value's unboxed arrays (with one physical check of the value's
       layout and a by-name fallback);
     - binary operators are specialized at compile time (no string
       dispatch on the hot path);
     - call targets and arities are resolved at compile time: a saturated
       call evaluates its arguments straight into the cells of a fresh
       frame and runs the target's body, and currying machinery is only
       emitted for genuinely partial or dynamic applications;
     - an expression of static type int or float (literals, typed cells,
       procId/nProcs, same-typed arithmetic and comparisons, ix[i],
       bds->lowerBd[i], fabs/sqrt/itof/ftoi/abs, array_get_elem on an
       int or float array, calls of int and float functions) also gets an
       unboxed runner, which typed consumers, conditions, literal element
       reads and stores into typed cells use;
     - each statement flushes pending work inside its own closure, and a
       block runs as a chain of its statements' closures;
     - return, break and continue are values a statement returns, not
       exceptions; an int or float function returns through its result
       cell, and a return of a variable the activation owns skips the
       copy.

   Cost-accounting contract: the reference interpreter bumps
   [st.pending_ops] once per expression node evaluated and flushes before
   every statement and every array_* collective.  Compiled code must leave
   the SAME counter value at every flush point, so simulated clocks, Stats
   and traces are bit-identical between engines.  Node counts of call-free,
   branch-free subtrees are pre-summed at compile time ([ops = Some n]) and
   added with one increment; any subtree that may flush mid-evaluation
   (calls) or evaluate children conditionally (&&, ||, ?:) stays dynamic
   and bumps at its interpreter-defined position. *)

open Value

(* An activation: the rank's state and the cells of its variables, boxed
   in [v], and int and float ones unboxed in [iv] and [fl] (see [kind]).
   Every closure the engine builds takes this one argument, so each call
   is an indirect call at its own site; a two-argument call to an unknown
   closure would go through OCaml's shared [caml_apply2]. *)
type frame = {
  st : Interp.state;
  v : Value.t array;
  iv : int array;
  fl : float array;
}

(* Static scalar kinds ([Value.kind]): a variable's, parameter's or
   result's declared type after [Typecheck.expand], when the program lets
   typed runners trust it (see [typed_slots]).  A [Kint] cell lives in the
   frame's [iv], a [Kfloat] one in [fl], a [Kbox] one in [v]. *)

type 'a runner = frame -> 'a

(* A field access resolved at compile time: the layout of the annotated
   struct type in the templates' state, and the field's kind and slot in
   it.  A value of that layout (one physical comparison) is read and
   written at the slot, an int or float field unboxed; any other value
   takes the interpreter's by-name path, as does every value when the
   node has no annotation ([def] is then [unresolved], which no value
   has).  An annotation that went stale, e.g. an AST shared across
   programs, meets values of another layout. *)
type field = { def : sdef; fkind : kind; fslot : int; name : string }

let unresolved = Value.make_def "" [||] [||]

(* the by-name path of a read *)
let field_slow fd v =
  match v with
  | VStruct s -> Value.get_field s (Value.field_pos s fd.name)
  | VBounds b -> Interp.bounds_field b fd.name
  | v -> rte "field access on %s" (describe v)

let field_get fd v =
  match v with
  | VStruct s when s.s_def == fd.def -> (
      match fd.fkind with
      | Kbox -> s.s_vals.(fd.fslot)
      | Kint -> VInt s.s_ints.(fd.fslot)
      | Kfloat -> VFloat s.s_flts.(fd.fslot))
  | v -> field_slow fd v

(* typed reads of an int or float field *)
let field_int fd v =
  match v with
  | VStruct s when s.s_def == fd.def -> s.s_ints.(fd.fslot)
  | v -> as_int (field_slow fd v)

let[@inline] field_float fd v =
  match v with
  | VStruct s when s.s_def == fd.def -> s.s_flts.(fd.fslot)
  | v -> as_float (field_slow fd v)

(* An unboxed float: a runner, or a read its consumer makes inline.  A
   closure returns a float boxed, so a float cell or a flat float field of
   a struct variable, or the fabs of one (gauss's pivot search compares
   two), is read by the closure that uses it, with no call and no box. *)
type fsrc =
  | Frun of float runner
  | Fcell of int  (* the frame's float cell *)
  | Ffield of int * field  (* a field of the struct in a boxed cell *)
  | Fabs_cell of int
  | Fabs_field of int * field

let[@inline] fread s f =
  match s with
  | Frun r -> r f
  | Fcell i -> f.fl.(i)
  | Ffield (c, fd) -> field_float fd f.v.(c)
  | Fabs_cell i -> Float.abs f.fl.(i)
  | Fabs_field (c, fd) -> Float.abs (field_float fd f.v.(c))

type typed =
  | Boxed
  | Int of int runner
  | Flt of fsrc
  | Bool of bool runner  (* an int that is 0 or 1: comparisons, !, &&, || *)

type ecode = {
  ops : int option;
      (* [Some n]: call-free subtree of n nodes; [run] does NOT bump
         pending_ops — the consumer adds n.  [None]: [run] bumps its own
         nodes internally. *)
  run : Value.t runner;
  typed : typed;
      (* an unboxed twin of [run] for an expression of static type int or
         float: the same bumps at the same points, the same value and the
         same errors, with no [Value.t] built for it *)
}

(* A compiled statement flushes pending scalar work first, as Interp.exec
   does, and returns its outcome: see [fall] and [chain]. *)
type scode = Value.t runner

type cfn = {
  c_arity : int;
  (* From the signature, fixed before any body is compiled so that
     recursive and forward calls can fill a frame: *)
  c_kinds : kind array;  (* of the parameters *)
  c_cells : int array;  (* each parameter's cell in its kind's array *)
  c_res : kind;  (* of the result; an int or float one has a cell *)
  c_rcell : int;
  (* mutable so recursive / forward references patch through the table;
     read at call time *)
  mutable c_size : int;  (* [v] cells of the compiled body *)
  mutable c_nint : int;  (* [iv] cells *)
  mutable c_nflt : int;  (* [fl] cells *)
  mutable c_ix_safe : bool;
      (* body provably never assigns through an Index subscript, so a
         skeleton element loop may lend it the iteration's scratch index
         without a private copy (see [writes]) *)
  mutable c_lend : bool;
      (* body never assigns through a struct field either, and no code in
         the program writes through a value it did not copy, so a direct
         invoker may lend it struct and Index arguments (see [direct]) *)
  mutable c_assigns : bool array;
      (* per parameter: whether the body assigns it, as a variable or
         through a field or subscript rooted in it (see [direct]) *)
  mutable c_body : frame -> Value.t;
      (* run the body on a caller-built frame (call sites and invokers fill
         the cells directly, skipping the argument list) and answer its
         outcome: [ret] with an int or float result in its cell *)
  mutable c_run : frame -> Value.t;  (* the same, with the result boxed *)
  mutable c_invoke : Interp.state -> Value.t list -> Value.t;
}

type t = {
  cfuncs : (string, cfn) Hashtbl.t;
  tyenv : Typecheck.env;
  typed_slots : bool;  (* see [typed_slots] *)
}

(* A variable in scope: its cell in its kind's array, its kind, and
   whether the activation owns the value in it (see [SReturn]). *)
type var = { slot : int; kind : kind; owned : bool }

type fctx = {
  prog : t;
  scratch : Interp.state;
      (* sequential state over the same program: compile-time evaluation
         of default values and backend-independent constants *)
  fn : cfn;  (* the function being compiled *)
  cells : int array;  (* cells taken so far, per kind (see [new_slot]) *)
}

(* Statement outcomes.  A compiled statement returns [fall] when control
   falls through, [brk] or [cont] for break and continue, [ret] for a
   return whose int or float value is in the function's result cell, and
   otherwise the value of the return it executed.  The sentinels are
   private physical values no Skil expression can produce, so control flow
   costs one pointer comparison instead of an exception raised through
   closure frames; and since Typecheck rejects break/continue outside a
   loop, only [fall] or [ret] ever reaches the end of a function body. *)
let fall = VStr "<fall through>"
let brk = VStr "<break>"
let cont = VStr "<continue>"
let ret = VStr "<return>"

(* the boxed result of a body outcome other than [ret] *)
let boxed_outcome o = if o == fall then VUnit else o

(* The result of an int or float function whose body answered [o] on
   frame [f], read from result cell [rc].  With its typed runners trusted
   no such body can fall off its end, so [o] is [ret]; otherwise the
   outcome converts with the error the boxed path would raise. *)
let[@inline] int_result f o rc =
  if o == ret then f.iv.(rc) else as_int (boxed_outcome o)

let[@inline] float_result f o rc =
  if o == ret then f.fl.(rc) else as_float (boxed_outcome o)

(* A fresh frame for [fn].  Small cell arrays are allocated inline: an
   [Array.make] is a C call. *)
let boxes = function
  | 0 -> [||]
  | 1 -> [| VUnit |]
  | 2 -> [| VUnit; VUnit |]
  | 3 -> [| VUnit; VUnit; VUnit |]
  | 4 -> [| VUnit; VUnit; VUnit; VUnit |]
  | n -> Array.make n VUnit

let ints = function
  | 0 -> [||]
  | 1 -> [| 0 |]
  | 2 -> [| 0; 0 |]
  | 3 -> [| 0; 0; 0 |]
  | 4 -> [| 0; 0; 0; 0 |]
  | n -> Array.make n 0

let floats = function
  | 0 -> [||]
  | 1 -> [| 0. |]
  | 2 -> [| 0.; 0. |]
  | 3 -> [| 0.; 0.; 0. |]
  | 4 -> [| 0.; 0.; 0.; 0. |]
  | n -> Array.make n 0.

let fresh fn st =
  { st; v = boxes fn.c_size; iv = ints fn.c_nint; fl = floats fn.c_nflt }

(* Store an argument value into parameter [i]'s cell, as [c_invoke] and
   the invokers' applied arguments do *)
let set_param fn f i a =
  let c = fn.c_cells.(i) in
  match fn.c_kinds.(i) with
  | Kint -> f.iv.(c) <- as_int a
  | Kfloat -> f.fl.(c) <- as_float a
  | Kbox -> f.v.(c) <- a

let known n run = { ops = Some n; run; typed = Boxed }
let dyn run = { ops = None; run; typed = Boxed }
let bump f n =
  let st = f.st in
  st.Interp.pending_ops <- st.Interp.pending_ops + n

(* [r] preceded by [k] bumps plus its own pre-summed count: how a parent
   that bumps before evaluating a child runs it *)
let pre k ops r =
  match ops with
  | Some n ->
      fun f ->
        bump f (k + n);
        r f
  | None ->
      if k = 0 then r
      else fun f ->
        bump f k;
        r f

let seal c = pre 0 c.ops c.run

(* Truth values are shared: a [VInt] is immutable and never compared
   physically, so comparisons need not allocate their result. *)
let vtrue = VInt 1
let vfalse = VInt 0
let vbool b = if b then vtrue else vfalse

let int_code ops r = { ops; run = (fun f -> VInt (r f)); typed = Int r }

let float_src ops s =
  { ops; run = (fun f -> VFloat (fread s f)); typed = Flt s }

let float_code ops r = float_src ops (Frun r)

let bool_code ops r =
  { ops; run = (fun f -> vbool (r f)); typed = Bool r }

let code ops = function
  | Int r -> int_code ops r
  | Flt s -> float_src ops s
  | Bool r -> bool_code ops r
  | Boxed -> invalid_arg "Compile.code: no typed runner"

(* Unsealed views of a code at a kind the typechecker guarantees; a boxed
   code converts with the check its consumer would make. *)
let int_runner c : int runner =
  match c.typed with
  | Int r -> r
  | Bool r -> fun f -> if r f then 1 else 0
  | Flt _ | Boxed -> fun f -> as_int (c.run f)

let float_runner c : float runner =
  match c.typed with
  | Flt (Frun r) -> r
  | Flt s -> fun f -> fread s f
  | Int _ | Bool _ | Boxed -> fun f -> as_float (c.run f)

(* the same as a source its consumer reads inline *)
let float_source c =
  match c.typed with Flt s -> s | _ -> Frun (float_runner c)

(* the condition [truthy] tests *)
let cond_runner c : bool runner =
  match c.typed with
  | Bool r -> r
  | Int r -> fun f -> r f <> 0
  | Flt s -> fun f -> fread s f <> 0.0
  | Boxed -> fun f -> truthy (c.run f)

(* The bumps a parent adds itself before running a child's runner, in
   place of a sealing closure: a dynamic child bumps its own *)
let bumps c = Option.value c.ops ~default:0

(* A node of [k] bumps over one child: its count and the child's runner,
   bumping the node before the child when the child bumps itself *)
let node k c r =
  match c.ops with Some n -> (Some (k + n), r) | None -> (None, pre k None r)

(* A node of [k] bumps over two children: the node bumps, then each child
   in order *)
let binary ?(k = 1) ca cb ra rb =
  match (ca.ops, cb.ops) with
  | Some na, Some nb -> (Some (k + na + nb), ra, rb)
  | _ -> (None, pre k ca.ops ra, pre 0 cb.ops rb)

(* One combinator for single-child nodes ([g] must be pure w.r.t. the
   pending counter). *)
let combine1 ce g =
  let ops, r = node 1 ce ce.run in
  { ops; run = (fun f -> g (r f)); typed = Boxed }

(* Whether [stmts] contain an assignment whose target satisfies [lhs].
   Assigning through an Index subscript (ix[i] = ...) is the only
   operation that mutates an Index array in place, and assigning through a
   struct field (s.f = ...) the only one that mutates a struct in place.
   Every other boundary copies ([Value.copy] on declarations, assignments,
   parameter passing, and returns of what the activation does not own),
   so a function whose body is free of such assignments can be lent an
   argument without a private copy: it can neither mutate nor retain it.
   Other code can still reach what it was lent, unless every assignment
   in the program is rooted in a local variable (see [shared_target]). *)
let writes lhs stmts =
  Ast.exists_stmts stmts ~expr:(fun (e : Ast.expr) ->
      match e.Ast.desc with Ast.Assign (l, _) -> lhs l.Ast.desc | _ -> false)

let index_target = function Ast.Idx _ -> true | _ -> false
let field_target = function Ast.Idx _ | Ast.Field _ -> true | _ -> false

(* A target rooted in a local variable (x, x.f, x[i], x.f[i]) writes to
   the function's own copy.  Any other root (a call result such as
   array_get_elem(a, ix).f, a pointer in p->f or *p, a conditional) may
   write to a value that is also a partition element or another
   function's argument. *)
let rec shared_target = function
  | Ast.Var _ -> false
  | Ast.Field (b, _) | Ast.Idx (b, _) -> shared_target b.Ast.desc
  | _ -> true

(* A target rooted in variable [x] (x, x.f, x[i], x.f[i]) assigns x or a
   part of it.  A local that shadows a parameter counts as the parameter,
   which errs on the side of storing its argument again. *)
let rec rooted_in x = function
  | Ast.Var y -> String.equal x y
  | Ast.Field (b, _) | Ast.Idx (b, _) -> rooted_in x b.Ast.desc
  | _ -> false

(* ---------------- runtime application (currying fallback) -------------- *)

let rec rt_apply prog st v args =
  match v with
  | VFun f -> rt_apply_fun prog st f args
  | v when args = [] -> v
  | v -> rte "cannot apply %s" (describe v)

and rt_apply_fun prog st f args =
  let supplied = f.fv_applied @ args in
  let arity =
    match f.fv_target with
    | `Op _ -> 2
    | `User name -> (
        match Hashtbl.find_opt prog.cfuncs name with
        | Some fn -> fn.c_arity
        | None -> rte "undefined function %s" name)
    | `Builtin name -> (
        match Typecheck.builtin_arity name with
        | Some n -> n
        | None -> rte "unknown builtin %s" name)
  in
  let nsupplied = List.length supplied in
  if nsupplied < arity then VFun { f with fv_applied = supplied }
  else if nsupplied > arity then
    let now, later = Interp.split_at arity supplied in
    rt_apply prog st (rt_invoke prog st f.fv_target now) later
  else rt_invoke prog st f.fv_target supplied

and rt_invoke prog st target args =
  match target with
  | `Op op -> (
      match args with
      | [ a; b ] -> Interp.binop op a b
      | _ -> rte "operator section applied to %d args" (List.length args))
  | `User name -> (
      match Hashtbl.find_opt prog.cfuncs name with
      | None -> rte "undefined function %s" name
      | Some fn -> fn.c_invoke st args)
  | `Builtin name -> Interp.builtin st ~apply:(rt_apply prog st) name args

(* ---------------- operator specialization ---------------- *)

(* Fast paths for the concrete representations; every fallthrough lands in
   the shared Interp implementation so error messages stay identical. *)
let op_fn op : Value.t -> Value.t -> Value.t =
  match op with
  | "+" -> (
      fun a b ->
        match (a, b) with
        | VInt x, VInt y -> VInt (x + y)
        | VFloat x, VFloat y -> VFloat (x +. y)
        | _ -> Interp.arith "+" a b)
  | "-" -> (
      fun a b ->
        match (a, b) with
        | VInt x, VInt y -> VInt (x - y)
        | VFloat x, VFloat y -> VFloat (x -. y)
        | _ -> Interp.arith "-" a b)
  | "*" -> (
      fun a b ->
        match (a, b) with
        | VInt x, VInt y -> VInt (x * y)
        | VFloat x, VFloat y -> VFloat (x *. y)
        | _ -> Interp.arith "*" a b)
  | "/" -> (
      fun a b ->
        match (a, b) with
        | VInt x, VInt y ->
            if y = 0 then rte "division by zero" else VInt (x / y)
        | VFloat x, VFloat y -> VFloat (x /. y)
        | _ -> Interp.arith "/" a b)
  | "%" -> (
      fun a b ->
        match (a, b) with
        | VInt x, VInt y ->
            if y = 0 then rte "modulo by zero" else VInt (x mod y)
        | _ -> Interp.arith "%" a b)
  | "==" -> (
      fun a b ->
        match (a, b) with
        | VInt x, VInt y -> vbool (x = y)
        | _ -> vbool (Interp.equal_values a b))
  | "!=" -> (
      fun a b ->
        match (a, b) with
        | VInt x, VInt y -> vbool (x <> y)
        | _ -> vbool (not (Interp.equal_values a b)))
  | "<" -> (
      fun a b ->
        match (a, b) with
        | VInt x, VInt y -> vbool (x < y)
        | _ -> vbool (Interp.compare_values a b < 0))
  | ">" -> (
      fun a b ->
        match (a, b) with
        | VInt x, VInt y -> vbool (x > y)
        | _ -> vbool (Interp.compare_values a b > 0))
  | "<=" -> (
      fun a b ->
        match (a, b) with
        | VInt x, VInt y -> vbool (x <= y)
        | _ -> vbool (Interp.compare_values a b <= 0))
  | ">=" -> (
      fun a b ->
        match (a, b) with
        | VInt x, VInt y -> vbool (x >= y)
        | _ -> vbool (Interp.compare_values a b >= 0))
  | op -> fun a b -> Interp.binop op a b

(* The same operators on unboxed operands of one kind, operands evaluated
   left to right.  Float comparisons order as [Interp.compare_values] does,
   by [Float.compare]: nan equals nan and sorts below every other float,
   and -0.0 equals 0.0.  Each arm is written out: an operator passed as a
   closure would cost a call, and box a float result. *)
let int_op op (ra : int runner) (rb : int runner) : typed =
  match op with
  | "+" -> Int (fun f -> let a = ra f in a + rb f)
  | "-" -> Int (fun f -> let a = ra f in a - rb f)
  | "*" -> Int (fun f -> let a = ra f in a * rb f)
  | "/" ->
      Int
        (fun f ->
          let a = ra f in
          let b = rb f in
          if b = 0 then rte "division by zero" else a / b)
  | "%" ->
      Int
        (fun f ->
          let a = ra f in
          let b = rb f in
          if b = 0 then rte "modulo by zero" else a mod b)
  | "==" -> Bool (fun f -> let a = ra f in a = rb f)
  | "!=" -> Bool (fun f -> let a = ra f in a <> rb f)
  | "<" -> Bool (fun f -> let a = ra f in a < rb f)
  | ">" -> Bool (fun f -> let a = ra f in a > rb f)
  | "<=" -> Bool (fun f -> let a = ra f in a <= rb f)
  | ">=" -> Bool (fun f -> let a = ra f in a >= rb f)
  | _ -> Boxed

let float_op op (sa : fsrc) (sb : fsrc) : typed =
  let flt g = Flt (Frun g) in
  match op with
  | "+" -> flt (fun f -> let a = fread sa f in a +. fread sb f)
  | "-" -> flt (fun f -> let a = fread sa f in a -. fread sb f)
  | "*" -> flt (fun f -> let a = fread sa f in a *. fread sb f)
  | "/" -> flt (fun f -> let a = fread sa f in a /. fread sb f)
  | "==" ->
      Bool (fun f -> let a = fread sa f in Float.compare a (fread sb f) = 0)
  | "!=" ->
      Bool (fun f -> let a = fread sa f in Float.compare a (fread sb f) <> 0)
  | "<" ->
      Bool (fun f -> let a = fread sa f in Float.compare a (fread sb f) < 0)
  | ">" ->
      Bool (fun f -> let a = fread sa f in Float.compare a (fread sb f) > 0)
  | "<=" ->
      Bool (fun f -> let a = fread sa f in Float.compare a (fread sb f) <= 0)
  | ">=" ->
      Bool (fun f -> let a = fread sa f in Float.compare a (fread sb f) >= 0)
  | _ -> Boxed

(* [g] over two boxed operands, after [k] bumps of its own *)
let boxed2 ~k g ca cb =
  let ops, ra, rb = binary ~k ca cb ca.run cb.run in
  {
    ops;
    typed = Boxed;
    run =
      (fun f ->
        let va = ra f in
        g va (rb f));
  }

(* [op] over two operands, after [k] bumps of its own (the Binop node, or
   an operator section's Call and head): typed when both operands have one
   kind *)
let binop_code ~k op ca cb =
  let typed =
    match (ca.typed, cb.typed) with
    | (Int _ | Bool _), (Int _ | Bool _) ->
        let ops, ra, rb = binary ~k ca cb (int_runner ca) (int_runner cb) in
        (ops, int_op op ra rb)
    | Flt sa, Flt sb -> (
        match (ca.ops, cb.ops) with
        | Some na, Some nb -> (Some (k + na + nb), float_op op sa sb)
        | _ ->
            let ops, ra, rb =
              binary ~k ca cb (float_runner ca) (float_runner cb)
            in
            (ops, float_op op (Frun ra) (Frun rb)))
    | _ -> (None, Boxed)
  in
  match typed with
  | ops, ((Int _ | Flt _ | Bool _) as t) -> code ops t
  | _, Boxed -> boxed2 ~k (op_fn op) ca cb

(* Pure scalar builtins, resolved at the call site: the same results and
   the same error text as the corresponding [Interp.builtin] arms, minus
   the argument-list cons and the dispatcher's string match (gauss's pivot
   fold calls fabs once per element).  None of these flush pending work,
   so their node counts pre-sum like any other flush-free subtree. *)
let bad_args name v =
  rte "builtin %s: bad arguments (%s)" name (describe v)

(* The typed code of one-argument builtin [name] applied to [c] (the Call
   node and its head are two bumps), or None.  A boxed argument is
   checked as the dispatcher checks it. *)
let scalar_builtin_1 name c =
  let on_int g =
    let arg =
      match c.typed with
      | Int _ | Bool _ -> int_runner c
      | Flt _ | Boxed -> (
          fun f -> match c.run f with VInt n -> n | v -> bad_args name v)
    in
    let ops, r = node 2 c arg in
    Some (code ops (g r))
  in
  let on_float g =
    match (c.typed, c.ops) with
    | Flt s, Some n -> Some (code (Some (2 + n)) (g s))
    | _ ->
        let arg =
          match c.typed with
          | Flt _ -> float_runner c
          | Int _ | Bool _ | Boxed -> (
              fun f ->
                match c.run f with VFloat x -> x | v -> bad_args name v)
        in
        let ops, r = node 2 c arg in
        Some (code ops (g (Frun r)))
  in
  match name with
  | "abs" -> on_int (fun r -> Int (fun f -> abs (r f)))
  | "log2" ->
      on_int (fun r ->
          Int
            (fun f ->
              let n = r f in
              let rec go k pow = if pow >= n then k else go (k + 1) (2 * pow) in
              go 0 1))
  | "itof" -> on_int (fun r -> Flt (Frun (fun f -> float_of_int (r f))))
  | "fabs" ->
      on_float (function
        | Fcell i -> Flt (Fabs_cell i)
        | Ffield (c, fd) -> Flt (Fabs_field (c, fd))
        | s -> Flt (Frun (fun f -> Float.abs (fread s f))))
  | "sqrt" -> on_float (fun s -> Flt (Frun (fun f -> sqrt (fread s f))))
  | "ftoi" -> on_float (fun s -> Int (fun f -> int_of_float (fread s f)))
  | _ -> None

let scalar_builtin_2 = function
  | "min" ->
      Some (fun a b -> if Interp.compare_values a b <= 0 then a else b)
  | "max" ->
      Some (fun a b -> if Interp.compare_values a b >= 0 then a else b)
  | _ -> None

(* ---------------- payload-specialised skeleton calls ----------------

   The paper's "translation by instantiation" carried into the data plane:
   after typecheck + instantiation every frontend pardata has a statically
   known element type, so a saturated skeleton call over int/double
   elements can run on flat unboxed partitions (Value.DInt/DFloat) with its
   argument functions compiled to unboxed closures — no [Value.t] allocated
   per element.  Interception is decided per call site at compile time
   (from the typechecker's [inst] annotation where the payload choice needs
   it); the resulting handler still re-checks the run-time payload kinds
   and falls back to the generic [Interp.builtin] dispatcher whenever a
   function value or payload defeats it (arrays created through curried
   fallback paths stay generic, struct/pointer elements stay boxed).

   The cost contract is untouched: handlers flush at the same point the
   generic dispatcher flushes, charge through the same [Skeletons] entry
   points with the same op counts and byte sizes, and specialised
   argument-function closures run the very same compiled bodies via
   [c_body] (same pending_ops bumps, same flush points) — only the boxing
   at the call boundary differs.  [test/test_paths.ml] pins makespans,
   Stats and traces bit-identical across engines × specialisation. *)

(* Element representations a specialised invoker converts between: the
   unboxed partition payloads and the boxed generic one. *)
type 'e payload =
  | Pint : int payload
  | Pfloat : float payload
  | Pgen : Value.t payload

let box_of (type e) (k : e payload) : e -> Value.t =
  match k with
  | Pint -> fun n -> VInt n
  | Pfloat -> fun x -> VFloat x
  | Pgen -> Fun.id

(* Result unboxing.  A body's result needs no copy: [return] already
   copied it. *)
let unbox_of (type e) (k : e payload) : Value.t -> e =
  match k with Pint -> as_int | Pfloat -> as_float | Pgen -> Fun.id

(* A direct invoker runs a compiled body on a frame it fills itself,
   skipping the argument list.  Invokers are built per rank and per
   skeleton call, never per compiled call site (whose closures ranks on
   other domains share), and a skeleton loop calls its invoker one element
   at a time: a body that makes a skeleton call, even through the same
   call site, builds a new invoker.  So each invoker owns one frame and
   reuses it for every element.  Reuse is unobservable: a body writes every
   cell before reading it (parameters here, locals at their declaration,
   the result at its return), and no frame outlives its call.

   The applied arguments and generic elements are copied in, as
   [c_invoke] copies every argument, unless they can be lent ([c_lend]):
   the body never assigns through a struct field or an Index subscript, so
   it can neither mutate nor keep them, since declarations, assignments,
   returns and calls all copy; and no code writes through a value it did
   not copy, so nothing else changes them during the call.

   An applied argument is stored once, when the invoker is built, if each
   element would store that very value again and find it as it was left:
   the body never assigns its parameter ([c_assigns]), and the invoker
   lends it or [Value.copy] returns it unchanged (it is neither a struct
   nor an Index).  The rest ([again]) are stored before every element. *)
type direct = { fn : cfn; frame : frame; again : (int * Value.t) array }

(* The invoker of a user function saturated by exactly [extra] more
   arguments, on rank state [st]; None sends the caller to the generic
   path. *)
let direct prog st fv ~extra =
  match fv with
  | VFun { fv_target = `User name; fv_applied } -> (
      match Hashtbl.find_opt prog.cfuncs name with
      | Some fn when List.length fv_applied + extra = fn.c_arity ->
          let frame = fresh fn st in
          let once i a =
            (not fn.c_assigns.(i))
            &&
            match a with VStruct _ | VIndex _ -> fn.c_lend | _ -> true
          in
          let again = ref [] in
          List.iteri
            (fun i a ->
              if once i a then set_param fn frame i a
              else again := (i, a) :: !again)
            fv_applied;
          Some { fn; frame; again = Array.of_list (List.rev !again) }
      | _ -> None)
  | _ -> None

(* The frame with every applied argument in place; the caller fills the
   rest.  Most invokers store nothing again, and test for that inline. *)
let store_again d =
  let again = d.again in
  for k = 0 to Array.length again - 1 do
    let i, a = again.(k) in
    set_param d.fn d.frame i (if d.fn.c_lend then a else Value.copy a)
  done

let enter d =
  if Array.length d.again > 0 then store_again d;
  d.frame

(* The store of a [k] element into parameter [i]: one closure of one
   argument, picked when the invoker is built, with the store written out
   for each payload and cell kind the typechecker lets meet.  A generic
   element is copied unless it is lent; the pairs typing rules out convert
   through the box, with the error the boxed path would raise. *)
let put (type e) d (k : e payload) i : e -> unit =
  let f = d.frame and c = d.fn.c_cells.(i) in
  match (k, d.fn.c_kinds.(i)) with
  | Pint, Kint -> fun n -> f.iv.(c) <- n
  | Pfloat, Kfloat -> fun x -> f.fl.(c) <- x
  | Pgen, Kbox ->
      if d.fn.c_lend then fun v -> f.v.(c) <- v
      else fun v -> f.v.(c) <- Value.copy v
  | Pint, Kbox -> fun n -> f.v.(c) <- VInt n
  | Pfloat, Kbox -> fun x -> f.v.(c) <- VFloat x
  | _ ->
      let box = box_of k in
      fun e -> set_param d.fn f i (box e)

(* The store of the iteration's Index into parameter [i]: the generic path
   hands the callee a private copy of the scratch index a skeleton loop
   advances in place.  A body that never writes through an Index
   ([c_ix_safe]) is lent the scratch itself, and when it never assigns the
   parameter either, the scratch stays in the cell from one element to the
   next: it is stored once per scratch array. *)
let put_index d i : Index.t -> unit =
  let f = d.frame and c = d.fn.c_cells.(i) in
  if not d.fn.c_ix_safe then fun ix -> f.v.(c) <- VIndex (copy_ints ix)
  else if d.fn.c_assigns.(i) then fun ix -> f.v.(c) <- VIndex ix
  else
    let last = ref [| 0 |] in
    fun ix ->
      if ix != !last then (
        last := ix;
        f.v.(c) <- VIndex ix)

(* Run the body and read its result as a [k]: an int or float result
   unboxed from its cell. *)
let result (type e) fn (k : e payload) : frame -> e =
  let body = fn.c_body and rc = fn.c_rcell in
  match (k, fn.c_res) with
  | Pint, Kint -> fun f -> int_result f (body f) rc
  | Pfloat, Kfloat -> fun f -> float_result f (body f) rc
  | _ ->
      let run = fn.c_run and unbox = unbox_of k in
      fun f -> unbox (run f)

(* Element function of map/fold-conv: last two parameters are (element,
   Index). *)
let elem_fn2 prog st fv (arg : 'a payload) (res : 'b payload) :
    ('a -> Index.t -> 'b) option =
  match direct prog st fv ~extra:2 with
  | None -> None
  | Some d ->
      let na = d.fn.c_arity - 2 in
      let put_x = put d arg na and put_ix = put_index d (na + 1) in
      let get = result d.fn res in
      Some
        (fun x ix ->
          let f = enter d in
          put_x x;
          put_ix ix;
          get f)

(* Init function of array_create: Index -> element. *)
let elem_fn1 prog st fv (res : 'b payload) : (Index.t -> 'b) option =
  match direct prog st fv ~extra:1 with
  | None -> None
  | Some d ->
      let put_ix = put_index d (d.fn.c_arity - 1) in
      let get = result d.fn res in
      Some
        (fun ix ->
          let f = enter d in
          put_ix ix;
          get f)

(* Row permutation of array_permute_rows: int -> int. *)
let int_fn1 prog st fv : (int -> int) option =
  match direct prog st fv ~extra:1 with
  | None -> None
  | Some d ->
      let put_r = put d Pint (d.fn.c_arity - 1) in
      let get = result d.fn Pint in
      Some
        (fun r ->
          let f = enter d in
          put_r r;
          get f)

(* Binary user function (fold merge, gen_mult add/mul) on direct frames. *)
let user_fn2 prog st fv (k : 'a payload) : ('a -> 'a -> 'a) option =
  match direct prog st fv ~extra:2 with
  | None -> None
  | Some d ->
      let na = d.fn.c_arity - 2 in
      let put_a = put d k na and put_b = put d k (na + 1) in
      let get = result d.fn k in
      Some
        (fun a b ->
          let f = enter d in
          put_a a;
          put_b b;
          get f)

(* Binary combining functions at unboxed int/float.  Operator sections and
   min/max keep the generic semantics exactly (same division-by-zero
   messages, same tie-breaking: min/max answer the LEFT operand on
   equality). *)
let int_binop prog st fv : (int -> int -> int) option =
  match fv with
  | VFun { fv_target = `Op op; fv_applied = [] } -> (
      match op with
      | "+" -> Some ( + )
      | "-" -> Some ( - )
      | "*" -> Some ( * )
      | "/" ->
          Some (fun a b -> if b = 0 then rte "division by zero" else a / b)
      | "%" ->
          Some (fun a b -> if b = 0 then rte "modulo by zero" else a mod b)
      | _ -> None)
  | VFun { fv_target = `Builtin "min"; fv_applied = [] } ->
      Some (fun a b -> if a <= b then a else b)
  | VFun { fv_target = `Builtin "max"; fv_applied = [] } ->
      Some (fun a b -> if a >= b then a else b)
  | _ -> user_fn2 prog st fv Pint

let float_binop prog st fv : (float -> float -> float) option =
  match fv with
  | VFun { fv_target = `Op op; fv_applied = [] } -> (
      match op with
      | "+" -> Some ( +. )
      | "-" -> Some ( -. )
      | "*" -> Some ( *. )
      | "/" -> Some ( /. )
      | _ -> None)
  | VFun { fv_target = `Builtin "min"; fv_applied = [] } ->
      Some (fun a b -> if Float.compare a b <= 0 then a else b)
  | VFun { fv_target = `Builtin "max"; fv_applied = [] } ->
      Some (fun a b -> if Float.compare a b >= 0 then a else b)
  | _ -> user_fn2 prog st fv Pfloat

(* Value-level binary combining function: still boxed, but skips the
   currying machinery (struct-accumulator fold merges, generic-payload
   gen_mult). *)
let value_binop prog st fv : (Value.t -> Value.t -> Value.t) option =
  match fv with
  | VFun { fv_target = `Op op; fv_applied = [] } -> Some (op_fn op)
  | VFun { fv_target = `Builtin "min"; fv_applied = [] } ->
      Some (fun a b -> if Interp.compare_values a b <= 0 then a else b)
  | VFun { fv_target = `Builtin "max"; fv_applied = [] } ->
      Some (fun a b -> if Interp.compare_values a b >= 0 then a else b)
  | _ -> user_fn2 prog st fv Pgen

(* Monomorphic block kernels for the operator pairs shpaths and matmul
   pass to array_gen_mult (int min/+ and float +/* pairs).  Each step
   updates two rows by two columns of c in registers, so each load of a
   and b serves two updates; an odd block size leaves a last column and a
   last row, which go one element at a time.  Every element of c still
   takes its k terms in ascending order with the closure loop's operand
   order ([Skeletons.gen_mult]'s i-k-j loop), so every result is
   bit-identical.  The block lengths are checked once, so the loops read
   and write unchecked.  The min stays a compare and branch: min(c, a + b)
   by arithmetic would overflow on large user ints.  Other pairs,
   including / and % with their division-by-zero errors, keep the closure
   loop. *)
let check_blocks ad bd cd bs =
  let n = bs * bs in
  if Array.length ad < n || Array.length bd < n || Array.length cd < n then
    invalid_arg "index out of bounds"

(* one element of c: row offset [ib], column [j] *)
let min_plus_1 (ad : int array) (bd : int array) (cd : int array) bs ib j =
  let c = ref (Array.unsafe_get cd (ib + j)) in
  for k = 0 to bs - 1 do
    let s = Array.unsafe_get ad (ib + k) + Array.unsafe_get bd ((k * bs) + j) in
    if s < !c then c := s
  done;
  Array.unsafe_set cd (ib + j) !c

let min_plus_kernel (ad : int array) (bd : int array) (cd : int array) bs =
  check_blocks ad bd cd bs;
  let odd = bs land 1 = 1 in
  for i2 = 0 to (bs / 2) - 1 do
    let i0 = 2 * i2 * bs in
    let i1 = i0 + bs in
    for j2 = 0 to (bs / 2) - 1 do
      let j = 2 * j2 in
      let c00 = ref (Array.unsafe_get cd (i0 + j)) in
      let c01 = ref (Array.unsafe_get cd (i0 + j + 1)) in
      let c10 = ref (Array.unsafe_get cd (i1 + j)) in
      let c11 = ref (Array.unsafe_get cd (i1 + j + 1)) in
      (* row k of b starts at kb; a's two rows are ia and ia + bs *)
      let kb = ref j in
      for ia = i0 to i1 - 1 do
        let a0 = Array.unsafe_get ad ia in
        let a1 = Array.unsafe_get ad (ia + bs) in
        let b0 = Array.unsafe_get bd !kb in
        let b1 = Array.unsafe_get bd (!kb + 1) in
        kb := !kb + bs;
        let s = a0 + b0 in
        if s < !c00 then c00 := s;
        let s = a0 + b1 in
        if s < !c01 then c01 := s;
        let s = a1 + b0 in
        if s < !c10 then c10 := s;
        let s = a1 + b1 in
        if s < !c11 then c11 := s
      done;
      Array.unsafe_set cd (i0 + j) !c00;
      Array.unsafe_set cd (i0 + j + 1) !c01;
      Array.unsafe_set cd (i1 + j) !c10;
      Array.unsafe_set cd (i1 + j + 1) !c11
    done;
    if odd then begin
      min_plus_1 ad bd cd bs i0 (bs - 1);
      min_plus_1 ad bd cd bs i1 (bs - 1)
    end
  done;
  if odd then
    for j = 0 to bs - 1 do
      min_plus_1 ad bd cd bs ((bs - 1) * bs) j
    done

let plus_times_1 (ad : float array) (bd : float array) (cd : float array) bs
    ib j =
  let c = ref (Array.unsafe_get cd (ib + j)) in
  for k = 0 to bs - 1 do
    let a = Array.unsafe_get ad (ib + k) in
    c := !c +. (a *. Array.unsafe_get bd ((k * bs) + j))
  done;
  Array.unsafe_set cd (ib + j) !c

let float_plus_times_kernel (ad : float array) (bd : float array)
    (cd : float array) bs =
  check_blocks ad bd cd bs;
  let odd = bs land 1 = 1 in
  for i2 = 0 to (bs / 2) - 1 do
    let i0 = 2 * i2 * bs in
    let i1 = i0 + bs in
    for j2 = 0 to (bs / 2) - 1 do
      let j = 2 * j2 in
      let c00 = ref (Array.unsafe_get cd (i0 + j)) in
      let c01 = ref (Array.unsafe_get cd (i0 + j + 1)) in
      let c10 = ref (Array.unsafe_get cd (i1 + j)) in
      let c11 = ref (Array.unsafe_get cd (i1 + j + 1)) in
      let kb = ref j in
      for ia = i0 to i1 - 1 do
        let a0 = Array.unsafe_get ad ia in
        let a1 = Array.unsafe_get ad (ia + bs) in
        let b0 = Array.unsafe_get bd !kb in
        let b1 = Array.unsafe_get bd (!kb + 1) in
        kb := !kb + bs;
        c00 := !c00 +. (a0 *. b0);
        c01 := !c01 +. (a0 *. b1);
        c10 := !c10 +. (a1 *. b0);
        c11 := !c11 +. (a1 *. b1)
      done;
      Array.unsafe_set cd (i0 + j) !c00;
      Array.unsafe_set cd (i0 + j + 1) !c01;
      Array.unsafe_set cd (i1 + j) !c10;
      Array.unsafe_set cd (i1 + j + 1) !c11
    done;
    if odd then begin
      plus_times_1 ad bd cd bs i0 (bs - 1);
      plus_times_1 ad bd cd bs i1 (bs - 1)
    end
  done;
  if odd then
    for j = 0 to bs - 1 do
      plus_times_1 ad bd cd bs ((bs - 1) * bs) j
    done

let prim fv =
  match fv with
  | VFun { fv_target = (`Op _ | `Builtin _) as t; fv_applied = [] } -> Some t
  | _ -> None

let int_kernel add mul : int Skeletons.kernel option =
  match (prim add, prim mul) with
  | Some (`Builtin "min"), Some (`Op "+") -> Some min_plus_kernel
  | _ -> None

let float_kernel add mul : float Skeletons.kernel option =
  match (prim add, prim mul) with
  | Some (`Op "+"), Some (`Op "*") -> Some float_plus_times_kernel
  | _ -> None

(* Compile-time interception of a saturated skeleton call.  Returns a
   handler over the already-evaluated arguments (the call-site wrapper
   flushes pending scalar work first, exactly where the generic dispatcher
   flushes), or None to use the generic dispatcher unconditionally. *)
let specialize_skeleton prog (h : Ast.expr) name :
    (Interp.state -> Value.t list -> Value.t) option =
  let kind v =
    match List.assoc_opt v h.Ast.inst with
    | Some t -> (
        match Typecheck.expand prog.tyenv t with
        | Ast.TInt -> Some `I
        | Ast.TFloat -> Some `F
        | _ -> None)
    | None -> None
  in
  let generic st argv =
    Interp.builtin st ~apply:(rt_apply prog st) name argv
  in
  match name with
  | "array_create" ->
      (* the one call where the payload choice must come from the static
         element type: the init function returns a bare value *)
      Some
        (fun st argv ->
          match argv with
          | [ VInt dim; VIndex size; VIndex _; VIndex _; init; VInt distr ]
            -> (
              let mk : 'e. ('e Darray.t -> darray) -> 'e payload -> Value.t =
               fun wrap res ->
                match elem_fn1 prog st init res with
                | None -> generic st argv
                | Some f ->
                    let ctx = Interp.ctx_of st in
                    if Array.length size <> dim then
                      rte "array_create: bad Size";
                    VDarray
                      (wrap
                         (Skeletons.create ctx ~gsize:(Array.copy size)
                            ~distr:(Interp.distr_of distr) f))
              in
              match kind "t" with
              | Some `I -> mk (fun a -> DInt a) Pint
              | Some `F -> mk (fun a -> DFloat a) Pfloat
              | None -> mk (fun a -> DGen a) Pgen)
          | argv -> generic st argv)
  | "array_create_const" ->
      (* constant-element variant (produced by the fusion pass): payload
         choice from the static element type, no initialiser function at
         all *)
      Some
        (fun st argv ->
          match argv with
          | [ VInt dim; VIndex size; VIndex _; VIndex _; cv; VInt distr ] ->
              let mk : 'e. ('e Darray.t -> darray) -> (Index.t -> 'e) ->
                  Value.t =
               fun wrap f ->
                let ctx = Interp.ctx_of st in
                if Array.length size <> dim then
                  rte "array_create_const: bad Size";
                VDarray
                  (wrap
                     (Skeletons.create ctx ~gsize:(Array.copy size)
                        ~distr:(Interp.distr_of distr) f))
              in
              (match kind "t" with
               | Some `I ->
                   let n = as_int cv in
                   mk (fun a -> DInt a) (fun _ -> n)
               | Some `F ->
                   let x = as_float cv in
                   mk (fun a -> DFloat a) (fun _ -> x)
               | None -> mk (fun a -> DGen a) (fun _ -> Value.copy cv))
          | argv -> generic st argv)
  | "array_map" ->
      (* run-time payload kinds fully determine the boxing *)
      Some
        (fun st argv ->
          match argv with
          | [ fv; VDarray src; VDarray dst ] -> (
              let same :
                  'e. 'e payload -> 'e Darray.t -> 'e Darray.t -> Value.t =
               fun k s d ->
                match elem_fn2 prog st fv k k with
                | Some g ->
                    Skeletons.map (Interp.ctx_of st) g s d;
                    VUnit
                | None -> generic st argv
              in
              let into :
                  'a 'b. 'a payload -> 'b payload -> 'a Darray.t ->
                  'b Darray.t -> Value.t =
               fun ka kb s d ->
                match elem_fn2 prog st fv ka kb with
                | Some g ->
                    Skeletons.map_into (Interp.ctx_of st) g s d;
                    VUnit
                | None -> generic st argv
              in
              match (src, dst) with
              | DInt s, DInt d -> same Pint s d
              | DFloat s, DFloat d -> same Pfloat s d
              | DGen s, DGen d -> same Pgen s d
              | DInt s, DFloat d -> into Pint Pfloat s d
              | DFloat s, DInt d -> into Pfloat Pint s d
              | DGen s, DInt d -> into Pgen Pint s d
              | DGen s, DFloat d -> into Pgen Pfloat s d
              | DInt s, DGen d -> into Pint Pgen s d
              | DFloat s, DGen d -> into Pfloat Pgen s d)
          | argv -> generic st argv)
  | "array_fold" ->
      let acc_kind = kind "t2" in
      Some
        (fun st argv ->
          match argv with
          | [ conv; fv; VDarray a ] -> (
              (* scalar accumulators fold fully unboxed (acc wire size is 4,
                 matching Value.wire_bytes on VInt/VFloat and the empty-
                 partition elem_bytes fallback); struct accumulators keep a
                 boxed acc but still run conv/merge on direct frames *)
              let go : 'e. 'e payload -> 'e Darray.t -> Value.t =
               fun k a ->
                let fold res binop box =
                  match (elem_fn2 prog st conv k res, binop prog st fv) with
                  | Some c, Some f ->
                      Some
                        (box
                           (Skeletons.fold (Interp.ctx_of st)
                              ~acc_bytes_of:(fun _ -> 4)
                              ~conv:c f a))
                  | _ -> None
                in
                let scalar =
                  match acc_kind with
                  | Some `I -> fold Pint int_binop (fun n -> VInt n)
                  | Some `F -> fold Pfloat float_binop (fun x -> VFloat x)
                  | None -> None
                in
                match scalar with
                | Some v -> v
                | None -> (
                    match elem_fn2 prog st conv k Pgen with
                    | Some c ->
                        let g =
                          match value_binop prog st fv with
                          | Some g -> g
                          | None -> fun x y -> rt_apply prog st fv [ x; y ]
                        in
                        Skeletons.fold (Interp.ctx_of st)
                          ~acc_bytes_of:Value.wire_bytes ~conv:c g a
                    | None -> generic st argv)
              in
              match a with
              | DInt a -> go Pint a
              | DFloat a -> go Pfloat a
              | DGen a -> go Pgen a)
          | argv -> generic st argv)
  | "array_permute_rows" ->
      Some
        (fun st argv ->
          match argv with
          | [ VDarray src; perm; VDarray dst ] -> (
              match int_fn1 prog st perm with
              | Some p ->
                  Interp.permute_arrays (Interp.ctx_of st) src p dst;
                  VUnit
              | None -> generic st argv)
          | argv -> generic st argv)
  | "array_gen_mult" ->
      Some
        (fun st argv ->
          match argv with
          | [ VDarray a; VDarray b; add; mul; VDarray c ] -> (
              let run ?kernel fa fm a b c =
                match (fa, fm) with
                | Some fa, Some fm ->
                    Skeletons.gen_mult (Interp.ctx_of st) ?kernel ~add:fa
                      ~mul:fm a b c;
                    VUnit
                | _ -> generic st argv
              in
              match (a, b, c) with
              | DInt a, DInt b, DInt c ->
                  run ?kernel:(int_kernel add mul) (int_binop prog st add)
                    (int_binop prog st mul) a b c
              | DFloat a, DFloat b, DFloat c ->
                  run ?kernel:(float_kernel add mul)
                    (float_binop prog st add) (float_binop prog st mul) a b c
              | DGen a, DGen b, DGen c ->
                  run (value_binop prog st add) (value_binop prog st mul)
                    a b c
              | _ -> generic st argv)
          | argv -> generic st argv)
  (* array_get_elem / array_put_elem / array_part_bounds are intercepted
     earlier, at the call site (compile_call), where the argument slots can
     be read without consing a list *)
  | _ -> None

(* ---------------- struct field resolution ---------------- *)

(* The struct type the typechecker recorded on this Field/Arrow node (the
   "<struct>" annotation), by name, if any. *)
let struct_of fc (e : Ast.expr) =
  match List.assoc_opt "<struct>" e.Ast.inst with
  | Some (Ast.TNamed (n, _)) ->
      Option.map (fun sd -> (n, sd)) (Typecheck.struct_def fc.prog.tyenv n)
  | _ -> None

let field_slot fc e fname =
  let none = { def = unresolved; fkind = Kbox; fslot = -1; name = fname } in
  match struct_of fc e with
  | None -> none
  | Some (n, sd) ->
      let def = Interp.layout fc.scratch n sd in
      let i = Value.field_index def fname in
      if i < 0 then none
      else
        { def; fkind = def.d_kinds.(i); fslot = def.d_slots.(i); name = fname }

(* The store of a [k] into field [fd] of struct [s]: at the slot when [s]
   has the layout compiled against, by name otherwise *)
let by_name fd s v = Value.set_field s (Value.field_pos s fd.name) v

let[@inline] store_field (type e) (k : e payload) fd s (x : e) =
  if s.s_def == fd.def then
    match k with
    | Pint -> s.s_ints.(fd.fslot) <- x
    | Pfloat -> s.s_flts.(fd.fslot) <- x
    | Pgen -> s.s_vals.(fd.fslot) <- x
  else by_name fd s (box_of k x)

(* The struct behind p in p->f, with the interpreter's errors *)
let deref_struct = function
  | VPtr r -> (
      match !r with
      | VStruct s -> s
      | w -> rte "-> assignment on %s" (describe w))
  | VNull -> rte "assignment through NULL"
  | w -> rte "-> assignment on %s" (describe w)

let[@inline] target_struct = function
  | VStruct s -> s
  | w -> rte "field assignment on %s" (describe w)

let arrow_ptr = function
  | VPtr r -> !r
  | VNull -> rte "dereference of NULL"
  | v -> rte "-> applied to %s" (describe v)

let arrow_get fd v =
  match v with
  | VBounds b -> Interp.bounds_field b fd.name
  | v -> field_get fd (arrow_ptr v)

let index_get arr j =
  if j >= 0 && j < Array.length arr then arr.(j)
  else rte "Index access out of range (%d)" j

(* The value a declaration, assignment or return stores: a private copy,
   which a typed (scalar) value already is. *)
let copied c =
  match c.typed with
  | Boxed -> fun f -> Value.copy (c.run f)
  | Int _ | Flt _ | Bool _ -> c.run

(* An argument of a saturated call, evaluated in the caller's frame into
   its parameter's cell *)
type arg =
  | Aint of int * int runner
  | Aflt of int * float runner
  | Abox of int * Value.t runner

(* A saturated call of user function [fn] on compiled arguments [acs]: the
   Call node and its head bump, then each argument is evaluated straight
   into its cell of a fresh frame, left to right.  Boxed arguments are
   copied once all are evaluated, as [Interp.invoke] copies them.  An int
   or float result is read from its cell, unboxed for a typed consumer. *)
let call_user fn acs =
  let all_known = List.for_all (fun c -> c.ops <> None) acs in
  let k =
    if all_known then List.fold_left (fun s c -> s + bumps c) 2 acs else 2
  in
  let arg i c =
    let seal r = if all_known then r else pre 0 c.ops r in
    let cell = fn.c_cells.(i) in
    match fn.c_kinds.(i) with
    | Kint -> Aint (cell, seal (int_runner c))
    | Kfloat -> Aflt (cell, seal (float_runner c))
    | Kbox -> Abox (cell, seal c.run)
  in
  let args = Array.of_list (List.mapi arg acs) in
  let copies =
    Array.of_list
      (List.concat
         (List.mapi
            (fun i c ->
              match (fn.c_kinds.(i), c.typed) with
              | Kbox, Boxed -> [ fn.c_cells.(i) ]
              | _ -> [])
            acs))
  in
  let enter f =
    bump f k;
    let g = fresh fn f.st in
    for i = 0 to Array.length args - 1 do
      match Array.unsafe_get args i with
      | Aint (c, r) -> g.iv.(c) <- r f
      | Aflt (c, r) -> g.fl.(c) <- r f
      | Abox (c, r) -> g.v.(c) <- r f
    done;
    for i = 0 to Array.length copies - 1 do
      let c = Array.unsafe_get copies i in
      g.v.(c) <- Value.copy g.v.(c)
    done;
    g
  in
  let rc = fn.c_rcell in
  match fn.c_res with
  | Kint ->
      int_code None (fun f ->
          let g = enter f in
          int_result g (fn.c_body g) rc)
  | Kfloat ->
      float_code None (fun f ->
          let g = enter f in
          float_result g (fn.c_body g) rc)
  | Kbox -> dyn (fun f -> fn.c_run (enter f))

(* ---------------- expressions ---------------- *)

(* the kind a declared type gives a cell *)
let kind_of prog t =
  if not prog.typed_slots then Kbox
  else
    match Typecheck.expand prog.tyenv t with
    | Ast.TInt -> Kint
    | Ast.TFloat -> Kfloat
    | _ -> Kbox

(* the [v] cell of [e] when it is a boxed variable in scope *)
let var_slot scope (e : Ast.expr) =
  match e.Ast.desc with
  | Ast.Var x -> (
      match List.assoc_opt x scope with
      | Some { slot; kind = Kbox; _ } -> Some slot
      | _ -> None)
  | _ -> None

let constant v =
  let run _ = v in
  match v with
  | VInt n -> { ops = Some 1; run; typed = Int (fun _ -> n) }
  | VFloat x -> { ops = Some 1; run; typed = Flt (Frun (fun _ -> x)) }
  | _ -> known 1 run

let rec compile_expr fc scope (e : Ast.expr) : ecode =
  match e.Ast.desc with
  | Ast.Int n -> constant (VInt n)
  | Ast.Float x -> constant (VFloat x)
  | Ast.Str s -> constant (VStr s)
  | Ast.Chr c -> constant (VChar c)
  | Ast.OpSection op -> constant (VFun { fv_target = `Op op; fv_applied = [] })
  | Ast.Var x -> (
      match List.assoc_opt x scope with
      | Some { slot; kind; _ } -> (
          match kind with
          | Kint -> int_code (Some 1) (fun f -> f.iv.(slot))
          | Kfloat -> float_src (Some 1) (Fcell slot)
          | Kbox -> known 1 (fun f -> f.v.(slot)))
      | None ->
          if Interp.is_constant x then
            match x with
            | "procId" ->
                int_code (Some 1) (fun f ->
                    match f.st.Interp.backend with
                    | `Par ctx -> Machine.self ctx
                    | `Seq -> 0)
            | "nProcs" ->
                int_code (Some 1) (fun f ->
                    match f.st.Interp.backend with
                    | `Par ctx -> Machine.nprocs ctx
                    | `Seq -> 1)
            | _ -> constant (Option.get (Interp.constant fc.scratch x))
          else if Hashtbl.mem fc.prog.cfuncs x then
            constant (VFun { fv_target = `User x; fv_applied = [] })
          else if Typecheck.is_builtin x then
            constant (VFun { fv_target = `Builtin x; fv_applied = [] })
          else known 1 (fun _ -> rte "unbound identifier %s" x))
  | Ast.Call (h, args) -> compile_call fc scope h args
  | Ast.Binop ((("&&" | "||") as op), a, b) ->
      let ca = compile_expr fc scope a in
      let cb = compile_expr fc scope b in
      let ra = pre 1 ca.ops (cond_runner ca)
      and rb = pre 0 cb.ops (cond_runner cb) in
      bool_code None
        (if op = "&&" then fun f -> ra f && rb f
         else fun f -> ra f || rb f)
  | Ast.Binop (op, a, b) ->
      let ca = compile_expr fc scope a in
      binop_code ~k:1 op ca (compile_expr fc scope b)
  | Ast.Unop ("!", a) ->
      let ca = compile_expr fc scope a in
      let ops, r = node 1 ca (cond_runner ca) in
      bool_code ops (fun f -> not (r f))
  | Ast.Unop ("-", a) -> (
      let ca = compile_expr fc scope a in
      match ca.typed with
      | Int _ | Bool _ ->
          let ops, r = node 1 ca (int_runner ca) in
          int_code ops (fun f -> -r f)
      | Flt _ ->
          let ops, r = node 1 ca (float_runner ca) in
          float_code ops (fun f -> -.r f)
      | Boxed ->
          combine1 ca (fun v ->
              match v with
              | VInt n -> VInt (-n)
              | VFloat x -> VFloat (-.x)
              | v -> rte "cannot negate %s" (describe v)))
  | Ast.Unop (op, _) ->
      known 1 (fun _ -> rte "unknown unary operator %s" op)
  | Ast.Assign (l, r) ->
      let cr = compile_expr fc scope r in
      compile_assign fc scope l cr
  | Ast.Idx
      ( ({ Ast.desc = Ast.Arrow (p, (("lowerBd" | "upperBd") as fname)); _ }
         as a),
        i ) ->
      (* bds->lowerBd[j] / bds->upperBd[j]: read the bound in place instead
         of building the whole Index first.  Any other value takes the
         generic Arrow path, with its errors, before [i] is evaluated. *)
      let arrow = arrow_get (field_slot fc a fname) in
      let upper = fname = "upperBd" in
      let cp = compile_expr fc scope p in
      let ci = compile_expr fc scope i in
      let get pv (ri : int runner) f =
        match pv with
        | VBounds b ->
            let arr = if upper then b.Index.upper else b.Index.lower in
            let j = ri f in
            if j >= 0 && j < Array.length arr then
              if upper then arr.(j) - 1 else arr.(j)
            else rte "Index access out of range (%d)" j
        | pv -> index_get (as_index (arrow pv)) (ri f)
      in
      (* the Idx and Arrow nodes bump, then p, then i *)
      let ops, rp, ri =
        match (cp.ops, ci.ops) with
        | Some np, Some ni -> (Some (2 + np + ni), cp.run, int_runner ci)
        | _ -> (None, pre 2 cp.ops cp.run, pre 0 ci.ops (int_runner ci))
      in
      int_code ops (fun f -> get (rp f) ri f)
  | Ast.Idx (({ Ast.desc = Ast.Var _; _ } as a), { Ast.desc = Ast.Int j; _ })
    when var_slot scope a <> None ->
      (* ix[j]: one closure reads the cell and the component *)
      let slot = Option.get (var_slot scope a) in
      int_code (Some 3) (fun f ->
          match f.v.(slot) with
          | VIndex arr when j >= 0 && j < Array.length arr -> arr.(j)
          | v -> index_get (as_index v) j)
  | Ast.Idx (a, i) ->
      let ca = compile_expr fc scope a in
      let ci = compile_expr fc scope i in
      let ops, ra, ri = binary ca ci ca.run (int_runner ci) in
      int_code ops (fun f ->
          let arr = as_index (ra f) in
          index_get arr (ri f))
  | Ast.Field (s, fname) -> compile_field fc scope e s fname
  | Ast.Arrow (p, fname) -> (
      let fd = field_slot fc e fname in
      let cp = compile_expr fc scope p in
      let ops, r = node 1 cp cp.run in
      let run f = arrow_get fd (r f) in
      match fd.fkind with
      | Kint ->
          { ops; run; typed = Int (fun f -> field_int fd (arrow_ptr (r f))) }
      | Kfloat ->
          {
            ops;
            run;
            typed = Flt (Frun (fun f -> field_float fd (arrow_ptr (r f))));
          }
      | Kbox -> { ops; run; typed = Boxed })
  | Ast.Deref p ->
      combine1 (compile_expr fc scope p) (fun v ->
          match v with
          | VPtr r -> !r
          | VNull -> rte "dereference of NULL"
          | v -> rte "dereference of %s" (describe v))
  | Ast.ArrayLit es -> (
      let cs = List.map (compile_expr fc scope) es in
      (* the one- and two-element literals of 1-D and 2-D arrays are
         evaluated left to right into an inline allocation instead of an
         [Array.make] C call *)
      let fill = function
        | [| r0 |] -> fun f -> VIndex [| r0 f |]
        | [| r0; r1 |] ->
            fun f ->
              let x0 = r0 f in
              VIndex [| x0; r1 f |]
        | runs ->
            fun f ->
              let n = Array.length runs in
              let out = Array.make n 0 in
              for i = 0 to n - 1 do
                out.(i) <- runs.(i) f
              done;
              VIndex out
      in
      let total =
        List.fold_left
          (fun s c ->
            match (s, c.ops) with Some s, Some n -> Some (s + n) | _ -> None)
          (Some 1) cs
      in
      match total with
      | Some total ->
          known total (fill (Array.of_list (List.map int_runner cs)))
      | None ->
          let sealed c = pre 0 c.ops (int_runner c) in
          let run = fill (Array.of_list (List.map sealed cs)) in
          dyn (fun f ->
              bump f 1;
              run f))
  | Ast.Cond (c, a, b) ->
      let cc = compile_expr fc scope c in
      let rc = pre 1 cc.ops (cond_runner cc) in
      let ca = seal (compile_expr fc scope a) in
      let cb = seal (compile_expr fc scope b) in
      dyn (fun f -> if rc f then ca f else cb f)
  | Ast.New e ->
      combine1 (compile_expr fc scope e) (fun v ->
          VPtr (ref (Value.copy v)))

(* s.f: the Field node bumps, then s.  A struct variable's field is read
   in one closure, and a flat int or float field also reads unboxed. *)
and compile_field fc scope e s fname =
  let fd = field_slot fc e fname in
  let ops, src =
    match var_slot scope s with
    | Some slot -> (Some 2, `Slot slot)
    | None ->
        let cs = compile_expr fc scope s in
        let ops, r = node 1 cs cs.run in
        (ops, `Run r)
  in
  let run =
    match src with
    | `Slot slot -> fun f -> field_get fd f.v.(slot)
    | `Run r -> fun f -> field_get fd (r f)
  in
  let typed =
    match (fd.fkind, src) with
    | Kint, `Slot slot -> Int (fun f -> field_int fd f.v.(slot))
    | Kint, `Run r -> Int (fun f -> field_int fd (r f))
    | Kfloat, `Slot slot -> Flt (Ffield (slot, fd))
    | Kfloat, `Run r -> Flt (Frun (fun f -> field_float fd (r f)))
    | Kbox, _ -> Boxed
  in
  { ops; run; typed }

(* array_get_elem(a, {i}) and array_get_elem(a, {i, j}) on an int or float
   array: the generic call's bumps (Call and head, a, the literal and its
   components) and flush, then the element read from the ints by
   [Darray.get1]/[get2], with [Darray.get]'s checks.  Any other payload or
   value goes to the generic dispatcher with the Index built. *)
and get_elem_lit fc scope kind a es =
  let ca = compile_expr fc scope a in
  let slow st va ix =
    Interp.builtin st ~apply:(rt_apply fc.prog st) "array_get_elem"
      [ va; VIndex ix ]
  in
  let rank st = Machine.self (Interp.ctx_of st) in
  (* each child's bumps inline: a dynamic child's count is 0, and it bumps
     itself *)
  let na = 2 + bumps ca and ra = ca.run in
  let lit1 : type e. e payload -> ecode -> e runner =
   fun k c0 ->
    let n0 = 1 + bumps c0 and r0 = int_runner c0 in
    fun f ->
      bump f na;
      let va = ra f in
      bump f n0;
      let i = r0 f in
      Interp.flush_scalar f.st;
      match (k, va) with
      | Pint, VDarray (DInt d) -> Darray.get1 d ~rank:(rank f.st) i
      | Pfloat, VDarray (DFloat d) -> Darray.get1 d ~rank:(rank f.st) i
      | _ -> unbox_of k (slow f.st va [| i |])
  in
  let lit2 : type e. e payload -> ecode -> ecode -> e runner =
   fun k c0 c1 ->
    let n0 = 1 + bumps c0 and r0 = int_runner c0 in
    let n1 = bumps c1 and r1 = int_runner c1 in
    fun f ->
      bump f na;
      let va = ra f in
      bump f n0;
      let i = r0 f in
      bump f n1;
      let j = r1 f in
      Interp.flush_scalar f.st;
      match (k, va) with
      | Pint, VDarray (DInt d) -> Darray.get2 d ~rank:(rank f.st) i j
      | Pfloat, VDarray (DFloat d) -> Darray.get2 d ~rank:(rank f.st) i j
      | _ -> unbox_of k (slow f.st va [| i; j |])
  in
  match (List.map (compile_expr fc scope) es, kind) with
  | [ c0 ], Kint -> int_code None (lit1 Pint c0)
  | [ c0 ], Kfloat -> float_code None (lit1 Pfloat c0)
  | [ c0; c1 ], Kint -> int_code None (lit2 Pint c0 c1)
  | [ c0; c1 ], Kfloat -> float_code None (lit2 Pfloat c0 c1)
  | _ -> invalid_arg "Compile.get_elem_lit"

(* Calls.  Head bumps: the Call node plus, for a Var/OpSection head
   resolved statically, that head node (= 2).  Argument order mirrors the
   interpreter: head first, then arguments left to right. *)
and compile_call fc scope h args =
  let builtin x =
    (not (List.mem_assoc x scope)) && not (Hashtbl.mem fc.prog.cfuncs x)
  in
  let elem_kind () =
    match List.assoc_opt "t" h.Ast.inst with
    | Some t -> kind_of fc.prog t
    | None -> Kbox
  in
  match (h.Ast.desc, args) with
  | ( Ast.Var ("array_get_elem" as x),
      [ a; { Ast.desc = Ast.ArrayLit (([ _ ] | [ _; _ ]) as es); _ } ] )
    when builtin x && elem_kind () <> Kbox ->
      get_elem_lit fc scope (elem_kind ()) a es
  | _ -> compile_apply fc scope h args

and compile_apply fc scope h args =
  let acs = List.map (compile_expr fc scope) args in
  let nargs = List.length acs in
  let all_known = List.for_all (fun c -> c.ops <> None) acs in
  let args_ops =
    if all_known then
      List.fold_left (fun s c -> s + Option.get c.ops) 0 acs
    else 0
  in
  let sealed = Array.of_list (List.map seal acs) in
  let eval_sealed f =
    let n = Array.length sealed in
    let rec go i =
      if i = n then []
      else
        let v = sealed.(i) f in
        v :: go (i + 1)
    in
    go 0
  in
  let raws = Array.of_list (List.map (fun c -> c.run) acs) in
  let eval_raw f =
    let n = Array.length raws in
    let rec go i =
      if i = n then []
      else
        let v = raws.(i) f in
        v :: go (i + 1)
    in
    go 0
  in
  (* a partial application allocates a closure value but cannot flush *)
  let partial target =
    if all_known then
      known (2 + args_ops) (fun f ->
          VFun { fv_target = target; fv_applied = eval_raw f })
    else
      dyn (fun f ->
          bump f 2;
          VFun { fv_target = target; fv_applied = eval_sealed f })
  in
  let over target arity =
    dyn (fun f ->
        bump f 2;
        let argv = eval_sealed f in
        let now, later = Interp.split_at arity argv in
        rt_apply fc.prog f.st (rt_invoke fc.prog f.st target now) later)
  in
  let direct =
    match h.Ast.desc with
    | Ast.Var x
      when (not (List.mem_assoc x scope)) && not (Interp.is_constant x)
      -> (
        match Hashtbl.find_opt fc.prog.cfuncs x with
        | Some fn -> `User (x, fn)
        | None ->
            if Typecheck.is_builtin x then
              `Builtin (x, Option.get (Typecheck.builtin_arity x))
            else `Unbound x)
    | Ast.OpSection op -> `Opsec op
    | _ -> `General
  in
  match direct with
  | `Unbound x ->
      (* the interpreter bumps Call then the head Var, then raises before
         touching the arguments *)
      dyn (fun f ->
          bump f 2;
          rte "unbound identifier %s" x)
  | `User (x, fn) ->
      if nargs = fn.c_arity then call_user fn acs
      else if nargs < fn.c_arity then partial (`User x)
      else over (`User x) fn.c_arity
  | `Builtin (x, arity) -> (
      if nargs <> arity then
        if nargs < arity then partial (`Builtin x) else over (`Builtin x) arity
      else
        (* Local-access builtins are the per-element hot path of skeleton
           argument functions (gauss reads two elements per eliminate call):
           evaluate the argument slots straight into locals instead of
           consing an argument list, with the same bumps and the same flush
           point as the generic dispatcher.  On a shape mismatch we rebuild
           the list and fall back (the dispatcher re-flushes; that is a
           no-op at pending = 0). *)
        match (x, sealed) with
        | "array_get_elem", [| sa; si |] ->
            dyn (fun f ->
                bump f 2;
                let va = sa f in
                let vi = si f in
                Interp.flush_scalar f.st;
                match (va, vi) with
                | VDarray a, VIndex ix ->
                    Interp.get_elem_array (Interp.ctx_of f.st) a ix
                | _ ->
                    Interp.builtin f.st ~apply:(rt_apply fc.prog f.st) x
                      [ va; vi ])
        | "array_put_elem", [| sa; si; sv |] ->
            dyn (fun f ->
                bump f 2;
                let va = sa f in
                let vi = si f in
                let v = sv f in
                Interp.flush_scalar f.st;
                match (va, vi) with
                | VDarray a, VIndex ix ->
                    Interp.put_elem_array (Interp.ctx_of f.st) a ix v;
                    VUnit
                | _ ->
                    Interp.builtin f.st ~apply:(rt_apply fc.prog f.st) x
                      [ va; vi; v ])
        | "array_part_bounds", [| sa |] ->
            dyn (fun f ->
                bump f 2;
                let va = sa f in
                Interp.flush_scalar f.st;
                match va with
                | VDarray a ->
                    VBounds (Interp.part_bounds_array (Interp.ctx_of f.st) a)
                | _ ->
                    Interp.builtin f.st ~apply:(rt_apply fc.prog f.st) x [ va ])
        | _ -> (
            let dispatch () =
              match specialize_skeleton fc.prog h x with
              | Some handle ->
                  (* same flush point as the generic dispatcher's array_*
                     entry; the handler's own fallback re-flushing is a
                     no-op *)
                  dyn (fun f ->
                      bump f 2;
                      let argv = eval_sealed f in
                      Interp.flush_scalar f.st;
                      handle f.st argv)
              | None ->
                  dyn (fun f ->
                      bump f 2;
                      Interp.builtin f.st ~apply:(rt_apply fc.prog f.st) x
                        (eval_sealed f))
            in
            match (acs, scalar_builtin_2 x) with
            | [ ca ], _ -> (
                match scalar_builtin_1 x ca with
                | Some c -> c
                | None -> dispatch ())
            | [ ca; cb ], Some f2 -> boxed2 ~k:2 f2 ca cb
            | _ -> dispatch ()))
  | `Opsec op -> (
      match acs with
      | [ ca; cb ] -> binop_code ~k:2 op ca cb
      | _ -> if nargs < 2 then partial (`Op op) else over (`Op op) 2)
  | `General ->
      let hc = seal (compile_expr fc scope h) in
      dyn (fun f ->
          bump f 1;
          let hv = hc f in
          let argv = eval_sealed f in
          rt_apply fc.prog f.st hv argv)

(* Assignment mirrors Interp.assign: the right-hand side is evaluated and
   copied first, then the lvalue components. *)
and compile_assign fc scope (l : Ast.expr) cr =
  let vr = copied cr in
  (* the Assign node, the right-hand side, then the target's child *)
  let with_target c set =
    let ops, rr, rc = binary cr c vr c.run in
    {
      ops;
      typed = Boxed;
      run =
        (fun f ->
          let v = rr f in
          set v (rc f));
    }
  in
  match l.Ast.desc with
  | Ast.Var x -> (
      match List.assoc_opt x scope with
      | Some { slot; kind = Kint; _ } ->
          let ops, r = node 1 cr (int_runner cr) in
          int_code ops (fun f ->
              let n = r f in
              f.iv.(slot) <- n;
              n)
      | Some { slot; kind = Kfloat; _ } ->
          let ops, r = node 1 cr (float_runner cr) in
          float_code ops (fun f ->
              let x = r f in
              f.fl.(slot) <- x;
              x)
      | Some { slot; kind = Kbox; _ } ->
          let ops, r = node 1 cr vr in
          {
            ops;
            typed = Boxed;
            run =
              (fun f ->
                let v = r f in
                f.v.(slot) <- v;
                v);
          }
      | None ->
          let r = pre 1 cr.ops vr in
          dyn (fun f ->
              ignore (r f);
              rte "cannot assign to %s" x))
  | Ast.Idx (a, i) -> (
      let ca = compile_expr fc scope a in
      let ci = compile_expr fc scope i in
      let set v arr j =
        if j >= 0 && j < Array.length arr then (
          arr.(j) <- as_int v;
          v)
        else rte "Index assignment out of range (%d)" j
      in
      match (cr.ops, ca.ops, ci.ops) with
      | Some nr, Some na, Some ni ->
          let ri = int_runner ci in
          known
            (1 + nr + na + ni)
            (fun f ->
              let v = vr f in
              let arr = as_index (ca.run f) in
              set v arr (ri f))
      | _ ->
          let rr = pre 1 cr.ops vr and ra = seal ca in
          let ri = pre 0 ci.ops (int_runner ci) in
          dyn (fun f ->
              let v = rr f in
              let arr = as_index (ra f) in
              set v arr (ri f)))
  | Ast.Field (s, fname) ->
      let target =
        match var_slot scope s with
        | Some slot -> `Slot slot
        | None -> `Code (compile_expr fc scope s)
      in
      field_store cr (field_slot fc l fname) ~arrow:false target
  | Ast.Arrow (p, fname) ->
      field_store cr (field_slot fc l fname) ~arrow:true
        (`Code (compile_expr fc scope p))
  | Ast.Deref p ->
      with_target (compile_expr fc scope p) (fun v pv ->
          match pv with
          | VPtr r ->
              r := v;
              v
          | VNull -> rte "assignment through NULL"
          | w -> rte "assignment through %s" (describe w))
  | _ ->
      let r = pre 1 cr.ops cr.run in
      dyn (fun f ->
          ignore (r f);
          rte "invalid assignment target")

(* x.f = e, g().f = e and p->f = e, after the right-hand side [cr]: the
   Assign node, e and its copy, then the target, whose value is the
   struct or, under [arrow], a pointer to it.  A struct variable's field
   is stored in one closure, and a flat int or float field unboxed. *)
and field_store cr fd ~arrow target =
  let build : type e. e payload -> (int option -> e runner -> ecode) ->
      e runner -> ecode =
   fun k code r ->
    match target with
    | `Slot slot -> (
        match cr.ops with
        | Some n ->
            code
              (Some (2 + n))
              (fun f ->
                let x = r f in
                store_field k fd (target_struct f.v.(slot)) x;
                x)
        | None ->
            code None (fun f ->
                bump f 1;
                let x = r f in
                bump f 1;
                store_field k fd (target_struct f.v.(slot)) x;
                x))
    | `Code c ->
        let ops, rr, rc = binary cr c r c.run in
        code ops (fun f ->
            let x = rr f in
            let sv = rc f in
            store_field k fd
              (if arrow then deref_struct sv else target_struct sv)
              x;
            x)
  in
  match fd.fkind with
  | Kint -> build Pint int_code (int_runner cr)
  | Kfloat -> build Pfloat float_code (float_runner cr)
  | Kbox -> build Pgen (fun ops run -> { ops; run; typed = Boxed }) (copied cr)

(* ---------------- statements ---------------- *)

let flush = Interp.flush_scalar

(* A block runs as a chain of its statements: each link runs up to three,
   returns the first outcome that is not [fall], and otherwise calls the
   rest of the chain. *)
let rec chain = function
  | [] -> fun _ -> fall
  | [ a ] -> a
  | [ a; b ] ->
      fun f ->
        let o = a f in
        if o != fall then o else b f
  | [ a; b; c ] ->
      fun f ->
        let o = a f in
        if o != fall then o
        else
          let o = b f in
          if o != fall then o else c f
  | a :: b :: c :: rest ->
      let k = chain rest in
      fun f ->
        let o = a f in
        if o != fall then o
        else
          let o = b f in
          if o != fall then o
          else
            let o = c f in
            if o != fall then o else k f

(* A statement that stores [c], after [k] bumps of its own, into cell
   [slot] of an int or float [kind], then answers [o]: a declaration, an
   assignment statement, or a return into the result cell *)
let store_stmt ~k c kind slot o : scode =
  match kind with
  | Kint ->
      let ops, r = node k c (int_runner c) in
      let n = Option.value ops ~default:0 in
      fun f ->
        flush f.st;
        bump f n;
        f.iv.(slot) <- r f;
        o
  | Kfloat -> (
      match c.ops with
      | Some n ->
          let s = float_source c and n = k + n in
          fun f ->
            flush f.st;
            bump f n;
            f.fl.(slot) <- fread s f;
            o
      | None ->
          let r = pre k None (float_runner c) in
          fun f ->
            flush f.st;
            f.fl.(slot) <- r f;
            o)
  | Kbox -> invalid_arg "Compile.store_stmt"

(* An expression run for its effect: its own bumps and a runner, unboxed
   when it is typed *)
type effect = Eff : int * 'a runner -> effect

let effect c =
  let n = bumps c in
  match c.typed with
  | Int r -> Eff (n, r)
  | Flt _ -> Eff (n, float_runner c)
  | Bool r -> Eff (n, r)
  | Boxed -> Eff (n, c.run)

(* [x = e] on an int or float variable in scope: e, x's kind and cell *)
let typed_assign scope (e : Ast.expr) =
  match e.Ast.desc with
  | Ast.Assign ({ Ast.desc = Ast.Var x; _ }, r) -> (
      match List.assoc_opt x scope with
      | Some { slot; kind = (Kint | Kfloat) as kind; _ } -> Some (r, kind, slot)
      | _ -> None)
  | _ -> None

(* Every statement flushes pending scalar work first, exactly like
   Interp.exec, inside its own closure; compile_stmt returns the (possibly
   extended) scope. *)
let rec compile_stmt fc scope s : (string * var) list * scode =
  match s with
  | Ast.SExpr e -> (
      match typed_assign scope e with
      | Some (r, kind, slot) ->
          (scope, store_stmt ~k:1 (compile_expr fc scope r) kind slot fall)
      | None -> (
          match effect (compile_expr fc scope e) with
          | Eff (n, r) ->
              ( scope,
                fun f ->
                  flush f.st;
                  bump f n;
                  ignore (r f);
                  fall )))
  | Ast.SDecl (t, name, init) ->
      let kind = kind_of fc.prog t in
      let slot = new_slot fc.cells kind in
      let code =
        match (init, kind) with
        | Some e, (Kint | Kfloat) ->
            store_stmt ~k:0 (compile_expr fc scope e) kind slot fall
        | Some e, Kbox ->
            let c = compile_expr fc scope e in
            let n = bumps c and v = copied c in
            fun f ->
              flush f.st;
              bump f n;
              f.v.(slot) <- v f;
              fall
        | None, _ -> (
            (* the zero value of the type, evaluated once at compile time;
               copy gives each execution fresh struct field cells *)
            let template = Interp.default_value fc.scratch t in
            match kind with
            | Kint ->
                let z = as_int template in
                fun f ->
                  flush f.st;
                  f.iv.(slot) <- z;
                  fall
            | Kfloat ->
                let z = as_float template in
                fun f ->
                  flush f.st;
                  f.fl.(slot) <- z;
                  fall
            | Kbox -> (
                match template with
                | VStruct s ->
                    fun f ->
                      flush f.st;
                      f.v.(slot) <- VStruct (Value.copy_struct s);
                      fall
                | _ ->
                    fun f ->
                      flush f.st;
                      f.v.(slot) <- Value.copy template;
                      fall))
      in
      ((name, { slot; kind; owned = true }) :: scope, code)
  | Ast.SIf (c, a, b) ->
      let c = compile_expr fc scope c in
      let n = bumps c and cc = cond_runner c in
      let ca = compile_block fc scope a in
      let cb = compile_block fc scope b in
      ( scope,
        fun f ->
          flush f.st;
          bump f n;
          if cc f then ca f else cb f )
  | Ast.SWhile (c, body) ->
      let c = compile_expr fc scope c in
      let n = bumps c and cc = cond_runner c in
      let cb = compile_block fc scope body in
      ( scope,
        fun f ->
          flush f.st;
          let out = ref fall in
          while
            !out == fall
            &&
            (bump f n;
             cc f)
          do
            let o = cb f in
            if o != cont then out := o
          done;
          if !out == brk then fall else !out )
  | Ast.SFor (init, cond_e, step, body) -> (
      let scope', initc =
        match init with
        | Some s ->
            let sc, c = compile_stmt fc scope s in
            (sc, Some c)
        | None -> (scope, None)
      in
      (* the condition and step bump inline: n, then the runner *)
      let nc, cc =
        match cond_e with
        | Some c ->
            let c = compile_expr fc scope' c in
            (bumps c, cond_runner c)
        | None -> (0, fun _ -> true)
      in
      let step =
        match step with
        | Some e -> effect (compile_expr fc scope' e)
        | None -> Eff (0, fun _ -> ())
      in
      let bodyc = compile_block fc scope' body in
      match step with
      | Eff (ns, stepc) ->
          ( scope,
            fun f ->
              flush f.st;
              (match initc with Some c -> ignore (c f) | None -> ());
              let out = ref fall in
              while
                !out == fall
                &&
                (bump f nc;
                 cc f)
              do
                let o = bodyc f in
                if o == fall || o == cont then (
                  bump f ns;
                  ignore (stepc f))
                else out := o
              done;
              if !out == brk then fall else !out ))
  | Ast.SReturn None ->
      ( scope,
        fun f ->
          flush f.st;
          VUnit )
  | Ast.SReturn (Some e) -> (
      let c = compile_expr fc scope e in
      match fc.fn.c_res with
      | (Kint | Kfloat) as kind ->
          (scope, store_stmt ~k:0 c kind fc.fn.c_rcell ret)
      | Kbox ->
          (* A return copies its value, unless the activation owns the
             variable it returns: no other code can reach that value, and
             the frame never reads the cell again before writing it. *)
          let owned =
            match e.Ast.desc with
            | Ast.Var x -> (
                match List.assoc_opt x scope with
                | Some v -> v.owned
                | None -> false)
            | _ -> false
          in
          let n = bumps c and r = if owned then c.run else copied c in
          ( scope,
            fun f ->
              flush f.st;
              bump f n;
              r f ))
  | Ast.SBreak ->
      ( scope,
        fun f ->
          flush f.st;
          brk )
  | Ast.SContinue ->
      ( scope,
        fun f ->
          flush f.st;
          cont )
  | Ast.SBlock b ->
      let cb = compile_block fc scope b in
      ( scope,
        fun f ->
          flush f.st;
          cb f )

and compile_block fc scope stmts : scode =
  let _, rev =
    List.fold_left
      (fun (scope, acc) s ->
        let scope', c = compile_stmt fc scope s in
        (scope', c :: acc))
      (scope, []) stmts
  in
  chain (List.rev rev)

(* ---------------- trusting declared types ----------------

   A typed runner reads an int or float slot, or an element of a generic
   array of that type, without asking the value for its tag: it trusts
   the declared type.  The typechecker makes that trust good, except for
   two ways a program carries a void into a typed place.  A function with
   a result that falls off its end returns void, and so does a declaration
   without an initialiser whose zero value holds a void (a type variable
   under --no-instantiate, or a generic struct nested in another).  A
   program that can do either keeps every slot boxed, where a void meets
   the interpreter's own error. *)

(* whether control can reach the end of [stmts]; a loop always may *)
let rec falls_through = function
  | [] -> true
  | Ast.SReturn _ :: _ -> false
  | Ast.SIf (_, a, b) :: rest ->
      (falls_through a || falls_through b) && falls_through rest
  | Ast.SBlock b :: rest -> falls_through b && falls_through rest
  | _ :: rest -> falls_through rest

(* an int or float field is never void *)
let rec holds_void = function
  | VUnit -> true
  | VStruct s -> Array.exists holds_void s.s_vals
  | _ -> false

let typed_slots tyenv scratch funcs =
  (* a distributed array or a function starts void too, but no typed
     place can receive one *)
  let void_default = function
    | Ast.SDecl (t, _, None) -> (
        match Typecheck.expand tyenv t with
        | Ast.TNamed (n, _) when Typecheck.is_pardata tyenv n -> false
        | Ast.TFun _ -> false
        | _ -> holds_void (Interp.default_value scratch t))
    | _ -> false
  in
  List.for_all
    (fun f ->
      let body = Option.get f.Ast.f_body in
      (match Typecheck.expand tyenv f.Ast.f_ret with
       | Ast.TVoid -> true
       | _ -> not (falls_through body))
      && not (Ast.exists_stmts ~stmt:void_default body))
    funcs

(* ---------------- program ---------------- *)

let compile_func t scratch ~lendable (f : Ast.func) =
  let cfn = Hashtbl.find t.cfuncs f.Ast.f_name in
  (* the body's cells follow the signature's *)
  let fc =
    {
      prog = t;
      scratch;
      fn = cfn;
      cells = [| cfn.c_size; cfn.c_nint; cfn.c_nflt |];
    }
  in
  let fbody = Option.get f.Ast.f_body in
  cfn.c_ix_safe <- not (writes index_target fbody);
  cfn.c_lend <- lendable && not (writes field_target fbody);
  cfn.c_assigns <-
    Array.of_list
      (List.map
         (fun p -> writes (rooted_in p.Ast.p_name) fbody)
         f.Ast.f_params);
  (* a parameter holds the activation's own copy unless an invoker may lend
     it: any of them under [c_lend], the last (an element function's
     Index) under [c_ix_safe] *)
  let lent i = cfn.c_lend || (cfn.c_ix_safe && i = cfn.c_arity - 1) in
  let scope =
    List.mapi
      (fun i p ->
        let v =
          {
            slot = cfn.c_cells.(i);
            kind = cfn.c_kinds.(i);
            owned = not (lent i);
          }
        in
        (p.Ast.p_name, v))
      f.Ast.f_params
  in
  let body = compile_block fc scope fbody in
  cfn.c_size <- fc.cells.(0);
  cfn.c_nint <- fc.cells.(1);
  cfn.c_nflt <- fc.cells.(2);
  cfn.c_body <- body;
  let rc = cfn.c_rcell in
  let run =
    match cfn.c_res with
    | Kint -> fun f -> VInt (int_result f (body f) rc)
    | Kfloat -> fun f -> VFloat (float_result f (body f) rc)
    | Kbox -> fun f -> boxed_outcome (body f)
  in
  cfn.c_run <- run;
  cfn.c_invoke <-
    (fun st args ->
      let f = fresh cfn st in
      let rec fill i = function
        | [] -> ()
        | a :: rest ->
            set_param cfn f i (Value.copy a);
            fill (i + 1) rest
      in
      fill 0 args;
      run f)

(* A function's placeholder, with each parameter's and an int or float
   result's cell fixed by its signature: the cells of each kind are
   numbered in order, the result's after the parameters'. *)
let signature t (f : Ast.func) =
  let n = [| 0; 0; 0 |] in
  let kinds =
    Array.of_list (List.map (fun p -> kind_of t p.Ast.p_type) f.Ast.f_params)
  in
  let cells = Array.map (new_slot n) kinds in
  let res = kind_of t f.Ast.f_ret in
  let rcell = match res with Kbox -> -1 | k -> new_slot n k in
  let missing () = rte "function %s not yet compiled" f.Ast.f_name in
  {
    c_arity = Array.length kinds;
    c_kinds = kinds;
    c_cells = cells;
    c_res = res;
    c_rcell = rcell;
    c_size = n.(0);
    c_nint = n.(1);
    c_nflt = n.(2);
    c_ix_safe = false;
    c_lend = false;
    c_assigns = [||];
    c_body = (fun _ -> missing ());
    c_run = (fun _ -> missing ());
    c_invoke = (fun _ _ -> missing ());
  }

let program ~tyenv (prog_ast : Ast.program) : t =
  let scratch = Interp.make ~tyenv prog_ast in
  let funcs =
    List.filter_map
      (function
        | Ast.TFunc f when f.Ast.f_body <> None -> Some f
        | _ -> None)
      prog_ast
  in
  let t =
    {
      cfuncs = Hashtbl.create 32;
      tyenv;
      typed_slots = typed_slots tyenv scratch funcs;
    }
  in
  (* the templates of a program whose typed runners are trusted, and so
     every struct value it makes, have the flat layout *)
  let scratch =
    if t.typed_slots then Interp.make ~flat:true ~tyenv prog_ast else scratch
  in
  (* signatures first so recursive and forward calls resolve *)
  List.iter
    (fun f -> Hashtbl.replace t.cfuncs f.Ast.f_name (signature t f))
    funcs;
  let lendable =
    not
      (List.exists
         (fun f -> writes shared_target (Option.get f.Ast.f_body))
         funcs)
  in
  List.iter (compile_func t scratch ~lendable) funcs;
  t

(* Arguments from outside the program must give each scalar parameter its
   declared kind, which the typed runners trust; a call with any other
   arguments runs on the reference interpreter, whose results the compiled
   engine matches. *)
let trusted prog v args =
  match v with
  | VFun { fv_target = `User name; fv_applied } -> (
      match Hashtbl.find_opt prog.cfuncs name with
      | None -> true
      | Some fn ->
          let ok i a =
            i >= Array.length fn.c_kinds
            ||
            match (fn.c_kinds.(i), a) with
            | Kint, VInt _ | Kfloat, VFloat _ | Kbox, _ -> true
            | (Kint | Kfloat), _ -> false
          in
          List.for_all Fun.id (List.mapi ok (fv_applied @ args)))
  | _ -> true

let apply prog st v args =
  if trusted prog v args then rt_apply prog st v args
  else Interp.apply st v args

let call prog st name args =
  if Hashtbl.mem prog.cfuncs name then
    apply prog st (VFun { fv_target = `User name; fv_applied = [] }) args
  else if Typecheck.is_builtin name then
    rt_apply prog st
      (VFun { fv_target = `Builtin name; fv_applied = [] })
      args
  else rte "undefined function %s" name
