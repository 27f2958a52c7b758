(* Abstract syntax of Skil: a C subset with type variables, higher-order
   function parameters, partial application, operator sections and pardata
   declarations (paper section 2). *)

type typ =
  | TInt
  | TFloat
  | TChar
  | TVoid
  | TString
  | TVar of string  (* $t: rigid in definitions, instantiated at calls *)
  | TNamed of string * typ list  (* typedef / struct / pardata applications *)
  | TPtr of typ
  | TFun of typ list * typ  (* function-typed parameters *)
  | TIndex  (* the builtin Index / classical int array type *)
  | TBounds  (* result of array_part_bounds *)
  | TMeta of meta ref  (* unification variables (typechecker-internal) *)

and meta = Unbound of int | Link of typ

type expr = {
  mutable desc : desc;  (* mutable so the optimizer can rewrite in place *)
  line : int;
  col : int;  (* position of the node's first token; 0 when synthesized *)
  mutable inst : (string * typ) list;
}
(* [inst] is filled by the typechecker on Call/Var nodes that reference a
   polymorphic function: the types its $-variables were instantiated with.
   The instantiation pass consumes it. *)

and desc =
  | Int of int
  | Float of float
  | Str of string
  | Chr of char
  | Var of string
  | OpSection of string
  | Call of expr * expr list
  | Binop of string * expr * expr
  | Unop of string * expr
  | Assign of expr * expr
  | Idx of expr * expr
  | Field of expr * string
  | Arrow of expr * string
  | Deref of expr
  | ArrayLit of expr list
  | Cond of expr * expr * expr
  | New of expr

type stmt =
  | SExpr of expr
  | SDecl of typ * string * expr option
  | SIf of expr * stmt list * stmt list
  | SWhile of expr * stmt list
  | SFor of stmt option * expr option * expr option * stmt list
  | SReturn of expr option
  | SBreak
  | SContinue
  | SBlock of stmt list

type param = { p_type : typ; p_name : string }

type func = {
  f_ret : typ;
  f_name : string;
  f_params : param list;
  f_body : stmt list option; (* None for prototypes *)
}

type struct_def = {
  s_name : string;
  s_params : string list;
  s_fields : (typ * string) list;
}

type typedef = { td_name : string; td_params : string list; td_type : typ }
type pardata_def = { pd_name : string; pd_params : string list }

type top =
  | TFunc of func
  | TStruct of struct_def
  | TTypedef of typedef
  | TPardata of pardata_def

type program = top list

let mk ?(line = 0) ?(col = 0) desc = { desc; line; col; inst = [] }

let rec type_to_string = function
  | TInt -> "int"
  | TFloat -> "float"
  | TChar -> "char"
  | TVoid -> "void"
  | TString -> "string"
  | TVar v -> "$" ^ v
  | TNamed (n, []) -> n
  | TNamed (n, args) ->
      n ^ "<" ^ String.concat "," (List.map type_to_string args) ^ ">"
  | TPtr t -> type_to_string t ^ " *"
  | TFun (args, ret) ->
      type_to_string ret ^ " (" ^ String.concat ", "
        (List.map type_to_string args) ^ ")"
  | TIndex -> "Index"
  | TBounds -> "Bounds"
  | TMeta { contents = Link t } -> type_to_string t
  | TMeta { contents = Unbound n } -> Printf.sprintf "'_%d" n

(* ---------------- the one walk ---------------- *)

(* Every pass that needs no meaning of a node of its own walks the tree
   with these.  A pass that evaluates, infers, prints or analyses a node
   matches on it itself. *)

(* [f] on every node of [e], pre-order: a node, then its children left to
   right. *)
let rec iter_expr f e =
  f e;
  match e.desc with
  | Int _ | Float _ | Str _ | Chr _ | Var _ | OpSection _ -> ()
  | Call (h, args) ->
      iter_expr f h;
      List.iter (iter_expr f) args
  | Binop (_, a, b) | Assign (a, b) | Idx (a, b) ->
      iter_expr f a;
      iter_expr f b
  | Unop (_, a) | Field (a, _) | Arrow (a, _) | Deref a | New a ->
      iter_expr f a
  | ArrayLit es -> List.iter (iter_expr f) es
  | Cond (a, b, c) ->
      iter_expr f a;
      iter_expr f b;
      iter_expr f c

(* [fs] on [s] and every statement inside it, [fe] on every expression
   node, pre-order and in source order. *)
let rec iter_stmt fe fs s =
  fs s;
  match s with
  | SExpr e -> iter_expr fe e
  | SDecl (_, _, e) | SReturn e -> Option.iter (iter_expr fe) e
  | SIf (c, a, b) ->
      iter_expr fe c;
      List.iter (iter_stmt fe fs) a;
      List.iter (iter_stmt fe fs) b
  | SWhile (c, b) ->
      iter_expr fe c;
      List.iter (iter_stmt fe fs) b
  | SFor (i, c, st, b) ->
      Option.iter (iter_stmt fe fs) i;
      Option.iter (iter_expr fe) c;
      Option.iter (iter_expr fe) st;
      List.iter (iter_stmt fe fs) b
  | SBreak | SContinue -> ()
  | SBlock b -> List.iter (iter_stmt fe fs) b

(* Whether [expr] holds of an expression node or [stmt] of a statement
   anywhere in [stmts]; the walk stops at the first. *)
let exists_stmts ?(expr = fun _ -> false) ?(stmt = fun _ -> false) stmts =
  let exception Found in
  let hit p x = if p x then raise_notrace Found in
  match List.iter (iter_stmt (hit expr) (hit stmt)) stmts with
  | () -> false
  | exception Found -> true

(* [e] as a fresh node at its position, with [f] applied to each child and
   no [inst].  The children are rebuilt in the order OCaml evaluates a
   constructor's arguments, last to first (a list's elements first to
   last): the order in which the instantiation pass has always reached
   nested calls, and so numbered its specialisations. *)
let map_expr f e =
  let desc =
    match e.desc with
    | (Int _ | Float _ | Str _ | Chr _ | Var _ | OpSection _) as d -> d
    | Call (h, args) -> Call (f h, List.map f args)
    | Binop (op, a, b) -> Binop (op, f a, f b)
    | Unop (op, a) -> Unop (op, f a)
    | Assign (a, b) -> Assign (f a, f b)
    | Idx (a, b) -> Idx (f a, f b)
    | Field (a, n) -> Field (f a, n)
    | Arrow (a, n) -> Arrow (f a, n)
    | Deref a -> Deref (f a)
    | ArrayLit es -> ArrayLit (List.map f es)
    | Cond (a, b, c) -> Cond (f a, f b, f c)
    | New a -> New (f a)
  in
  mk ~line:e.line ~col:e.col desc

(* [s] rebuilt with [fe] applied to each expression it holds and [ft] to
   each type it declares, through the statements inside it, in the order
   of {!map_expr}. *)
let rec map_stmt fe ft s =
  let ms = map_stmt fe ft in
  match s with
  | SExpr e -> SExpr (fe e)
  | SDecl (t, n, e) -> SDecl (ft t, n, Option.map fe e)
  | SIf (c, a, b) -> SIf (fe c, List.map ms a, List.map ms b)
  | SWhile (c, b) -> SWhile (fe c, List.map ms b)
  | SFor (i, c, st, b) ->
      SFor (Option.map ms i, Option.map fe c, Option.map fe st, List.map ms b)
  | SReturn e -> SReturn (Option.map fe e)
  | (SBreak | SContinue) as s -> s
  | SBlock b -> SBlock (List.map ms b)

(* [t] with each type variable bound in [s] replaced.  A solved unification
   variable is read through, and an unsolved one, which only an unused
   polymorphic result leaves, becomes int, as C would default it. *)
let rec subst_type s t =
  match t with
  | TVar v -> ( match List.assoc_opt v s with Some t' -> t' | None -> t)
  | TPtr t -> TPtr (subst_type s t)
  | TNamed (n, args) -> TNamed (n, List.map (subst_type s) args)
  | TFun (args, ret) -> TFun (List.map (subst_type s) args, subst_type s ret)
  | TMeta { contents = Link t } -> subst_type s t
  | TMeta { contents = Unbound _ } -> TInt
  | TInt | TFloat | TChar | TVoid | TString | TIndex | TBounds -> t
