(* Runtime values of the Skil interpreter.  Structs have C value semantics
   (copied on assignment/parameter passing); Index literals behave as small
   value arrays; pointers are mutable cells created by new(). *)

(* Where a scalar lives once its static type is known: an int or float
   one unboxed in an [int array] or a [float array], anything else as a
   boxed [t].  The compiled engine's frame cells and struct fields both
   use it. *)
type kind = Kint | Kfloat | Kbox

type t =
  | VUnit
  | VInt of int
  | VFloat of float
  | VStr of string
  | VChar of char
  | VIndex of int array
  | VBounds of Index.bounds
  | VNull
  | VPtr of t ref
  | VStruct of vstruct
  | VFun of vfun
  | VDarray of darray

(* Distributed-array payloads.  After typecheck + instantiation the element
   type of every frontend pardata is statically known, so the compiled
   engine's specialised call sites store int/double elements unboxed in
   flat [int array]/[float array] partitions — the paper's "translation by
   instantiation" carried into the data plane.  [DGen] keeps boxed [t]
   elements: it is the representation for struct/pointer payloads, for
   arrays created through curried fallback paths, and for everything the
   reference interpreter creates. *)
and darray =
  | DGen of t Darray.t
  | DInt of int Darray.t
  | DFloat of float Darray.t

(* A struct value is its layout and three flat arrays of fields: the int
   fields unboxed in [s_ints], the float fields in [s_flts], and every
   other field boxed in [s_vals].  A copy allocates the non-empty arrays
   (an empty one is the shared [[||]]), and a field write is one store,
   with no box and, for an int or float field, no write barrier. *)
and vstruct = {
  s_def : sdef;
  s_vals : t array;
  s_ints : int array;
  s_flts : float array;
}

(* A struct type's layout, made once per type and program and shared by
   every value and copy of that type.  Field [i] (declaration order) is
   named [d_names.(i)], the definition's own string, and lives at
   [d_slots.(i)] in the array of its kind [d_kinds.(i)].  The reference
   interpreter keeps every field boxed; the compiled engine resolves a
   field to its kind and slot at compile time and checks that a value has
   the layout it compiled against by one physical comparison. *)
and sdef = {
  d_tag : string;
  d_names : string array;
  d_kinds : kind array;
  d_slots : int array;
}

and vfun = {
  fv_target : [ `User of string | `Builtin of string | `Op of string ];
  fv_applied : t list; (* arguments supplied so far (currying) *)
}

exception Skil_runtime_error of string

let rte fmt = Printf.ksprintf (fun m -> raise (Skil_runtime_error m)) fmt

(* Copies of Index vectors and struct fields.  Up to four elements are
   allocated inline: [Array.copy] and [Array.map] are C calls, and the
   short vectors of Index values and small structs are what element
   functions pass around. *)
let copy_ints (a : int array) =
  match Array.length a with
  | 0 -> a
  | 1 -> [| a.(0) |]
  | 2 -> [| a.(0); a.(1) |]
  | 3 -> [| a.(0); a.(1); a.(2) |]
  | 4 -> [| a.(0); a.(1); a.(2); a.(3) |]
  | _ -> Array.copy a

let copy_floats (a : float array) =
  match Array.length a with
  | 0 -> a
  | 1 -> [| a.(0) |]
  | 2 -> [| a.(0); a.(1) |]
  | 3 -> [| a.(0); a.(1); a.(2) |]
  | _ -> Array.copy a

(* C value semantics: copy structs (recursively) and Index arrays. *)
let rec copy = function
  | VStruct s -> VStruct (copy_struct s)
  | VIndex a -> VIndex (copy_ints a)
  | ( VUnit | VInt _ | VFloat _ | VStr _ | VChar _ | VBounds _ | VNull
    | VPtr _ | VFun _ | VDarray _ ) as v ->
      v

(* Only boxed fields copy field by field. *)
and copy_struct s =
  {
    s_def = s.s_def;
    s_vals = copy_fields s.s_vals;
    s_ints = copy_ints s.s_ints;
    s_flts = copy_floats s.s_flts;
  }

and copy_fields c =
  match Array.length c with
  | 0 -> c
  | 1 -> [| copy c.(0) |]
  | 2 ->
      let c0 = copy c.(0) in
      [| c0; copy c.(1) |]
  | 3 ->
      let c0 = copy c.(0) in
      let c1 = copy c.(1) in
      [| c0; c1; copy c.(2) |]
  | 4 ->
      let c0 = copy c.(0) in
      let c1 = copy c.(1) in
      let c2 = copy c.(2) in
      [| c0; c1; c2; copy c.(3) |]
  | _ -> Array.map copy c

(* Wire size of a value in the paper's 1996 C representation: 4-byte ints
   and floats, 1-byte chars, structs as the sum of their fields (matching
   Gauss's elemrec = 12 bytes).  Used to charge collectives whose payload
   type is only known at run time (array_fold's accumulator). *)
let rec wire_bytes = function
  | VUnit | VNull -> 0
  | VInt _ | VFloat _ -> 4
  | VChar _ -> 1
  | VStr s -> String.length s
  | VIndex a -> 4 * Array.length a
  | VBounds b -> 8 * Array.length b.Index.lower
  | VPtr r -> wire_bytes !r
  | VStruct s ->
      Array.fold_left
        (fun acc v -> acc + wire_bytes v)
        (4 * (Array.length s.s_ints + Array.length s.s_flts))
        s.s_vals
  | VFun _ | VDarray _ -> 4 (* handles; never meaningfully serialized *)

let describe = function
  | VUnit -> "void"
  | VInt n -> string_of_int n
  | VFloat f -> Printf.sprintf "%g" f
  | VStr s -> Printf.sprintf "%S" s
  | VChar c -> Printf.sprintf "%C" c
  | VIndex a ->
      "{"
      ^ String.concat "," (Array.to_list (Array.map string_of_int a))
      ^ "}"
  | VBounds b -> Format.asprintf "%a" Index.pp_bounds b
  | VNull -> "NULL"
  | VPtr _ -> "<pointer>"
  | VStruct s -> "<" ^ s.s_def.d_tag ^ ">"
  | VFun f ->
      let name =
        match f.fv_target with
        | `User n | `Builtin n -> n
        | `Op op -> "(" ^ op ^ ")"
      in
      Printf.sprintf "<fun %s/%d>" name (List.length f.fv_applied)
  | VDarray _ -> "<array>"

let truthy = function
  | VInt 0 | VNull -> false
  | VInt _ | VPtr _ -> true
  | VFloat f -> f <> 0.0
  | VChar c -> c <> '\000'
  | v -> rte "condition is not a scalar (%s)" (describe v)

let as_int = function
  | VInt n -> n
  | VChar c -> Char.code c
  | v -> rte "expected an int, got %s" (describe v)

let as_float = function
  | VFloat f -> f
  | v -> rte "expected a float, got %s" (describe v)

let as_index = function
  | VIndex a -> a
  | v -> rte "expected an Index, got %s" (describe v)

let as_darray = function
  | VDarray a -> a
  | v -> rte "expected a distributed array, got %s" (describe v)

let as_fun = function
  | VFun f -> f
  | v -> rte "expected a function, got %s" (describe v)

(* Slots of each kind are numbered from 0 in their own array: the next
   [kind] slot, counting in [n] indexed Kbox, Kint, Kfloat *)
let new_slot n kind =
  let i = match kind with Kbox -> 0 | Kint -> 1 | Kfloat -> 2 in
  let c = n.(i) in
  n.(i) <- c + 1;
  c

(* A layout for struct [tag] whose fields [names] live in arrays of the
   given [kinds]: each field's slot counts the fields of its kind before
   it. *)
let make_def tag names kinds =
  let n = [| 0; 0; 0 |] in
  {
    d_tag = tag;
    d_names = names;
    d_kinds = kinds;
    d_slots = Array.map (new_slot n) kinds;
  }

(* A value of this layout with every field zero: [0], [0.0], or [VUnit]
   for a boxed field until its zero value is stored. *)
let zero_struct d =
  let count k =
    Array.fold_left (fun c k' -> if k' = k then c + 1 else c) 0 d.d_kinds
  in
  {
    s_def = d;
    s_vals = Array.make (count Kbox) VUnit;
    s_ints = Array.make (count Kint) 0;
    s_flts = Array.make (count Kfloat) 0.0;
  }

(* Position of [name] among the fields of layout [d], or -1. *)
let field_index d name =
  let n = Array.length d.d_names in
  let rec go i =
    if i >= n then -1
    else if String.equal d.d_names.(i) name then i
    else go (i + 1)
  in
  go 0

(* Position of [name] among a struct's fields.
   @raise Skil_runtime_error when it has no such field. *)
let field_pos s name =
  let i = field_index s.s_def name in
  if i < 0 then rte "structure %s has no field %s" s.s_def.d_tag name else i

(* Field [i] of a struct of any layout, read and written as a value:
   the by-name path both engines share. *)
let get_field s i =
  let d = s.s_def in
  let c = d.d_slots.(i) in
  match d.d_kinds.(i) with
  | Kbox -> s.s_vals.(c)
  | Kint -> VInt s.s_ints.(c)
  | Kfloat -> VFloat s.s_flts.(c)

let set_field s i v =
  let d = s.s_def in
  let c = d.d_slots.(i) in
  match d.d_kinds.(i) with
  | Kbox -> s.s_vals.(c) <- v
  | Kint -> s.s_ints.(c) <- as_int v
  | Kfloat -> s.s_flts.(c) <- as_float v
