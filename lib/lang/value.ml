(* Runtime values of the Skil interpreter.  Structs have C value semantics
   (copied on assignment/parameter passing); Index literals behave as small
   value arrays; pointers are mutable cells created by new(). *)

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

(* Fields live at fixed positions (declaration order of the struct_def),
   flat in [s_vals]: a copy allocates one array and a field write is an
   array store.  [s_names] holds the struct_def's own field-name strings
   and is shared between copies, so the per-value payload is just the tag
   and the field values.  The compiled engine resolves field names to
   positions at compile time and checks them by physical equality with
   the definition's string; the reference interpreter searches
   [s_names]. *)
and vstruct = { s_tag : string; s_names : string array; s_vals : t array }

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
  | 1 -> [| a.(0) |]
  | 2 -> [| a.(0); a.(1) |]
  | 3 -> [| a.(0); a.(1); a.(2) |]
  | 4 -> [| a.(0); a.(1); a.(2); a.(3) |]
  | _ -> Array.copy a

(* C value semantics: copy structs (recursively) and Index arrays. *)
let rec copy = function
  | VStruct s -> VStruct { s with s_vals = copy_fields s.s_vals }
  | VIndex a -> VIndex (copy_ints a)
  | ( VUnit | VInt _ | VFloat _ | VStr _ | VChar _ | VBounds _ | VNull
    | VPtr _ | VFun _ | VDarray _ ) as v ->
      v

and copy_fields c =
  match Array.length c with
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
      Array.fold_left (fun acc v -> acc + wire_bytes v) 0 s.s_vals
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
  | VStruct s -> "<" ^ s.s_tag ^ ">"
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

(* Position of [name] in a struct's field vector, or -1. *)
let field_index s name =
  let n = Array.length s.s_names in
  let rec go i =
    if i >= n then -1
    else if String.equal s.s_names.(i) name then i
    else go (i + 1)
  in
  go 0

(* Position of [name] in a struct's field vector.
   @raise Skil_runtime_error when it has no such field. *)
let field_pos s name =
  let i = field_index s name in
  if i < 0 then rte "structure %s has no field %s" s.s_tag name else i
