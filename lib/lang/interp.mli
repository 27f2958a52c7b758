(** Reference tree-walking evaluator for Skil (paper section 2.3 semantics).

    This is the {e specification} engine: it walks the typed AST directly,
    supporting the full language incl. higher-order functions, currying,
    partial application and operator sections — so it can execute both
    source programs and the first-order output of the instantiation pass.
    The production engine ({!Compile}) translates each function body once
    into OCaml closures and must agree with this interpreter bit-for-bit —
    on printed output, return values, and simulated clocks.  To make that
    tractable the two engines share one {!state}, one charging hook
    ({!flush_scalar}) and one builtin/skeleton dispatcher ({!builtin});
    only expression/statement traversal differs.

    Sequential-work accounting: every expression node evaluated bumps
    [pending_ops]; {!flush_scalar} converts the pending count into simulated
    Scalar seconds before each statement and before any skeleton call.

    The skeleton builtins of paper section 3 need a simulated machine
    context; they are available when the state is created with [`Par ctx]
    (see {!Spmd}) and raise {!Value.Skil_runtime_error} in sequential
    mode. *)

type state = {
  funcs : (string, Ast.func) Hashtbl.t;  (** user functions with bodies *)
  tyenv : Typecheck.env;
  backend : [ `Seq | `Par of Machine.ctx ];
  meter : Machine.meter;  (** how {!flush_scalar} charges this rank *)
  buf : Buffer.t;  (** accumulated print_* output of this processor *)
  mutable pending_ops : int;
      (** expression nodes since the last {!flush_scalar} *)
  flat : bool;
      (** whether struct values keep their int and float fields unboxed *)
  layouts : (string, Value.sdef) Hashtbl.t;
      (** each struct type's layout, by struct name (see {!layout}) *)
}

exception Return_exc of Value.t
exception Break_exc
exception Continue_exc

val make :
  ?backend:[ `Seq | `Par of Machine.ctx ] ->
  ?flat:bool ->
  tyenv:Typecheck.env ->
  Ast.program ->
  state
(** [flat] (default [false]) gives the structs this state makes the flat
    layout of {!layout}; the reference interpreter keeps every field
    boxed. *)

val call : state -> string -> Value.t list -> Value.t
(** Invoke a program function (or builtin) by name.  Partial application
    returns a function value. *)

val apply : state -> Value.t -> Value.t list -> Value.t
(** Apply a function value (used by skeleton callbacks), C-curry style:
    missing arguments yield a closure, surplus arguments re-apply the
    result. *)

val output : state -> string
(** Everything printed through the print_* builtins so far. *)

val default_value : state -> Ast.typ -> Value.t
(** The C zero value of a type (what uninitialized locals start as).  The
    one constructor of struct values: each gets its type's {!layout}. *)

val layout : state -> string -> Ast.struct_def -> Value.sdef
(** The layout of the named struct in this state, made once and shared by
    every value of the type: in a [flat] state the int and float fields of
    a struct without type parameters are unboxed, and every other field is
    boxed. *)

(** {1 Shared engine glue}

    Used by {!Compile}; keeping a single implementation of charging,
    builtins and operators is what makes the engines' simulated clocks and
    Stats bit-identical. *)

val flush_scalar : state -> unit
(** Charge [pending_ops] expression nodes as Scalar work through the
    state's {!Machine.meter} (no-op cost-wise under [`Seq]) and reset the
    counter.  A simulated run without tracing or a fault plan adds to the
    clock inline; see {!Machine.type-meter} for the other cases. *)

val ctx_of : state -> Machine.ctx
(** The simulated machine context of a [`Par] state.
    @raise Value.Skil_runtime_error under [`Seq]. *)

val distr_of : int -> Darray.distr
(** Decode a [DISTR_*] constant into a distribution scheme. *)

(** Payload-kind dispatchers over {!Value.darray}: one generic fallback
    shared by both engines for local array access (the compiled engine's
    specialised call sites use them to skip the string-keyed [builtin]
    dispatch).  Boxing/unboxing at the boundary keeps behaviour identical
    whatever the payload representation. *)

val get_elem_array : Machine.ctx -> Value.darray -> Index.t -> Value.t
val put_elem_array : Machine.ctx -> Value.darray -> Index.t -> Value.t -> unit
val part_bounds_array : Machine.ctx -> Value.darray -> Index.bounds

val permute_arrays :
  Machine.ctx -> Value.darray -> (int -> int) -> Value.darray -> unit
(** [array_permute_rows] over a row permutation: generic elements are
    copied as they move. *)

val builtin :
  state ->
  apply:(Value.t -> Value.t list -> Value.t) ->
  string ->
  Value.t list ->
  Value.t
(** Dispatch a builtin or skeleton call.  [apply] invokes functional
    arguments (the customizing functions of section 3 skeletons) and is
    supplied by the calling engine.  Flushes pending scalar work before any
    [array_*] collective. *)

val constant : state -> string -> Value.t option
(** Predefined constants: [procId], [nProcs], [int_max], [NULL], the
    [DISTR_*] codes.  Resolved before user functions and builtins. *)

val is_constant : string -> bool
(** Whether {!constant} would answer for this name (engine-independent). *)

val binop : string -> Value.t -> Value.t -> Value.t
(** Binary operator by name (no short-circuit forms). *)

val arith : string -> Value.t -> Value.t -> Value.t

val compare_values : Value.t -> Value.t -> int
(** Ordering on scalars.  @raise Value.Skil_runtime_error on pointers,
    which admit only equality. *)

val equal_values : Value.t -> Value.t -> bool
(** Structural equality on scalars, physical equality on pointers. *)

val bounds_field : Index.bounds -> string -> Value.t

val split_at : int -> 'a list -> 'a list * 'a list
(** [split_at k xs] splits off the first [k] elements in one pass. *)
