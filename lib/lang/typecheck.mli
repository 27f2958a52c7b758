(** Polymorphic type checking for Skil (paper section 2.2).

    Functions are polymorphic in their [$t] variables; call sites instantiate
    them with fresh unification variables, and partial application is typed
    by currying ("the application of an n-ary function as a successive
    application of unary functions").  Checking also {e annotates} the AST in
    place: every [Var] node that references a polymorphic function gets its
    resolved instantiation recorded in [inst], which is what the
    translation-by-instantiation pass consumes. *)

exception Type_error of { line : int; col : int; message : string }
(** [line]/[col] point at the first token of the offending expression;
    both are [0] when the check has no source anchor. *)

type scheme = {
  sch_vars : string list;  (** the $-variables, rigid inside the body *)
  sch_params : Ast.typ list;
  sch_ret : Ast.typ;
}

type env

val check : Ast.program -> env
(** Check a whole program.  @raise Type_error on the first error. *)

val function_scheme : env -> string -> scheme option
(** User-defined or builtin function/constant. *)

val struct_def : env -> string -> Ast.struct_def option
val is_pardata : env -> string -> bool

val expand : env -> Ast.typ -> Ast.typ
(** Resolve typedefs and follow unification links (one level). *)

val builtin_scheme : string -> scheme option
(** The scheme of a builtin: the skeleton interface of paper section 3 plus
    a small C runtime (print functions, min/max, NULL, the DISTR_*
    constants, ...).  O(1): the execution engines look one up on every
    unbound identifier and curried apply. *)

val is_builtin : string -> bool

val builtin_arity : string -> int option
(** Number of parameters of a builtin, when [name] is one. *)
