(** Compile-to-closures execution engine ("translation by instantiation",
    paper section 4, carried out in process).

    {!program} runs once after typechecking (and normally after
    {!Instantiate.program}) and translates every function body into OCaml
    closures: lexical frame slots instead of assoc-list environments,
    positional struct fields, compile-time-specialized operators,
    pre-resolved call targets/arities, and unboxed runners for expressions
    of static type int or float.  The result is shared by all
    simulated processors; per-processor mutable context lives in the
    {!Interp.state} passed at call time.

    The engine charges exactly the same [pending_ops] per expression node
    and flushes at the same points as the reference interpreter, so
    printed output, return values, simulated makespans, Stats and traces
    are bit-identical between the two engines (enforced by
    the path matrix, [test/test_paths.ml]). *)

type t
(** A compiled program: closure code for every function with a body. *)

val program : tyenv:Typecheck.env -> Ast.program -> t
(** Compile a {e typechecked} program ([tyenv] must come from
    [Typecheck.check] on this exact AST — field-position annotations are
    read off the expression nodes).

    Saturated skeleton calls whose element type is statically int or
    double are specialised: their distributed arrays are stored as flat
    unboxed [int array]/[float array] partitions and their argument
    functions run as unboxed closures — the paper's "translation by
    instantiation" applied to the data plane.  Struct/pointer payloads and
    curried skeleton applications take the generic boxed path, with the
    same observable behaviour (output, values, makespans, Stats,
    traces). *)

val call : t -> Interp.state -> string -> Value.t list -> Value.t
(** Call a compiled function or builtin by name.  [st] must be built over
    the same program ({!Interp.make}); it carries the processor context,
    output buffer and pending-operation counter.  A call whose arguments do
    not match its int and float parameters runs on {!Interp}, with the
    same result. *)

val apply : t -> Interp.state -> Value.t -> Value.t list -> Value.t
(** Apply a (possibly curried) function value under the compiled engine,
    with {!call}'s check of the arguments. *)
