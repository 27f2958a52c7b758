(** Back-end: pretty-print an instantiated (first-order, monomorphic) Skil
    program as the message-passing C the paper's compiler would hand to the
    C back end.

    Polymorphic named types are mangled to monomorphic C names
    ([array<float>] becomes [floatarray], [struct _list<int>] becomes
    [struct _list_int], ...), the struct/typedef instances used by the
    program are emitted first, and each call of a skeleton with functional
    arguments is rewritten to a numbered instance with its lifted arguments
    in front — the paper's [array_map (above_thresh (t), A, B)] to
    [array_map_1 (t, A, B)] transformation.  The skeleton instance bodies
    themselves live in the runtime library, as in the paper. *)

val program : Ast.program -> string

val standalone : Ast.program -> entry:string -> args:int list -> string
(** A {e complete} single-processor C program for the same instantiated
    input: the translated Skil functions of {!program}, plus a sequential
    (p = 1) implementation of every skeleton and builtin the program uses,
    generated bodies for the numbered skeleton instances (lifted arguments
    become leading parameters), and a [main] driver calling [entry] on the
    integer [args].  Skil [int] widens to a 64-bit C integer and [float]
    to [double], array literals become compound literals, and the driver
    frames output as ["[proc 0] ..."] — so the compiled binary's stdout
    byte-matches [skilc run-par --width 1 --height 1] for every
    deterministic program the mode accepts.  Raises [Invalid_argument],
    naming the construct, for programs it cannot close: a function named
    [main], [new ()], arrays of more than one element type, non-scalar
    array elements, a struct or typedef without type parameters, or an
    [array_fold] whose accumulator type is not the element type. *)

val mangle_type : Ast.typ -> string
(** C rendering of a monomorphic type. *)

val runtime_header : string
(** The [skil_runtime.h] every emitted program includes: the Parix-backed
    skeleton interface of section 3 (as the paper puts it, the skeletons
    "contain the parallel code, e.g. based on message-passing" and are
    linked in precompiled form). *)
