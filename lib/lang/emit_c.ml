let runtime_header =
  String.concat "\n"
    [
      "/* skil_runtime.h — interface of the precompiled parallel runtime";
      "   (message-passing implementations of the section 3 skeletons,";
      "   built on Parix virtual topologies).  Generic skeletons are";
      "   instantiated per element type by the Skil compiler; the";
      "   array_*_<n> instances emitted alongside a program are produced";
      "   from these templates. */";
      "#ifndef SKIL_RUNTIME_H";
      "#define SKIL_RUNTIME_H";
      "";
      "typedef int *Index;   /* one value per array dimension */";
      "typedef struct { Index lowerBd; Index upperBd; } *Bounds;";
      "";
      "#define DISTR_DEFAULT 0";
      "#define DISTR_RING    1";
      "#define DISTR_TORUS2D 2";
      "";
      "/* per-element-type instances are generated; the generic templates";
      "   have the following shapes (T, T1, T2 stand for element types): */";
      "/* Tarray array_create (int dim, Index size, Index blocksize,";
      "                        Index lowerbd, T init_elem (Index),";
      "                        int distr);                              */";
      "/* void   array_destroy (Tarray a);                              */";
      "/* void   array_map (T2 map_f (T1, Index), T1array from,";
      "                     T2array to);                                */";
      "/* T2     array_fold (T2 conv_f (T1, Index),";
      "                      T2 fold_f (T2, T2), T1array a);            */";
      "/* void   array_copy (Tarray from, Tarray to);                   */";
      "/* void   array_broadcast_part (Tarray a, Index ix);             */";
      "/* void   array_permute_rows (Tarray from, int perm_f (int),";
      "                              Tarray to);                        */";
      "/* void   array_gen_mult (Tarray a, Tarray b, T gen_add (T, T),";
      "                          T gen_mult (T, T), Tarray c);          */";
      "/* Bounds array_part_bounds (Tarray a);                          */";
      "/* T      array_get_elem (Tarray a, Index ix);                   */";
      "/* void   array_put_elem (Tarray a, Index ix, T newval);         */";
      "";
      "extern int procId;   /* this processor's rank */";
      "extern int nProcs;   /* number of processors  */";
      "";
      "void print_int (int n);";
      "void print_float (float f);";
      "void print_string (char *s);";
      "void print_char (char c);";
      "void error (char *message);";
      "void *skil_new (/* value */);   /* boxing allocator behind new() */";
      "";
      "#endif /* SKIL_RUNTIME_H */";
      "";
    ]

let skeleton_names =
  [
    "array_create"; "array_destroy"; "array_map"; "array_fold"; "array_copy";
    "array_broadcast_part"; "array_permute_rows"; "array_gen_mult";
  ]

(* ---------------- type mangling ---------------- *)

let rec flat = function
  | Ast.TInt -> "int"
  | Ast.TFloat -> "float"
  | Ast.TChar -> "char"
  | Ast.TVoid -> "void"
  | Ast.TString -> "string"
  | Ast.TIndex -> "Index"
  | Ast.TBounds -> "Bounds"
  | Ast.TPtr t -> flat t ^ "p"
  | Ast.TVar v -> "T" ^ v
  | Ast.TMeta _ -> "int"
  | Ast.TFun _ -> "fn"
  | Ast.TNamed (n, []) -> strip n
  | Ast.TNamed (n, args) ->
      strip n ^ "_" ^ String.concat "_" (List.map flat args)

and strip n =
  match String.index_opt n ' ' with
  | Some i -> String.sub n (i + 1) (String.length n - i - 1)
  | None -> n

let rec mangle_type = function
  | Ast.TInt -> "int"
  | Ast.TFloat -> "float"
  | Ast.TChar -> "char"
  | Ast.TVoid -> "void"
  | Ast.TString -> "char *"
  | Ast.TIndex -> "Index"
  | Ast.TBounds -> "Bounds"
  | Ast.TPtr t -> mangle_type t ^ " *"
  | Ast.TVar v -> "/*$" ^ v ^ "*/void *"
  | Ast.TMeta _ -> "int"
  | Ast.TFun (_, _) -> "void *"
  | Ast.TNamed ("array", [ t ]) -> flat t ^ "array"
  | Ast.TNamed (n, []) -> n
  | Ast.TNamed (n, args) when String.length n > 7 && String.sub n 0 7 = "struct "
    ->
      "struct " ^ strip n ^ "_" ^ String.concat "_" (List.map flat args)
  | Ast.TNamed (n, args) -> n ^ "_" ^ String.concat "_" (List.map flat args)

(* ---------------- type-instance collection ---------------- *)

let rec collect_types acc t =
  match t with
  | Ast.TNamed (_, args) as t ->
      let acc = if List.mem t acc then acc else acc @ [ t ] in
      List.fold_left collect_types acc args
  | Ast.TPtr t -> collect_types acc t
  | Ast.TFun (args, ret) ->
      collect_types (List.fold_left collect_types acc args) ret
  | _ -> acc

let used_named_types program =
  let acc = ref [] in
  let add t = acc := collect_types !acc t in
  let decl = function Ast.SDecl (t, _, _) -> add t | _ -> () in
  List.iter
    (function
      | Ast.TFunc f ->
          add f.Ast.f_ret;
          List.iter (fun p -> add p.Ast.p_type) f.Ast.f_params;
          Option.iter (List.iter (Ast.iter_stmt ignore decl)) f.Ast.f_body
      | _ -> ())
    program;
  !acc

(* ---------------- standalone dialect ---------------- *)

(* C rendering for the standalone single-processor mode ({!standalone}):
   Skil [int] is 63-bit in the simulator, so it widens to a 64-bit C
   integer; Skil [float] literals and arithmetic are OCaml doubles, so it
   maps to [double] (the printed %g output then byte-matches).  Everything
   else follows {!mangle_type}. *)
let rec stype = function
  | Ast.TInt -> "skil_int"
  | Ast.TFloat -> "double"
  | Ast.TChar -> "char"
  | Ast.TVoid -> "void"
  | Ast.TString -> "const char *"
  | Ast.TIndex -> "Index"
  | Ast.TBounds -> "Bounds"
  | Ast.TPtr t -> stype t ^ " *"
  | Ast.TVar _ | Ast.TMeta _ -> "skil_int"
  | Ast.TFun (_, _) -> "void *"
  | Ast.TNamed ("array", [ t ]) -> flat t ^ "array"
  | Ast.TNamed (n, []) -> n
  | Ast.TNamed (n, args) when String.length n > 7 && String.sub n 0 7 = "struct "
    ->
      "struct " ^ strip n ^ "_" ^ String.concat "_" (List.map flat args)
  | Ast.TNamed (n, args) -> n ^ "_" ^ String.concat "_" (List.map flat args)

(* ---------------- expressions ---------------- *)

(* Structured record of one numbered skeleton instance, kept only in
   standalone mode where the instance *bodies* must be generated too. *)
type sfun =
  | SOp of string (* operator section, e.g. "+" *)
  | SFn of string * int (* callee and number of lifted arguments *)

type sinst = {
  si_name : string; (* array_map_1 *)
  si_skel : string; (* array_map *)
  si_funs : (int * sfun) list; (* functional argument positions *)
}

type smode = {
  mutable sinsts : sinst list;
  mutable sgeneric : string list; (* skeletons called with bare functions *)
}

type ectx = {
  buf : Buffer.t;
  mutable instances : (string * string) list; (* comment, signature line *)
  mutable counter : int;
  smode : smode option; (* Some: standalone dialect *)
}

let ctype ec t = match ec.smode with Some _ -> stype t | None -> mangle_type t

let float_literal f =
  let s = Printf.sprintf "%g" f in
  if String.contains s '.' || String.contains s 'e' || String.contains s 'n'
  then s
  else s ^ ".0"

let rec expr ec (e : Ast.expr) =
  match e.Ast.desc with
  | Ast.Int n -> string_of_int n
  | Ast.Float f -> float_literal f
  | Ast.Str s -> Printf.sprintf "%S" s
  | Ast.Chr c -> Printf.sprintf "%C" c
  | Ast.Var x -> x
  | Ast.OpSection op -> Printf.sprintf "(%s)" op
  | Ast.Call (f, args) -> call ec f args
  | Ast.Binop (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (expr ec a) op (expr ec b)
  | Ast.Unop (op, a) -> Printf.sprintf "(%s%s)" op (expr ec a)
  | Ast.Assign (l, r) -> Printf.sprintf "%s = %s" (expr ec l) (expr ec r)
  | Ast.Idx (a, i) -> Printf.sprintf "%s[%s]" (expr ec a) (expr ec i)
  | Ast.Field (a, f) -> Printf.sprintf "%s.%s" (expr ec a) f
  | Ast.Arrow (a, f) -> Printf.sprintf "%s->%s" (expr ec a) f
  | Ast.Deref a -> Printf.sprintf "(*%s)" (expr ec a)
  | Ast.ArrayLit es -> (
      let body = String.concat "," (List.map (expr ec) es) in
      (* Skil array literals only ever build Index values; as C function
         arguments they must be compound literals, which the historical
         translation leaves to the reader but a compilable program needs *)
      match ec.smode with
      | Some _ -> "(skil_int[]){" ^ body ^ "}"
      | None -> "{" ^ body ^ "}")
  | Ast.Cond (c, a, b) ->
      Printf.sprintf "(%s ? %s : %s)" (expr ec c) (expr ec a) (expr ec b)
  | Ast.New a -> Printf.sprintf "skil_new(%s)" (expr ec a)

(* Which argument positions of each skeleton are functional. *)
and functional_positions = function
  | "array_create" -> [ 4 ]
  | "array_map" -> [ 0 ]
  | "array_fold" -> [ 0; 1 ]
  | "array_permute_rows" -> [ 1 ]
  | "array_gen_mult" -> [ 2; 3 ]
  | _ -> []

(* A call of a skeleton whose functional arguments carry lifted data (i.e.
   partial applications) or operators becomes a numbered first-order
   instance with the lifted arguments in front — the paper's array_map_1
   example.  Bare function names stay as they are: those "could be simulated
   in C by passing pointers to functions" (section 2.1). *)
and call ec f args =
  match f.Ast.desc with
  | Ast.Var name when List.mem name skeleton_names ->
      let fpos = functional_positions name in
      let funarg i (a : Ast.expr) =
        if not (List.mem i fpos) then None
        else
          match a.Ast.desc with
          | Ast.OpSection op -> Some (Printf.sprintf "(%s)" op, [])
          | Ast.Call ({ Ast.desc = Ast.OpSection op; _ }, lifted) ->
              Some (Printf.sprintf "(%s)" op, lifted)
          | Ast.Call ({ Ast.desc = Ast.Var g; _ }, lifted) -> Some (g, lifted)
          | _ -> None
      in
      let descrs = List.mapi (fun i a -> (a, funarg i a)) args in
      let needs_instance =
        List.exists
          (function _, Some (g, lifted) -> lifted <> [] || g.[0] = '('
                  | _, None -> false)
          descrs
      in
      if not (needs_instance) then begin
        (match ec.smode with
        | Some m -> m.sgeneric <- name :: m.sgeneric
        | None -> ());
        plain_call ec (expr ec f) args
      end
      else begin
        ec.counter <- ec.counter + 1;
        let iname = Printf.sprintf "%s_%d" name ec.counter in
        let lifted_args =
          List.concat_map
            (function _, Some (_, lifted) -> List.map (expr ec) lifted
                    | _, None -> [])
            descrs
        in
        let data_args =
          List.filter_map
            (function _, Some _ -> None | a, None -> Some (expr ec a))
            descrs
        in
        ec.instances <-
          ( iname,
            Printf.sprintf "instance of %s with %s inlined" name
              (String.concat ", "
                 (List.filter_map
                    (function _, Some (g, _) -> Some g | _, None -> None)
                    descrs)) )
          :: ec.instances;
        (match ec.smode with
        | Some m ->
            let si_funs =
              List.concat
                (List.mapi
                   (fun i -> function
                     | _, Some (g, lifted) ->
                         let sf =
                           if g.[0] = '(' then
                             SOp (String.sub g 1 (String.length g - 2))
                           else SFn (g, List.length lifted)
                         in
                         [ (i, sf) ]
                     | _, None -> [])
                   descrs)
            in
            m.sinsts <- { si_name = iname; si_skel = name; si_funs } :: m.sinsts
        | None -> ());
        Printf.sprintf "%s (%s)" iname
          (String.concat ", " (lifted_args @ data_args))
      end
  | _ -> plain_call ec (expr ec f) args

and plain_call ec fstr args =
  Printf.sprintf "%s (%s)" fstr (String.concat ", " (List.map (expr ec) args))

(* ---------------- statements ---------------- *)

let rec stmt ec indent s =
  let pad = String.make indent ' ' in
  match s with
  | Ast.SExpr e -> pad ^ expr ec e ^ ";\n"
  | Ast.SDecl (t, n, init) ->
      pad ^ ctype ec t ^ " " ^ n
      ^ (match init with Some e -> " = " ^ expr ec e | None -> "")
      ^ ";\n"
  | Ast.SIf (c, a, []) ->
      pad ^ "if (" ^ expr ec c ^ ") {\n" ^ block ec (indent + 2) a ^ pad
      ^ "}\n"
  | Ast.SIf (c, a, b) ->
      pad ^ "if (" ^ expr ec c ^ ") {\n" ^ block ec (indent + 2) a ^ pad
      ^ "} else {\n" ^ block ec (indent + 2) b ^ pad ^ "}\n"
  | Ast.SWhile (c, b) ->
      pad ^ "while (" ^ expr ec c ^ ") {\n" ^ block ec (indent + 2) b ^ pad
      ^ "}\n"
  | Ast.SFor (i, c, stp, b) ->
      let istr =
        match i with
        | Some (Ast.SDecl (t, n, Some e)) ->
            ctype ec t ^ " " ^ n ^ " = " ^ expr ec e
        | Some (Ast.SExpr e) -> expr ec e
        | Some _ | None -> ""
      in
      pad ^ "for (" ^ istr ^ "; "
      ^ (match c with Some c -> expr ec c | None -> "")
      ^ "; "
      ^ (match stp with Some s -> expr ec s | None -> "")
      ^ ") {\n" ^ block ec (indent + 2) b ^ pad ^ "}\n"
  | Ast.SReturn None -> pad ^ "return;\n"
  | Ast.SReturn (Some e) -> pad ^ "return " ^ expr ec e ^ ";\n"
  | Ast.SBreak -> pad ^ "break;\n"
  | Ast.SContinue -> pad ^ "continue;\n"
  | Ast.SBlock b -> pad ^ "{\n" ^ block ec (indent + 2) b ^ pad ^ "}\n"

and block ec indent stmts = String.concat "" (List.map (stmt ec indent) stmts)

(* ---------------- program ---------------- *)

let find_struct program name =
  List.find_map
    (function
      | Ast.TStruct s when s.Ast.s_name = name -> Some s
      | _ -> None)
    program

let find_typedef program name =
  List.find_map
    (function
      | Ast.TTypedef td when td.Ast.td_name = name -> Some td
      | _ -> None)
    program

let emit_type_instances buf program =
  let used = used_named_types program in
  List.iter
    (fun t ->
      match t with
      | Ast.TNamed ("array", [ elem ]) ->
          Buffer.add_string buf
            (Printf.sprintf
               "typedef struct { /* hidden pardata implementation */ } \
                *%sarray;\n"
               (flat elem))
      | Ast.TNamed (n, args) -> (
          match find_struct program n with
          | Some sd when args <> [] ->
              let s =
                try List.combine sd.Ast.s_params args
                with Invalid_argument _ -> []
              in
              Buffer.add_string buf (mangle_type t ^ " {\n");
              List.iter
                (fun (ft, fname) ->
                  Buffer.add_string buf
                    ("  " ^ mangle_type (Ast.subst_type s ft) ^ " " ^ fname
                   ^ ";\n"))
                sd.Ast.s_fields;
              Buffer.add_string buf "};\n"
          | _ -> (
              match find_typedef program n with
              | Some td when args <> [] ->
                  let s =
                    try List.combine td.Ast.td_params args
                    with Invalid_argument _ -> []
                  in
                  Buffer.add_string buf
                    ("typedef "
                    ^ mangle_type (Ast.subst_type s td.Ast.td_type)
                    ^ " " ^ mangle_type t ^ ";\n")
              | _ -> ()))
      | _ -> ())
    used;
  Buffer.add_char buf '\n'

let program (prog : Ast.program) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "/* generated by the Skil compiler (translation by instantiation) */\n";
  Buffer.add_string buf "#include \"skil_runtime.h\"\n\n";
  emit_type_instances buf prog;
  let ec = { buf; instances = []; counter = 0; smode = None } in
  let bodies = Buffer.create 4096 in
  List.iter
    (function
      | Ast.TFunc f when f.Ast.f_body <> None ->
          let params =
            String.concat ", "
              (List.map
                 (fun p -> mangle_type p.Ast.p_type ^ " " ^ p.Ast.p_name)
                 f.Ast.f_params)
          in
          Buffer.add_string bodies
            (Printf.sprintf "%s %s (%s) {\n%s}\n\n"
               (mangle_type f.Ast.f_ret) f.Ast.f_name params
               (block ec 2 (Option.get f.Ast.f_body)))
      | _ -> ())
    prog;
  List.iter
    (fun (iname, comment) ->
      Buffer.add_string buf (Printf.sprintf "/* %s: %s */\n" iname comment))
    (List.rev ec.instances);
  Buffer.add_char buf '\n';
  Buffer.add_buffer buf bodies;
  Buffer.contents buf

(* ---------------- standalone single-processor mode ---------------- *)

(* Where {!program} prints the historical translation (skeleton bodies live
   in a precompiled runtime the reader does not see), {!standalone} emits a
   COMPLETE C program: the same instantiated Skil functions, plus a
   sequential (p = 1) implementation of every skeleton and builtin the
   program touches, the generated bodies of the numbered skeleton
   instances, and a [main] driver that runs the entry point and frames its
   output exactly like [skilc run-par --width 1 --height 1] — so compiling
   with [cc] and byte-diffing against the simulator closes the loop on the
   C back end. *)

let find_func prog name =
  List.find_map
    (function
      | Ast.TFunc f when f.Ast.f_name = name -> Some f
      | _ -> None)
    prog

let take k xs = List.filteri (fun i _ -> i < k) xs

(* [f] on every expression node of the program's bodies, parents first *)
let iter_bodies f prog =
  List.iter
    (function
      | Ast.TFunc { Ast.f_body = Some body; _ } ->
          List.iter (Ast.iter_stmt f ignore) body
      | _ -> ())
    prog

(* every name the program references (function heads and plain variables);
   [new] is recorded as its runtime hook skil_new *)
let program_names prog =
  let names = ref [] in
  let add x = if not (List.mem x !names) then names := x :: !names in
  iter_bodies
    (fun (e : Ast.expr) ->
      match e.Ast.desc with
      | Ast.Var x -> add x
      | Ast.New _ -> add "skil_new"
      | _ -> ())
    prog;
  !names

(* one functional slot of a skeleton instance: the C expression applying it
   to [actuals], with lifted arguments passed through instance parameters *)
let sapply pos sf actuals =
  match sf with
  | SFn (g, k) ->
      let lifted = List.init k (fun i -> Printf.sprintf "skil_l%d_%d" pos i) in
      Printf.sprintf "%s (%s)" g (String.concat ", " (lifted @ actuals))
  | SOp op -> (
      match actuals with
      | [ a; b ] -> Printf.sprintf "(%s %s %s)" a op b
      | [ a ] -> Printf.sprintf "(%s%s)" op a
      | _ -> invalid_arg "Emit_c.standalone: operator arity")

(* the lifted parameters an instance receives, typed from the callee's own
   (first-order, monomorphic) signature *)
let lifted_params prog (pos, sf) =
  match sf with
  | SOp _ -> []
  | SFn (_, 0) -> []
  | SFn (g, k) -> (
      match find_func prog g with
      | Some f ->
          List.mapi
            (fun i p ->
              Printf.sprintf "%s skil_l%d_%d" (stype p.Ast.p_type) pos i)
            (take k f.Ast.f_params)
      | None ->
          invalid_arg
            (Printf.sprintf
               "Emit_c.standalone: cannot lift arguments of builtin %s" g))

(* Emit one skeleton definition — a numbered instance, or (with
   [si_funs = []] and the skeleton's own name) the generic version taking
   function pointers.  The sequential semantics mirror the simulator at
   p = 1: row-major element order (last dimension fastest), left fold,
   accumulating generalized matrix product, inclusive upperBd. *)
let semit_skel buf prog ~celt ~carr { si_name; si_skel; si_funs } =
  let fnptr2 name = Printf.sprintf "%s (*%s) (%s, %s)" celt name celt celt in
  let data_specs =
    match si_skel with
    | "array_create" ->
        [
          (0, "dim", "skil_int dim");
          (1, "size", "Index size");
          (2, "blocksize", "Index blocksize");
          (3, "lowerbd", "Index lowerbd");
          (4, "init", Printf.sprintf "%s (*init) (Index)" celt);
          (5, "distr", "skil_int distr");
        ]
    | "array_map" ->
        [
          (0, "f", Printf.sprintf "%s (*f) (%s, Index)" celt celt);
          (1, "from", carr ^ " from");
          (2, "to", carr ^ " to");
        ]
    | "array_fold" ->
        [
          (0, "conv", Printf.sprintf "%s (*conv) (%s, Index)" celt celt);
          (1, "f", fnptr2 "f");
          (2, "a", carr ^ " a");
        ]
    | "array_gen_mult" ->
        [
          (0, "a", carr ^ " a");
          (1, "b", carr ^ " b");
          (2, "add", fnptr2 "add");
          (3, "mul", fnptr2 "mul");
          (4, "c", carr ^ " c");
        ]
    | "array_permute_rows" ->
        [
          (0, "from", carr ^ " from");
          (1, "perm", "skil_int (*perm) (skil_int)");
          (2, "to", carr ^ " to");
        ]
    | s -> invalid_arg ("Emit_c.standalone: no instance template for " ^ s)
  in
  let params =
    List.concat_map (lifted_params prog) si_funs
    @ List.filter_map
        (fun (pos, _, decl) ->
          if List.mem_assoc pos si_funs then None else Some decl)
        data_specs
  in
  let use pos actuals =
    match List.assoc_opt pos si_funs with
    | Some sf -> sapply pos sf actuals
    | None ->
        let _, name, _ = List.find (fun (p, _, _) -> p = pos) data_specs in
        Printf.sprintf "%s (%s)" name (String.concat ", " actuals)
  in
  let ret = match si_skel with
    | "array_create" -> carr
    | "array_fold" -> celt
    | _ -> "void"
  in
  Buffer.add_string buf
    (Printf.sprintf "static %s %s (%s) {\n" ret si_name
       (String.concat ", " params));
  (match si_skel with
  | "array_create" ->
      Buffer.add_string buf
        (Printf.sprintf
           "  %s a = skil_array_alloc (dim, size);\n\
            \  skil_int ix[4];\n\
            \  (void) blocksize; (void) lowerbd; (void) distr;\n\
            \  for (skil_int k = 0; k < a->count; k++) {\n\
            \    skil_index_of (a, k, ix);\n\
            \    a->data[k] = %s;\n\
            \  }\n\
            \  return a;\n"
           carr
           (use 4 [ "ix" ]))
  | "array_map" ->
      Buffer.add_string buf
        (Printf.sprintf
           "  skil_int ix[4];\n\
            \  for (skil_int k = 0; k < from->count; k++) {\n\
            \    skil_index_of (from, k, ix);\n\
            \    to->data[k] = %s;\n\
            \  }\n"
           (use 0 [ "from->data[k]"; "ix" ]))
  | "array_fold" ->
      Buffer.add_string buf
        (Printf.sprintf
           "  skil_int ix[4];\n\
            \  %s acc = 0;\n\
            \  int first = 1;\n\
            \  for (skil_int k = 0; k < a->count; k++) {\n\
            \    skil_index_of (a, k, ix);\n\
            \    %s v = %s;\n\
            \    acc = first ? v : %s;\n\
            \    first = 0;\n\
            \  }\n\
            \  return acc;\n"
           celt celt
           (use 0 [ "a->data[k]"; "ix" ])
           (use 1 [ "acc"; "v" ]))
  | "array_gen_mult" ->
      Buffer.add_string buf
        (Printf.sprintf
           "  skil_int n = a->size[0];\n\
            \  for (skil_int i = 0; i < n; i++)\n\
            \    for (skil_int k = 0; k < n; k++) {\n\
            \      %s aik = a->data[i * n + k];\n\
            \      for (skil_int j = 0; j < n; j++)\n\
            \        c->data[i * n + j] = %s;\n\
            \    }\n"
           celt
           (use 2
              [ "c->data[i * n + j]"; use 3 [ "aik"; "b->data[k * n + j]" ] ]))
  | "array_permute_rows" ->
      Buffer.add_string buf
        (Printf.sprintf
           "  skil_int n = from->size[0];\n\
            \  skil_int w = from->size[1];\n\
            \  for (skil_int r = 0; r < n; r++)\n\
            \    for (skil_int j = 0; j < w; j++)\n\
            \      to->data[%s * w + j] = from->data[r * w + j];\n"
           (use 1 [ "r" ]))
  | _ -> assert false);
  Buffer.add_string buf "}\n\n"

let semit_type_instances buf program =
  List.iter
    (fun t ->
      match t with
      | Ast.TNamed ("array", [ _ ]) -> () (* the embedded runtime's typedef *)
      | Ast.TNamed (n, args) -> (
          match find_struct program n with
          | Some sd when args <> [] ->
              let s =
                try List.combine sd.Ast.s_params args
                with Invalid_argument _ -> []
              in
              Buffer.add_string buf (stype t ^ " {\n");
              List.iter
                (fun (ft, fname) ->
                  Buffer.add_string buf
                    ("  " ^ stype (Ast.subst_type s ft) ^ " " ^ fname ^ ";\n"))
                sd.Ast.s_fields;
              Buffer.add_string buf "};\n"
          | _ -> (
              match find_typedef program n with
              | Some td when args <> [] ->
                  let s =
                    try List.combine td.Ast.td_params args
                    with Invalid_argument _ -> []
                  in
                  Buffer.add_string buf
                    ("typedef "
                    ^ stype (Ast.subst_type s td.Ast.td_type)
                    ^ " " ^ stype t ^ ";\n")
              | _ -> ()))
      | _ -> ())
    (used_named_types program)

let standalone (prog : Ast.program) ~entry ~args =
  if entry = "main" || find_func prog "main" <> None then
    invalid_arg
      "Emit_c.standalone: the program defines main, which collides with the \
       generated C driver (rename the entry function)";
  let names = program_names prog in
  let used n = List.mem n names in
  if used "skil_new" then
    invalid_arg "Emit_c.standalone: new() is not supported in standalone mode";
  (* the embedded runtime declares generic struct and typedef instances
     only: a plain one would be used undeclared *)
  List.iter
    (function
      | Ast.TNamed (n, []) when Option.is_some (find_struct prog n) ->
          invalid_arg
            (Printf.sprintf
               "Emit_c.standalone: %s is not supported in standalone mode \
                (only structs with type parameters are emitted)"
               n)
      | Ast.TNamed (n, []) when Option.is_some (find_typedef prog n) ->
          invalid_arg
            (Printf.sprintf
               "Emit_c.standalone: typedef %s is not supported in standalone \
                mode (only typedefs with type parameters are emitted)"
               n)
      | _ -> ())
    (used_named_types prog);
  let elems =
    List.sort_uniq compare
      (List.filter_map
         (function Ast.TNamed ("array", [ e ]) -> Some e | _ -> None)
         (used_named_types prog))
  in
  let elem =
    match elems with
    | [] -> Ast.TInt
    | [ e ] -> e
    | _ ->
        invalid_arg
          "Emit_c.standalone: arrays of more than one element type (the \
           embedded runtime is monomorphic)"
  in
  (match elem with
  | Ast.TInt | Ast.TFloat -> ()
  | _ ->
      invalid_arg
        "Emit_c.standalone: only int and float array elements are supported");
  (* the embedded fold keeps the element type for its accumulator *)
  let conv_func (c : Ast.expr) =
    match c.Ast.desc with
    | Ast.Var g | Ast.Call ({ Ast.desc = Ast.Var g; _ }, _) -> find_func prog g
    | _ -> None
  in
  iter_bodies
    (fun (e : Ast.expr) ->
      match e.Ast.desc with
      | Ast.Call ({ Ast.desc = Ast.Var "array_fold"; _ }, conv :: _) -> (
          match conv_func conv with
          | Some f when f.Ast.f_ret <> elem ->
              invalid_arg
                (Printf.sprintf
                   "Emit_c.standalone: array_fold with %s accumulating %s \
                    into %s is not supported (the embedded fold keeps the \
                    element type)"
                   f.Ast.f_name (Ast.type_to_string elem)
                   (Ast.type_to_string f.Ast.f_ret))
          | _ -> ())
      | _ -> ())
    prog;
  let celt = stype elem in
  let carr = flat elem ^ "array" in
  (* walk the bodies first: instances and generic-skeleton usage drive what
     the embedded runtime must contain *)
  let m = { sinsts = []; sgeneric = [] } in
  let ec =
    { buf = Buffer.create 256; instances = []; counter = 0; smode = Some m }
  in
  let bodies = Buffer.create 4096 in
  let protos = Buffer.create 512 in
  List.iter
    (function
      | Ast.TFunc f when f.Ast.f_body <> None ->
          let params =
            String.concat ", "
              (List.map
                 (fun p -> stype p.Ast.p_type ^ " " ^ p.Ast.p_name)
                 f.Ast.f_params)
          in
          let head =
            Printf.sprintf "%s %s (%s)" (stype f.Ast.f_ret) f.Ast.f_name params
          in
          Buffer.add_string protos (Printf.sprintf "static %s;\n" head);
          Buffer.add_string bodies
            (Printf.sprintf "%s {\n%s}\n\n" head
               (block ec 2 (Option.get f.Ast.f_body)))
      | _ -> ())
    prog;
  let buf = Buffer.create 8192 in
  let out s = Buffer.add_string buf s in
  out
    "/* generated by the Skil compiler — standalone single-processor build\n\
    \   (sequential skeleton runtime embedded; output matches\n\
    \   skilc run-par --width 1 --height 1) */\n";
  out "#include <stdio.h>\n#include <stdlib.h>\n";
  if used "sqrt" || used "fabs" then out "#include <math.h>\n";
  out "\n";
  out "typedef long long skil_int; /* Skil int is wider than 32 bits */\n";
  out "typedef skil_int *Index;\n";
  out "typedef struct { Index lowerBd; Index upperBd; } *Bounds;\n\n";
  out "#define DISTR_DEFAULT 0\n#define DISTR_RING 1\n#define DISTR_TORUS2D 2\n";
  out "#define procId ((skil_int) 0)\n#define nProcs ((skil_int) 1)\n";
  if used "int_max" then
    (* the simulator's max_int / 4, chosen so int_max + weight cannot
       overflow (shortest paths' infinity) *)
    out "#define int_max 1152921504606846975LL\n";
  if used "abs" then out "#define abs skil_abs\n";
  if used "log2" then out "#define log2 skil_log2\n";
  out "\n";
  out "static int skil_printed = 0;\n";
  let any_print =
    used "print_int" || used "print_float" || used "print_string"
    || used "print_char"
  in
  if any_print then
    out
      "static void skil_mark (void) {\n\
      \  if (!skil_printed) { fputs (\"[proc 0] \", stdout); skil_printed = \
       1; }\n\
       }\n";
  if used "print_int" then
    out
      "static void print_int (skil_int n) { skil_mark (); printf (\"%lld\", \
       n); }\n";
  if used "print_float" then
    out
      "static void print_float (double f) { skil_mark (); printf (\"%g\", f); \
       }\n";
  if used "print_string" then
    out
      "static void print_string (const char *s) { skil_mark (); fputs (s, \
       stdout); }\n";
  if used "print_char" then
    out "static void print_char (char c) { skil_mark (); putchar (c); }\n";
  if used "error" then
    out
      "static void error (const char *m) { fprintf (stderr, \"skil: %s\\n\", \
       m); exit (1); }\n";
  if used "min" then
    out
      (Printf.sprintf "static %s min (%s a, %s b) { return a <= b ? a : b; }\n"
         celt celt celt);
  if used "max" then
    out
      (Printf.sprintf "static %s max (%s a, %s b) { return a >= b ? a : b; }\n"
         celt celt celt);
  if used "abs" then
    out "static skil_int skil_abs (skil_int n) { return n < 0 ? -n : n; }\n";
  if used "log2" then
    out
      "static skil_int skil_log2 (skil_int n) { /* ceiling log2, log2(1) = 0 \
       */\n\
      \  skil_int k = 0, pow = 1;\n\
      \  while (pow < n) { k++; pow *= 2; }\n\
      \  return k;\n\
       }\n";
  if used "itof" then
    out "static double itof (skil_int n) { return (double) n; }\n";
  if used "ftoi" then
    out "static skil_int ftoi (double f) { return (skil_int) f; }\n";
  out "\n";
  let any_array =
    elems <> []
    && List.exists (fun n -> String.length n > 6 && String.sub n 0 6 = "array_")
         names
  in
  if any_array then begin
    out
      (Printf.sprintf
         "/* the runtime's hidden pardata implementation at p = 1: the whole\n\
         \   array is the local partition, stored row-major (last dimension\n\
         \   fastest), exactly the simulator's element order */\n\
          struct skil_array { skil_int dim; skil_int size[4]; skil_int \
          count; %s *data; };\n\
          typedef struct skil_array *%s;\n\n"
         celt carr);
    out
      (Printf.sprintf
         "static %s skil_array_alloc (skil_int dim, Index size) {\n\
         \  %s a = malloc (sizeof *a);\n\
         \  a->dim = dim;\n\
         \  a->count = 1;\n\
         \  for (skil_int d = 0; d < dim; d++) { a->size[d] = size[d]; \
          a->count *= size[d]; }\n\
         \  a->data = malloc ((size_t) (a->count ? a->count : 1) * sizeof \
          *a->data);\n\
         \  return a;\n\
          }\n"
         carr carr);
    out
      (Printf.sprintf
         "static skil_int skil_offset (%s a, Index ix) {\n\
         \  skil_int off = 0;\n\
         \  for (skil_int d = 0; d < a->dim; d++) off = off * a->size[d] + \
          ix[d];\n\
         \  return off;\n\
          }\n"
         carr);
    out
      (Printf.sprintf
         "static void skil_index_of (%s a, skil_int k, Index ix) {\n\
         \  for (skil_int d = a->dim - 1; d >= 0; d--) { ix[d] = k %% \
          a->size[d]; k /= a->size[d]; }\n\
          }\n\n"
         carr);
    if used "array_destroy" then
      out
        (Printf.sprintf
           "static void array_destroy (%s a) { free (a->data); free (a); }\n"
           carr);
    if used "array_copy" then
      out
        (Printf.sprintf
           "static void array_copy (%s from, %s to) {\n\
           \  for (skil_int k = 0; k < from->count; k++) to->data[k] = \
            from->data[k];\n\
            }\n"
           carr carr);
    if used "array_broadcast_part" then
      out
        (Printf.sprintf
           "static void array_broadcast_part (%s a, Index ix) {\n\
           \  (void) a; (void) ix; /* single processor: the owner is us */\n\
            }\n"
           carr);
    if used "array_part_bounds" then
      out
        (Printf.sprintf
           "static Bounds array_part_bounds (%s a) {\n\
           \  Bounds b = malloc (sizeof *b);\n\
           \  b->lowerBd = calloc ((size_t) a->dim, sizeof (skil_int));\n\
           \  b->upperBd = malloc ((size_t) a->dim * sizeof (skil_int));\n\
           \  for (skil_int d = 0; d < a->dim; d++) b->upperBd[d] = \
            a->size[d] - 1; /* inclusive */\n\
           \  return b;\n\
            }\n"
           carr);
    if used "array_get_elem" then
      out
        (Printf.sprintf
           "static %s array_get_elem (%s a, Index ix) { return \
            a->data[skil_offset (a, ix)]; }\n"
           celt carr);
    if used "array_put_elem" then
      out
        (Printf.sprintf
           "static void array_put_elem (%s a, Index ix, %s v) { \
            a->data[skil_offset (a, ix)] = v; }\n"
           celt carr);
    out "\n";
    (* generic (function-pointer) versions, only where a call passes bare
       function names; instanced call sites get their own bodies below *)
    List.iter
      (fun skel ->
        if List.mem skel m.sgeneric then
          semit_skel buf prog ~celt ~carr
            { si_name = skel; si_skel = skel; si_funs = [] })
      [
        "array_create"; "array_map"; "array_fold"; "array_gen_mult";
        "array_permute_rows";
      ]
  end;
  semit_type_instances buf prog;
  Buffer.add_buffer buf protos;
  out "\n";
  List.iter (semit_skel buf prog ~celt ~carr) (List.rev m.sinsts);
  Buffer.add_buffer buf bodies;
  out
    (Printf.sprintf
       "int main (void) {\n\
       \  %s (%s);\n\
       \  if (skil_printed) putchar ('\\n');\n\
       \  return 0;\n\
        }\n"
       entry
       (String.concat ", " (List.map string_of_int args)));
  Buffer.contents buf
