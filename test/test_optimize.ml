(* The skeleton-fusion optimizer (Optimize, --optimize fuse) must be
   unobservable in values: for every program the fused run prints the
   same bytes and returns the same values as the unoptimized one, on
   both engines.  The path matrix (test_paths.ml) checks the corpus,
   including that fusion charges no more operations (strictly fewer on
   the apps with fusable pipelines) and that skilc's --optimize none
   prints the default's bytes; here random programs and the purity
   analysis are checked through the matrix's agreement function.

   Also here: the frontend bugfix sweep regressions — purity analysis
   refusing to fuse an impure argument function, and line/column
   positions on lexer, parser and typechecker diagnostics. *)

(* ---------------- random programs: fusion is unobservable ------------- *)

open QCheck2.Gen

(* Random monomorphic skeleton programs with nested map chains (both the
   in-place c = b shape and through a dead intermediate), a counted loop
   around a map, and a map feeding a fold — the shapes the optimizer
   rewrites — plus constant and index-dependent initialisers so the
   create-const folding sometimes fires and sometimes must not. *)
let gen_fusable =
  oneofl [ Test_specialize.I; Test_specialize.F ] >>= fun ty ->
  let tname = match ty with Test_specialize.I -> "int" | _ -> "float" in
  int_range 4 8 >>= fun n ->
  int_range 1 3 >>= fun iters ->
  bool >>= fun const_init ->
  bool >>= fun inplace ->
  let ix0 = match ty with
    | Test_specialize.I -> "ix[0]"
    | _ -> "itof(ix[0])"
  in
  Test_specialize.expr ty 2 [ ix0 ] >>= fun init_e ->
  Test_specialize.lit ty >>= fun const_e ->
  Test_specialize.expr ty 2 [ "c"; "elem"; ix0 ] >>= fun f_e ->
  Test_specialize.expr ty 2 [ "elem" ] >>= fun g_e ->
  Test_specialize.expr ty 1 [ "elem" ] >>= fun conv_e ->
  oneofl [ "a + b"; "min(a, b)"; "max(a, b)" ] >>= fun merge_e ->
  Test_specialize.lit ty >|= fun cval ->
  let init_body = if const_init then const_e else init_e in
  let chain =
    if inplace then
      (* map o map fused in place: no liveness argument needed *)
      Printf.sprintf
        "    array_map(f(%s), a, b);\n    array_map(g, b, b);" cval
    else
      (* through t, which dies right after: fused once t is provably dead *)
      Printf.sprintf
        "    array_map(f(%s), a, t);\n    array_map(g, t, b);" cval
  in
  Printf.sprintf
    {|
%s init(Index ix) { return %s; }
%s f(%s c, %s elem, Index ix) { return %s; }
%s g(%s elem, Index ix) { return %s; }
%s conv(%s elem, Index ix) { return %s; }
%s merge(%s a, %s b) { return %s; }
void main() {
  array<%s> a;
  array<%s> b;
  array<%s> t;
  a = array_create(1, {%d}, {0}, {-1}, init, DISTR_DEFAULT);
  b = array_create(1, {%d}, {0}, {-1}, init, DISTR_DEFAULT);
  t = array_create(1, {%d}, {0}, {-1}, init, DISTR_DEFAULT);
  for (int it = 0; it < (%d + 1); it++) {
%s
  }
  array<%s> fr = array_create(1, {%d}, {0}, {-1}, init, DISTR_DEFAULT);
  array_map(g, b, fr);
  %s r = array_fold(conv, merge, fr);
  print_%s(r);
  array_destroy(fr);
  array_destroy(t);
  array_destroy(b);
  array_destroy(a);
}
|}
    tname init_body tname tname tname f_e tname tname g_e tname tname
    conv_e tname tname tname merge_e tname tname tname n n n iters chain
    tname n tname tname

let observe ?(engine = `Compiled) ~optimize src =
  Test_paths.observe { Test_paths.default with engine; optimize } src

(* for the fusable programs, and the specialize generator's flat ones *)
let prop_fusion_unobservable src =
  let a = observe ~engine:`Ast ~optimize:`None src in
  Test_paths.agrees Values a (observe ~optimize:`Fuse src)
  && Test_paths.agrees Values a (observe ~engine:`Ast ~optimize:`Fuse src)

(* ---------------- purity: impure argument functions refuse ------------ *)

(* bump mutates state captured through its lifted pointer parameter, so
   fusing it with the following map would change how many times the cell
   is bumped per element.  The effect analysis must classify it Impure
   and leave the pipeline alone: fuse is byte-identical to none and the
   optimizer synthesizes no functions. *)
let impure_src =
  {|
float bump(float * acc, float v, Index ix) {
  *acc = *acc + v;
  return v + *acc;
}
float twice(float v, Index ix) { return v + v; }
float conv(float v, Index ix) { return v; }
float addf(float a, float b) { return a + b; }
float init(Index ix) { return itof(ix[0]); }
void main() {
  array<float> a;
  float * acc = new(0.0);
  a = array_create(1, {8}, {0}, {-1}, init, DISTR_DEFAULT);
  array_map(bump(acc), a, a);
  array_map(twice, a, a);
  print_float(array_fold(conv, addf, a));
  print_float(*acc);
  array_destroy(a);
}
|}

let test_impure_refuses () =
  (* byte-identical including makespan, stats and trace: nothing fired *)
  let none = observe ~optimize:`None impure_src in
  ignore (Test_paths.ok ~what:"impure" none);
  Test_paths.expect ~what:"impure fuse = none" Bytes none
    (observe ~optimize:`Fuse impure_src);
  (* and structurally: the optimizer returns the program unchanged *)
  let prog = Parser.parse impure_src in
  let env = Typecheck.check prog in
  let inst = Instantiate.program env prog ~entries:[ "main" ] in
  let env = Typecheck.check inst in
  let opt = Optimize.program ~env inst in
  Alcotest.(check int)
    "no functions synthesized" (List.length inst) (List.length opt)

(* a pure pipeline of the same shape does fuse (sanity for the above).
   The outer function uses its element exactly once, so composition
   cannot duplicate work. *)
let pure_src =
  {|
float scale(float w, float v, Index ix) { return w * v; }
float shift(float v, Index ix) { return v + 1.0; }
float conv(float v, Index ix) { return v; }
float addf(float a, float b) { return a + b; }
float init(Index ix) { return itof(ix[0]); }
void main() {
  array<float> a;
  a = array_create(1, {8}, {0}, {-1}, init, DISTR_DEFAULT);
  array_map(scale(0.5), a, a);
  array_map(shift, a, a);
  print_float(array_fold(conv, addf, a));
  array_destroy(a);
}
|}

let test_pure_fuses () =
  let prog = Parser.parse pure_src in
  let env = Typecheck.check prog in
  let inst = Instantiate.program env prog ~entries:[ "main" ] in
  let env = Typecheck.check inst in
  let opt = Optimize.program ~env inst in
  Alcotest.(check bool)
    "fused functions synthesized" true
    (List.length opt > List.length inst)

(* ---------------- diagnostics carry line and column ------------------- *)

let test_diagnostic_positions () =
  (* parser: initialiser missing its expression *)
  (match Parser.parse "int main() {\n  int x = ;\n  return 0;\n}\n" with
  | _ -> Alcotest.fail "parsed a malformed initialiser"
  | exception Parser.Error { line; col; _ } ->
      Alcotest.(check (pair int int)) "parse pos" (2, 11) (line, col));
  (* lexer: a character outside the language *)
  (match
     Parser.parse
       "float f(Index ix) { return 1.0; }\nvoid main() {\n  int y = 3 @ 4;\n}\n"
   with
  | _ -> Alcotest.fail "lexed '@'"
  | exception Lexer.Error { line; col; _ } ->
      Alcotest.(check (pair int int)) "lex pos" (3, 13) (line, col));
  (* typechecker: unbound identifier *)
  (match
     Typecheck.check
       (Parser.parse
          "int main() {\n  int x = 1;\n  return undefined_name + x;\n}\n")
   with
  | _ -> Alcotest.fail "typechecked an unbound identifier"
  | exception Typecheck.Type_error { line; col; _ } ->
      Alcotest.(check (pair int int)) "type pos" (3, 10) (line, col));
  (* parser: unclosed block at end of input *)
  match Parser.parse "void main() {\n  int x = 1;\n" with
  | _ -> Alcotest.fail "parsed an unclosed block"
  | exception Parser.Error { line; col; _ } ->
      Alcotest.(check bool)
        (Printf.sprintf "eof pos %d:%d is positioned" line col)
        true
        (line >= 2 && col >= 1)

(* --optimize fuse without the instantiation pass is a clear error, not a
   silent fallback: the optimizer only understands first-order sites *)
let test_fuse_requires_instantiate () =
  match
    Spmd.run_source ~instantiate:false ~optimize:`Fuse
      ~topology:(Topology.mesh ~width:2 ~height:1)
      pure_src ~entry:"main" ~args:[]
  with
  | _ -> Alcotest.fail "ran fuse without instantiation"
  | exception Invalid_argument _ -> ()

let suite =
  [
    ( "optimize",
      [
        Alcotest.test_case "corpus three-way, ops never worse" `Quick
          (Test_paths.test_settings [ Test_paths.fusion ]);
        Test_specialize.qt ~count:40
          "random fusable programs: fuse unobservable" gen_fusable
          prop_fusion_unobservable;
        Test_specialize.qt ~count:30
          "specialize generator programs: fuse unobservable"
          Test_specialize.gen_program prop_fusion_unobservable;
        Alcotest.test_case "impure argument function refuses" `Quick
          test_impure_refuses;
        Alcotest.test_case "pure pipeline fuses" `Quick test_pure_fuses;
        Alcotest.test_case "diagnostics carry line:col" `Quick
          test_diagnostic_positions;
        Alcotest.test_case "fuse requires instantiation" `Quick
          test_fuse_requires_instantiate;
      ] );
  ]
