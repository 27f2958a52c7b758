(* ---------------- compiled fast paths ----------------

   Each program below drives one shortcut of the compiled engine: statement
   outcomes returned instead of raised, invoker frames reused per skeleton
   call, arguments lent to bodies that never assign through them, bounds
   read in place, and gen_mult's monomorphic kernels.  All three engine
   configurations must agree as the path matrix's [Bytes] class defines
   (test_paths.ml, which runs the example programs), or fail with the
   same message. *)

let mesh22 = Topology.mesh ~width:2 ~height:2
let torus22 = Topology.torus2d ~width:2 ~height:2 ()

(* ast, compiled and --no-specialize agree byte for byte, or fail with one
   diagnostic; the ast outcome *)
let agree ?(collectives = "tree") ~topology src name =
  Test_paths.agree_engines ~what:name
    (fun s -> Test_paths.observe ~topology s src)
    { Test_paths.default with collectives }

let run_all ?collectives ~topology src name =
  ignore (Test_paths.ok ~what:name (agree ?collectives ~topology src name))

let fails_with ~topology src name =
  match agree ~topology src name with
  | Ok _ -> Alcotest.failf "%s: expected a runtime error" name
  | Error m -> m

let loop_control_src =
  {|
int search(int lim, int v, Index ix) {
  int acc = 0;
  for (int i = 0; i < lim; i++) {
    if (i == 1) continue;
    int j = 0;
    while (1) {
      j = j + 1;
      if (j > i) break;
      if ((i + j + v) % 5 == 0) continue;
      acc = acc + j;
      if (acc > 20 + v) return acc * 100 + i;
    }
    for (int k = 0; ; k++) {
      if (k == 3) break;
      if (k == v % 3) continue;
      acc = acc + k;
    }
  }
  return acc;
}
void upto(int n) {
  for (int i = 0; i < n; i++) {
    while (i < n) { if (i == 2) return; break; }
    print_int(i);
  }
}
int init(Index ix) { return ix[0] * 3; }
int addi(int a, int b) { return a + b; }
int main() {
  array<int> a = array_create(1, {8}, {0}, {-1}, init, DISTR_DEFAULT);
  array<int> b = array_create(1, {8}, {0}, {-1}, init, DISTR_DEFAULT);
  array_map(search(6), a, b);
  print_int(array_fold(search(9), addi, b));
  upto(5);
  print_int(search(4, 1, {0}));
  array_destroy(a);
  array_destroy(b);
  return search(7, procId, {procId});
}
|}

let test_loop_control () =
  run_all ~topology:mesh22 loop_control_src "loop control"

(* The fold call site inside [deep] runs again from the element calls of
   its own outer fold.  Frames belong to a skeleton call, not to a call
   site: the outer element call's v and ix are read after the inner calls
   and must have survived them. *)
let nested_src =
  {|
int addi(int a, int b) { return a + b; }
int init(Index ix) { return ix[0] + 1; }
int deep(int d, array<int> a, int v, Index ix) {
  int r = v * 10 + ix[0];
  if (d > 0) r = r + array_fold(deep(d - 1, a), addi, a);
  return r + v * ix[0];
}
int main() {
  array<int> a = array_create(1, {8}, {0}, {-1}, init, DISTR_DEFAULT);
  array<int> b = array_create(1, {8}, {0}, {-1}, init, DISTR_DEFAULT);
  array_map(deep(2, a), a, b);
  print_int(array_fold(deep(1, b), addi, b));
  array_destroy(a);
  array_destroy(b);
  return 0;
}
|}

let test_nested_call_frames () =
  run_all ~topology:mesh22 nested_src "nested skeleton calls"

let bounds_src body =
  Printf.sprintf
    {|
float init(Index ix) { return itof(ix[0] * 10 + ix[1]); }
float probe(array<float> a, float v, Index ix) {
  Bounds bds = array_part_bounds(a);
  %s
}
int main() {
  array<float> a = array_create(2, {4, 6}, {0, 0}, {-1, -1}, init, DISTR_DEFAULT);
  array<float> b = array_create(2, {4, 6}, {0, 0}, {-1, -1}, init, DISTR_DEFAULT);
  array_map(probe(a), a, b);
  Bounds bds = array_part_bounds(b);
  for (int i = bds->lowerBd[0]; i <= bds->upperBd[0]; i++)
    print_float(array_get_elem(b, {i, bds->upperBd[1]}));
  array_destroy(a);
  array_destroy(b);
  return bds->upperBd[0] - bds->lowerBd[1];
}
|}
    body

let test_bounds_in_place () =
  run_all ~topology:mesh22
    (bounds_src
       "return v + itof(bds->lowerBd[0] * 100 + bds->upperBd[1] * 10 +         bds->upperBd[0] - bds->lowerBd[1]);")
    "bounds in range";
  List.iter
    (fun (expr, want) ->
      Alcotest.(check string)
        expr want
        (fails_with ~topology:mesh22
           (bounds_src (Printf.sprintf "return v + itof(%s);" expr))
           expr))
    [
      ("bds->upperBd[2]", "runtime error: Index access out of range (2)");
      ("bds->lowerBd[0 - 1]", "runtime error: Index access out of range (-1)");
    ]

let gen_mult_src ~ty ~add ~mul =
  Printf.sprintf
    {|
int addi(int a, int b) { return a + b; }
int maxi(int a, int b) { if (a > b) return a; return b; }
%s ia(Index ix) { return %s((ix[0] * 3 + ix[1]) %% 5); }
%s ib(Index ix) { return %s((ix[0] + ix[1] * 7) %% 4); }
%s ic(Index ix) { return %s(ix[0] - ix[1]); }
int main() {
  array<%s> a = array_create(2, {4, 4}, {0, 0}, {-1, -1}, ia, DISTR_TORUS2D);
  array<%s> b = array_create(2, {4, 4}, {0, 0}, {-1, -1}, ib, DISTR_TORUS2D);
  array<%s> c = array_create(2, {4, 4}, {0, 0}, {-1, -1}, ic, DISTR_TORUS2D);
  array_gen_mult(a, b, %s, %s, c);
  Bounds bds = array_part_bounds(c);
  for (int i = bds->lowerBd[0]; i <= bds->upperBd[0]; i++)
    for (int j = bds->lowerBd[1]; j <= bds->upperBd[1]; j++)
      print_%s(array_get_elem(c, {i, j}));
  array_destroy(a);
  array_destroy(b);
  array_destroy(c);
  return 0;
}
|}
    ty (if ty = "float" then "itof" else "")
    ty (if ty = "float" then "itof" else "")
    ty (if ty = "float" then "itof" else "")
    ty ty ty add mul ty

let test_gen_mult_pairs () =
  List.iter
    (fun (ty, add, mul) ->
      run_all ~topology:torus22 (gen_mult_src ~ty ~add ~mul)
        (Printf.sprintf "gen_mult %s %s %s" ty add mul))
    [
      ("int", "min", "(+)");
      ("int", "(+)", "(*)");
      ("float", "(+)", "(*)");
      ("int", "maxi", "addi");
      ("int", "max", "(-)");
      ("float", "min", "(+)");
    ];
  Alcotest.(check string)
    "int / by zero" "runtime error: division by zero"
    (fails_with ~topology:torus22
       (gen_mult_src ~ty:"int" ~add:"(+)" ~mul:"(/)")
       "gen_mult int (+) (/)")

(* Merges and element functions that assign through a struct parameter
   must get private copies: the accumulators a recursive-doubling
   allreduce merges are shared by both partners, and a map's source
   elements are read again afterwards. *)
let struct_merge_src =
  {|
struct _acc { int s; int n; Index at; };
typedef struct _acc acc;
acc mk(Index ix) { acc a; a.s = ix[0] * 2 + 1; a.n = 1; a.at = {ix[0]}; return a; }
acc bump(acc e, Index ix) { e.s = e.s + ix[0]; e.at[0] = e.at[0] + 1; return e; }
acc comb(acc x, acc y) {
  x.s = x.s * 3 + y.s;
  x.n = x.n + y.n;
  x.at[0] = x.at[0] + y.at[0];
  return x;
}
acc keep(acc x, acc y) { if (y.s > x.s) return y; return x; }
int main() {
  array<acc> a = array_create(1, {8}, {0}, {-1}, mk, DISTR_DEFAULT);
  array<acc> b = array_create(1, {8}, {0}, {-1}, mk, DISTR_DEFAULT);
  array_map(bump, a, b);
  acc r = array_fold(bump, comb, a);
  acc m = array_fold(bump, keep, b);
  Bounds bds = array_part_bounds(a);
  for (int i = bds->lowerBd[0]; i <= bds->upperBd[0]; i++) {
    acc e = array_get_elem(a, {i});
    print_int(e.s);
    print_int(e.at[0]);
  }
  print_int(r.s);
  print_int(r.n);
  print_int(r.at[0]);
  print_int(m.s);
  array_destroy(a);
  array_destroy(b);
  return r.s;
}
|}

let test_struct_merge_copies () =
  List.iter
    (fun collectives ->
      run_all ~collectives ~topology:mesh22 struct_merge_src
        ("struct merge " ^ collectives))
    [ "tree"; "recdouble" ]

(* An argument an invoker lends is still reachable by other code: a
   partition element through array_get_elem, a heap struct through its
   pointer.  A callee that only reads its parameters may call a helper
   that writes through such a path, and must then still see the value
   it was passed, as the interpreter (which copies every argument) does.
   One such write turns lending off for the whole program, so each path
   gets a program of its own. *)
let aliased_src ~helpers ~body =
  Printf.sprintf
    {|
struct _p { int x; int y; };
typedef struct _p P;
P mk(Index ix) { P p; p.x = ix[0]; p.y = ix[0] * 2; return p; }
Index mkix(Index ix) { return {ix[0], 7}; }
int zero(Index ix) { return 0; }
int addi(int a, int b) { return a + b; }
void dump(array<int> b) {
  Bounds bds = array_part_bounds(b);
  for (int i = bds->lowerBd[0]; i <= bds->upperBd[0]; i++)
    print_int(array_get_elem(b, {i}));
}
%s
int main() {
  array<P> a = array_create(1, {8}, {0}, {-1}, mk, DISTR_DEFAULT);
  array<Index> c = array_create(1, {8}, {0}, {-1}, mkix, DISTR_DEFAULT);
  array<int> b = array_create(1, {8}, {0}, {-1}, zero, DISTR_DEFAULT);
  Bounds bds = array_part_bounds(a);
  %s
  dump(b);
  array_destroy(a);
  array_destroy(b);
  array_destroy(c);
  return 0;
}
|}
    helpers body

let test_aliased_arguments () =
  List.iter
    (fun (name, helpers, body) ->
      run_all ~topology:mesh22 (aliased_src ~helpers ~body)
        ("aliased " ^ name))
    [
      ( "struct element",
        {|int poke(array<P> a, Index ix) { array_get_elem(a, ix).x = 99; return 1; }
int g(array<P> a, P e, Index ix) { int z = poke(a, ix); return e.x * 10 + z; }
int g2(array<P> a, P s, int v, Index ix) {
  Bounds bds = array_part_bounds(a);
  int z = poke(a, bds->lowerBd);
  return s.x * 10 + z + v;
}|},
        {|array_map(g(a), a, b);
  dump(b);
  print_int(array_fold(g(a), addi, a));
  array_map(g2(a, array_get_elem(a, bds->lowerBd)), b, b);|} );
      ( "Index element",
        {|int poke(array<Index> c, Index ix) { array_get_elem(c, ix)[1] = 99; return 1; }
int g(array<Index> c, Index e, Index ix) { int z = poke(c, ix); return e[1] * 10 + z; }|},
        "array_map(g(c), c, b);" );
      ( "pointer field",
        {|int poke(P *q) { q->y = 77; return 1; }
int g(P s, P *q, int v, Index ix) { int z = poke(q); return s.y * 10 + z + v; }|},
        {|P *p = new(array_get_elem(a, bds->lowerBd));
  array_map(g(*p, p), b, b);|} );
      ( "dereferenced pointer",
        {|int poke(P *q) { (*q).y = 77; return 1; }
int g(P s, P *q, int v, Index ix) { int z = poke(q); return s.y * 10 + z + v; }|},
        {|P *p = new(array_get_elem(a, bds->lowerBd));
  array_map(g(*p, p), b, b);|} );
    ]

(* ---------------- satellite regressions ---------------- *)

let test_pointer_comparison_semantics () =
  let p = Value.VPtr (ref (Value.VInt 1)) in
  let q = Value.VPtr (ref (Value.VInt 1)) in
  (* equality is physical; NULL only equals NULL *)
  Alcotest.(check bool) "p == p" true (Interp.equal_values p p);
  Alcotest.(check bool) "p == q" false (Interp.equal_values p q);
  Alcotest.(check bool) "NULL == NULL" true
    (Interp.equal_values Value.VNull Value.VNull);
  Alcotest.(check bool) "p == NULL" false (Interp.equal_values p Value.VNull);
  Alcotest.(check bool) "binop !=" true
    (Interp.binop "!=" p q = Value.VInt 1);
  (* ordered comparison of pointers is a runtime error, not an arbitrary
     answer (the old code returned 1 for both p < q and q < p) *)
  List.iter
    (fun op ->
      List.iter
        (fun (a, b) ->
          match Interp.binop op a b with
          | v ->
              Alcotest.failf "%s on pointers answered %s" op
                (Value.describe v)
          | exception Value.Skil_runtime_error _ -> ())
        [ (p, q); (p, Value.VNull); (Value.VNull, q) ])
    [ "<"; ">"; "<="; ">=" ]

let add3_src =
  {|
    int add3(int a, int b, int c) { return a + b + c; }
    int main() { return 0; }
  |}

let engines_of src =
  let program = Parser.parse src in
  let tyenv = Typecheck.check program in
  let st = Interp.make ~tyenv program in
  let compiled = Compile.program ~tyenv program in
  (st, compiled)

let test_over_application () =
  let st, compiled = engines_of add3_src in
  let f = Value.VFun { Value.fv_target = `User "add3"; fv_applied = [] } in
  let via_interp =
    Interp.apply st (Interp.apply st f [ Value.VInt 1 ])
      [ Value.VInt 2; Value.VInt 3 ]
  in
  let via_compiled =
    Compile.apply compiled st
      (Compile.apply compiled st f [ Value.VInt 1 ])
      [ Value.VInt 2; Value.VInt 3 ]
  in
  Alcotest.(check bool) "interp" true (via_interp = Value.VInt 6);
  Alcotest.(check bool) "compiled" true (via_compiled = Value.VInt 6);
  (* surplus arguments past a non-function result are an error in both *)
  List.iter
    (fun apply ->
      match apply f [ Value.VInt 1; Value.VInt 2; Value.VInt 3;
                      Value.VInt 4 ] with
      | v -> Alcotest.failf "over-application answered %s" (Value.describe v)
      | exception Value.Skil_runtime_error _ -> ())
    [ Interp.apply st; Compile.apply compiled st ]

let test_split_at () =
  Alcotest.(check (pair (list int) (list int)))
    "middle" ([ 1; 2 ], [ 3; 4 ]) (Interp.split_at 2 [ 1; 2; 3; 4 ]);
  Alcotest.(check (pair (list int) (list int)))
    "all" ([ 1; 2 ], []) (Interp.split_at 5 [ 1; 2 ]);
  Alcotest.(check (pair (list int) (list int)))
    "none" ([], [ 1 ]) (Interp.split_at 0 [ 1 ])

let suite =
  [
    ( "engines",
      [
        Alcotest.test_case "corpus both engines" `Quick
          (Test_paths.test_settings [ Test_paths.no_instantiate ]);
        Alcotest.test_case "cost profiles both engines" `Quick
          (Test_paths.test_settings Test_paths.profiles);
        Alcotest.test_case "pointer comparison" `Quick
          test_pointer_comparison_semantics;
        Alcotest.test_case "over-application" `Quick test_over_application;
        Alcotest.test_case "split_at" `Quick test_split_at;
        Alcotest.test_case "loop control in nested loops" `Quick
          test_loop_control;
        Alcotest.test_case "one frame per skeleton call" `Quick
          test_nested_call_frames;
        Alcotest.test_case "bounds read in place" `Quick test_bounds_in_place;
        Alcotest.test_case "gen_mult operator pairs" `Quick
          test_gen_mult_pairs;
        Alcotest.test_case "struct merges still copy" `Quick
          test_struct_merge_copies;
        Alcotest.test_case "aliased arguments are not lent" `Quick
          test_aliased_arguments;
      ] );
  ]
