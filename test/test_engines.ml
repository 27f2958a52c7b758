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

(* ast and compiled agree byte for byte, or fail with one diagnostic; the
   ast outcome *)
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

(* An n×n product c = a·b under (add, mul) whose elements a, b and c start
   at [ea], [eb] and [ec] (int expressions in [ix]; converted for float
   arrays), printed exactly: a float as its 53-bit mantissa and exponent,
   since print_float shows six digits.  [mix(seed, ix)] is a seeded
   element: int_max, just below it, a negative, the tie 7, or a small
   value. *)
let gen_mult_src ?(n = 4) ?(ea = "(ix[0] * 3 + ix[1]) % 5")
    ?(eb = "(ix[0] + ix[1] * 7) % 4") ?(ec = "ix[0] - ix[1]") ~ty ~add ~mul
    () =
  let conv = if ty = "float" then "itof" else "" in
  let create name e =
    Printf.sprintf "%s %s(Index ix) { return %s(%s); }" ty name conv e
  and arr name =
    Printf.sprintf
      "array<%s> %s = array_create(2, {%d, %d}, {0, 0}, {-1, -1}, i%s, \
       DISTR_TORUS2D);"
      ty name n n name
  in
  Printf.sprintf
    {|
int addi(int a, int b) { return a + b; }
int maxi(int a, int b) { if (a > b) return a; return b; }
int mix(int seed, Index ix) {
  int h = (seed * 7919 + ix[0] * 104729 + ix[1] * 1299709) * 48271 %% 2147483647;
  int k = h %% 8;
  if (k < 0) k = 0 - k;
  if (k == 0) return int_max;
  if (k == 1) return int_max - h %% 5;
  if (k == 2) return 0 - h %% 1000;
  if (k == 3) return 7;
  return h %% 100 - 50;
}
void print_exact(float x) {
  float m = x;
  int e = 0;
  if (m < 0.0) { print_string("-"); m = 0.0 - m; }
  while (m >= 1.0) { m = m / 2.0; e++; }
  while (m > 0.0 && m < 0.5) { m = m * 2.0; e--; }
  print_int(ftoi(m * 9007199254740992.0)); print_string("p"); print_int(e);
}
%s
%s
%s
int main() {
  %s
  %s
  %s
  array_gen_mult(a, b, %s, %s, c);
  Bounds bds = array_part_bounds(c);
  for (int i = bds->lowerBd[0]; i <= bds->upperBd[0]; i++)
    for (int j = bds->lowerBd[1]; j <= bds->upperBd[1]; j++)
    { %s(array_get_elem(c, {i, j})); print_string(" "); }
  array_destroy(a);
  array_destroy(b);
  array_destroy(c);
  return 0;
}
|}
    (create "ia" ea) (create "ib" eb) (create "ic" ec) (arr "a") (arr "b")
    (arr "c") add mul
    (if ty = "float" then "print_exact" else "print_int")

let test_gen_mult_pairs () =
  List.iter
    (fun (ty, add, mul) ->
      run_all ~topology:torus22 (gen_mult_src ~ty ~add ~mul ())
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
       (gen_mult_src ~ty:"int" ~add:"(+)" ~mul:"(/)" ())
       "gen_mult int (+) (/)")

(* The monomorphic kernels read and write their blocks unchecked: against
   the closure loop (the ast engine runs it) on elements near
   int_max, whose sums would overflow a branchless min, and below zero,
   and on seeded matrices holding int_max, sums that wrap around,
   negatives and ties, at block sizes 1 to 5 on the 2×2 torus (an odd
   one leaves a last row and column outside the two-by-two steps).  The
   native engine runs the kernels too, and must agree in values. *)
let test_gen_mult_kernel_edges () =
  let seeded ?(n = 8) s =
    let mix k = Printf.sprintf "mix(%d, ix)" (s + k) in
    (n, mix 0, mix 1, mix 2)
  in
  List.iter
    (fun (ty, add, mul) ->
      List.iter
        (fun (n, ea, eb, ec) ->
          let what = Printf.sprintf "gen_mult %s %s %s on %s" ty add mul ea in
          let src = gen_mult_src ~n ~ea ~eb ~ec ~ty ~add ~mul () in
          let run s = Test_paths.observe ~topology:torus22 s src in
          let s = Test_paths.default in
          let reference = Test_paths.agree_engines ~what run s in
          ignore (Test_paths.ok ~what reference);
          Test_paths.against ~what Test_paths.Values reference run s
            [ Test_paths.native 1 ])
        [
          ( 4,
            "(ix[0] - ix[1]) * (int_max / 3)",
            "int_max - (ix[0] + ix[1] * 7) % 4",
            "int_max - ix[0] * 5 + ix[1]" );
          seeded 1;
          seeded 20;
          seeded ~n:2 3;
          seeded ~n:6 4;
          seeded ~n:10 5;
        ])
    [ ("int", "min", "(+)"); ("float", "(+)", "(*)") ]

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

(* ---------------- typed runners ----------------

   Expressions of static type int or float run unboxed, and returns of a
   variable the activation owns skip the copy.  Each program below sits on
   an edge of those paths; ast and compiled must agree byte for byte and
   the native engine in values, or all fail with one diagnostic. *)

let agree_all ?(topology = mesh22) ?(instantiate = true) ?(entry = "main")
    ?(args = []) src name =
  let run s = Test_paths.observe ~topology ~entry ~args s src in
  let s = { Test_paths.default with instantiate } in
  let reference = Test_paths.agree_engines ~what:name run s in
  Test_paths.against ~what:name Test_paths.Values reference run s
    [ Test_paths.native 1 ];
  reference

(* == != < <= and the reverse < on nan and signed zeros: slots, literals,
   a float element function and boxed results; Float.compare's order,
   where nan equals nan *)
let float_compare_src =
  {|
int cmp(float a, float b) {
  int r = 0;
  if (a == b) r = r + 1;
  if (a != b) r = r + 2;
  if (a < b) r = r + 4;
  if (a <= b) r = r + 8;
  if (b < a) r = r + 16;
  return r * 100 + (a == b) * 10 + (a <= b);
}
float vals(Index ix) {
  if (ix[0] == 0) return 0.0 / 0.0;
  if (ix[0] == 1) return 0.0 - 0.0;
  if (ix[0] == 2) return -0.0;
  return 1.0;
}
int against(float x, float v, Index ix) { return cmp(v, x) * 10 + (v < x); }
int zero(Index ix) { return 0; }
int main() {
  float nan = sqrt(0.0 - 1.0);
  float pz = 0.0;
  float nz = -pz;
  print_int(cmp(nan, nan)); print_string(" ");
  print_int(cmp(nan, 1.0)); print_string(" ");
  print_int(cmp(1.0, nan)); print_string(" ");
  print_int(cmp(nz, pz)); print_string(" ");
  print_int(cmp(pz, nz)); print_string(" ");
  print_int(0.0 / 0.0 == 0.0 / 0.0); print_string(" ");
  print_float(nz); print_string(" ");
  array<float> a = array_create(1, {8}, {0}, {-1}, vals, DISTR_DEFAULT);
  array<int> b = array_create(1, {8}, {0}, {-1}, zero, DISTR_DEFAULT);
  array_map(against(nan), a, b);
  Bounds bds = array_part_bounds(b);
  for (int i = bds->lowerBd[0]; i <= bds->upperBd[0]; i++) {
    print_int(array_get_elem(b, {i})); print_string(" ");
  }
  array_map(against(nz), a, b);
  print_int(array_get_elem(b, {bds->lowerBd[0]}));
  array_destroy(a);
  array_destroy(b);
  return cmp(nan, nan);
}
|}

let test_typed_float_compare () =
  ignore
    (Test_paths.ok ~what:"float comparisons"
       (agree_all float_compare_src "float comparisons"))

(* integer / and % by zero inside a typed expression, in main and in an
   element function *)
let div_src ~op ~where =
  Printf.sprintf
    {|
int f(int d, int v, Index ix) { return (v + ix[0] * 2) %s (d - ix[0] + ix[0]); }
int ident(Index ix) { return ix[0]; }
int main() {
  int z = procId - procId;
  array<int> a = array_create(1, {8}, {0}, {-1}, ident, DISTR_DEFAULT);
  %s
  array_destroy(a);
  return 0;
}
|}
    op
    (if where = "main" then
       Printf.sprintf "print_int((procId + 7) %s (z * 3));" op
     else "array_map(f(z), a, a);")

let test_typed_division_by_zero () =
  List.iter
    (fun (op, msg) ->
      List.iter
        (fun where ->
          let name = Printf.sprintf "int %s by zero in %s" op where in
          match agree_all (div_src ~op ~where) name with
          | Ok _ -> Alcotest.failf "%s: expected a runtime error" name
          | Error m -> Alcotest.(check string) name ("runtime error: " ^ msg) m)
        [ "main"; "an element function" ])
    [ ("/", "division by zero"); ("%", "modulo by zero") ]

(* array_get_elem on one- and two-int literals: in range on int and float
   arrays, then outside the partition *)
let get_lit_src body =
  Printf.sprintf
    {|
int i1(Index ix) { return ix[0] * 3; }
float f2(Index ix) { return itof(ix[0] * 10 + ix[1]) / 4.0; }
int main() {
  array<int> a = array_create(1, {8}, {0}, {-1}, i1, DISTR_DEFAULT);
  array<float> m = array_create(2, {4, 6}, {0, 0}, {-1, -1}, f2, DISTR_DEFAULT);
  Bounds ba = array_part_bounds(a);
  Bounds bm = array_part_bounds(m);
  int lo = ba->lowerBd[0];
  %s
  array_destroy(a);
  array_destroy(m);
  return 0;
}
|}
    body

let test_typed_get_elem () =
  ignore
    (Test_paths.ok ~what:"literal reads"
       (agree_all
          (get_lit_src
             {|print_int(array_get_elem(a, {lo})
            + array_get_elem(a, {ba->upperBd[0]}));
  print_float(array_get_elem(m, {bm->lowerBd[0], bm->upperBd[1]})
              - array_get_elem(m, {bm->upperBd[0], bm->lowerBd[1]}));|})
          "literal reads"));
  List.iter
    (fun (read, index) ->
      let name = "outside the partition: " ^ read in
      let src = get_lit_src (Printf.sprintf "print_float(itof(0) + %s);" read) in
      match agree_all src name with
      | Ok _ -> Alcotest.failf "%s: expected a runtime error" name
      | Error m ->
          if not (Test_machine.contains m index) then
            Alcotest.failf "%s: %S does not name %s" name m index)
    [
      ("itof(array_get_elem(a, {(lo + 2) % 8}))", "element {2}");
      ("itof(array_get_elem(a, {0 - 1}))", "element {-1}");
      ("array_get_elem(m, {(bm->lowerBd[0] + 2) % 4, 0})", "element {2,0}");
      ("array_get_elem(m, {0, 6})", "element {0,6}");
      ("array_get_elem(m, {0})", "element {0}");
    ]

(* A return skips the copy of a variable its activation owns: a struct
   local that array_fold keeps and array_map stores while the next
   element reuses the frame.  A parameter an invoker may lend is copied:
   the lent struct of a partial application, which the caller then
   mutates, and the scratch Index of a body that writes only struct
   fields. *)
let owned_return_src =
  {|
struct _r { int a; int b; };
typedef struct _r R;
R mk(int v, Index ix) {
  R r;
  r.a = v * 7 % 5 + ix[0];
  r.b = ix[0] * 10;
  return r;
}
R pick(R x, R y) { if (y.a > x.a) return y; return x; }
R keep(R s, int v, Index ix) { return s; }
Index at(int v, Index ix) { R r; r.a = v; return ix; }
R zr(Index ix) { R r; return r; }
int ident(Index ix) { return ix[0]; }
Index ixz(Index ix) { return {0, 0}; }
int main() {
  array<int> a = array_create(1, {8}, {0}, {-1}, ident, DISTR_DEFAULT);
  array<R> b = array_create(1, {8}, {0}, {-1}, zr, DISTR_DEFAULT);
  array<Index> c = array_create(1, {8}, {0}, {-1}, ixz, DISTR_DEFAULT);
  Bounds bds = array_part_bounds(b);
  array_map(mk, a, b);
  R m = array_fold(mk, pick, a);
  for (int i = bds->lowerBd[0]; i <= bds->upperBd[0]; i++) {
    R e = array_get_elem(b, {i});
    print_int(e.a); print_string(","); print_int(e.b); print_string(" ");
  }
  print_int(m.a); print_string(" ");
  R s;
  s.a = 1;
  s.b = 2;
  array_map(keep(s), a, b);
  s.a = 42;
  array_map(at, a, c);
  for (int i = bds->lowerBd[0]; i <= bds->upperBd[0]; i++) {
    print_int(array_get_elem(b, {i}).a);
    print_int(array_get_elem(c, {i})[0]);
  }
  array_destroy(a);
  array_destroy(b);
  array_destroy(c);
  return m.b;
}
|}

let test_owned_returns () =
  ignore
    (Test_paths.ok ~what:"owned returns"
       (agree_all owned_return_src "owned returns"))

(* Typed runners trust a slot's declared type.  A void can still reach
   one: from a function that falls off its end, from a generic zero value
   under --no-instantiate, or from an entry argument of another type.
   Such programs fail as the interpreter fails. *)
let test_typed_trust () =
  let fails ?instantiate ?entry ?args src name want =
    match agree_all ?instantiate ?entry ?args src name with
    | Ok _ -> Alcotest.failf "%s: expected a runtime error" name
    | Error m -> Alcotest.(check string) name want m
  in
  fails
    {|
int f(int x) { if (x > 0) return 1; }
int main() { int y = f(0); return y + 1; }
|}
    "fall through" "runtime error: invalid operands for +: void, 1";
  fails ~instantiate:false
    {|
$t first($t x) { $t y; return y; }
int main() { int a = first(3); return a * 2; }
|}
    "generic zero value" "runtime error: invalid operands for *: void, 2";
  fails ~entry:"g" ~args:[ Value.VInt 3 ]
    {|
float g(float x) { return x + 1.5; }
int main() { return 0; }
|}
    "entry argument" "runtime error: invalid operands for +: 3, 1.5"

(* ---------------- struct layout ----------------

   Struct fields sit flat in one array per value: a copy allocates a new
   array, a field write stores into it, and the compiled engine reads a
   field at its compile-time position (an int or float field of a struct
   without type parameters unboxed) and stores [x.f = e] in one closure.
   Each program must agree over ast, compiled and native,
   and print what C value semantics give: the engines share [Value.copy],
   so agreement alone would not catch a copy that shares fields. *)

(* the observation, once its printed output is checked *)
let layout_obs name ?topology ?instantiate ~printed src =
  let o =
    Test_paths.ok ~what:name (agree_all ?topology ?instantiate src name)
  in
  Alcotest.(check string) (name ^ ": printed") printed o.Test_paths.printed;
  o

let layout name ?topology ?instantiate ~printed src =
  ignore (layout_obs name ?topology ?instantiate ~printed src)

(* every rank prints [line] *)
let on_each_rank line = Test_paths.ranks Fun.id (Array.make 4 line)

(* o.a.x = v and friends: writes through nested fields, of a local, of a
   copy made by new() and through the pointer *)
let nested_src =
  {|
struct _in { int x; float y; };
typedef struct _in In;
struct _out { In a; int b; In c; };
typedef struct _out Out;
Out mk(int v) {
  Out o;
  o.a.x = v;
  o.a.y = itof(v) / 4.0;
  o.b = v * 2;
  o.c = o.a;
  o.c.x = v + 100;
  return o;
}
void show(Out o) {
  print_int(o.a.x); print_string(",");
  print_float(o.a.y); print_string(",");
  print_int(o.b); print_string(",");
  print_int(o.c.x); print_string(",");
  print_float(o.c.y); print_string(" ");
}
int main() {
  Out o = mk(3);
  show(o);
  o.a.x = 7;
  o.c.y = o.a.y * 2.0;
  Out *p = new(o);
  p->a.x = 11;
  (*p).c.x = 12;
  In i = p->c;
  i.y = 9.5;
  p->c.y = i.y + 1.0;
  show(o);
  show(*p);
  return o.a.x * 100 + p->a.x;
}
|}

(* a copy through a declaration, an assignment, an owned return, new(),
   *p, a map's stored results, a fold's result and an element read, each
   then mutated; only the copy changes *)
let copies_src =
  {|
struct _r { int a; float b; Index ix; };
typedef struct _r R;
R mk(int v, int e, Index ix) {
  R r;
  r.a = v + e * 3 + ix[0];
  r.b = itof(ix[0]) * 0.5;
  r.ix = {ix[0], v};
  return r;
}
R pick(R x, R y) { if (y.a > x.a) return y; return x; }
int ident(Index ix) { return ix[0]; }
R zr(Index ix) { R r; return r; }
void show(R r) {
  print_int(r.a); print_string(",");
  print_float(r.b); print_string(",");
  print_int(r.ix[0]); print_string(",");
  print_int(r.ix[1]); print_string(" ");
}
int main() {
  R s = mk(1, 0, {2});
  R d = s;
  d.a = 50;
  d.ix[1] = 51;
  R e;
  e = s;
  e.b = 2.5;
  e.ix[0] = 9;
  R *p = new(s);
  p->a = 60;
  R f = *p;
  f.a = 61;
  f.ix[1] = 62;
  array<int> a = array_create(1, {8}, {0}, {-1}, ident, DISTR_DEFAULT);
  array<R> b = array_create(1, {8}, {0}, {-1}, zr, DISTR_DEFAULT);
  array_map(mk(s.a), a, b);
  R m = array_fold(mk(3), pick, a);
  m.a = m.a + 1000;
  m.ix[0] = 77;
  Bounds bds = array_part_bounds(b);
  R g = array_get_elem(b, bds->lowerBd);
  g.a = 70;
  g.ix[1] = 71;
  show(s); show(d); show(e); show(*p); show(f); show(m); show(g);
  show(array_get_elem(b, bds->lowerBd));
  show(array_fold(mk(3), pick, a));
  array_destroy(a);
  array_destroy(b);
  return s.a + d.a;
}
|}

(* typed field reads: == < <= on nan and signed zeros, by Float.compare,
   and int fields in arithmetic *)
let typed_fields_src =
  {|
struct _f { float x; int n; float y; };
typedef struct _f F;
int cmp(F a) {
  int r = 0;
  if (a.x == a.y) r = r + 1;
  if (a.x < a.y) r = r + 2;
  if (a.y < a.x) r = r + 4;
  if (a.x == a.x) r = r + 8;
  if (a.x <= a.y) r = r + 16;
  return r * 10 + a.n;
}
F mkf(float x, float y, int n) {
  F f;
  f.x = x;
  f.y = y;
  f.n = n;
  return f;
}
int main() {
  float nan = sqrt(0.0 - 1.0);
  float pz = 0.0;
  float nz = -pz;
  print_int(cmp(mkf(nan, nan, 1))); print_string(" ");
  print_int(cmp(mkf(nan, 1.0, 2))); print_string(" ");
  print_int(cmp(mkf(1.0, nan, 3))); print_string(" ");
  print_int(cmp(mkf(nz, pz, 4))); print_string(" ");
  print_int(cmp(mkf(pz, nz, 5))); print_string(" ");
  F g = mkf(nz, nan, 6);
  print_float(g.x); print_string(" ");
  print_float(g.x * 2.0); print_string(" ");
  print_int(g.n * 7 - g.n); print_string(" ");
  print_int(g.x == pz); print_int(g.y == g.y); print_int(g.y < g.x);
  print_string(" ");
  return g.n;
}
|}

(* a generic struct's fields read boxed: under --no-instantiate, first()
   and second() read an int from one instance and a float from the
   other, and its int field is read through a parameterised type *)
let generic_src =
  {|
struct _pair { $a fst; $b snd; int n; };
$a first(struct _pair<$a, $b> p) { return p.fst; }
$b second(struct _pair<$a, $b> p) { return p.snd; }
int count(struct _pair<$a, $b> p) { return p.n + 1; }
int main() {
  struct _pair<int, float> p;
  p.fst = 3;
  p.snd = 1.5;
  p.n = 10;
  struct _pair<float, int> q;
  q.fst = p.snd * 2.0;
  q.snd = p.fst + 1;
  q.n = p.n * 2;
  int a = first(p) + second(q) + count(q);
  float b = second(p) + first(q);
  print_int(a); print_string(" ");
  print_float(b); print_string(" ");
  print_int(p.fst * 10 + q.snd + q.n); print_string(" ");
  print_float(q.fst - p.snd);
  return a;
}
|}

(* Int and float fields of a struct without type parameters live in the
   flat arrays, the rest boxed: one struct with fields of every kind,
   copies of it that must stay independent, writes through p->f, through
   a dereferenced pointer, through a pointer field and through
   array_get_elem(a, ix).f, and a generic struct whose $t field stays
   boxed *)
let mixed_src =
  {|
struct _in { int x; float y; };
typedef struct _in In;
struct _m { int i; float f; char c; Index ix; In in; struct _m *next; float g; int j; };
typedef struct _m M;
struct _box { $t item; int tag; };
M mk(int v) {
  M m;
  m.i = v;
  m.f = itof(v) * 0.5;
  m.c = 'a';
  m.ix = {v, v + 1};
  m.in.x = v * 2;
  m.in.y = 1.25;
  m.g = 2.5;
  m.j = v + 7;
  return m;
}
void show(M m) {
  print_int(m.i); print_string(",");
  print_float(m.f); print_string(",");
  print_char(m.c); print_string(",");
  print_int(m.ix[0] * 10 + m.ix[1]); print_string(",");
  print_int(m.in.x); print_string(",");
  print_float(m.in.y); print_string(",");
  print_float(m.g); print_string(",");
  print_int(m.j); print_string(" ");
}
M mkix(Index ix) { return mk(ix[0]); }
int main() {
  M a = mk(3);
  M b = a;
  b.i = 10; b.f = 9.5; b.c = 'z'; b.ix[0] = 4; b.in.x = 50; b.in.y = 0.5; b.g = 0.25; b.j = 60;
  M *p = new(a);
  p->i = 11;
  p->g = 3.75;
  p->in.y = 6.5;
  (*p).j = 12;
  (*p).f = 1.5;
  (*p).c = 'p';
  a.next = p;
  a.next->j = a.next->j + 1;
  a.next->f = a.next->f * 2.0;
  show(a); show(b); show(*p); show(*a.next);
  print_int(p->i + (*p).j); print_string(" ");
  print_float(p->g - (*p).f); print_string(" ");
  struct _box<int> bi;
  bi.item = 5;
  bi.tag = 6;
  struct _box<float> bf;
  bf.item = 0.5;
  bf.tag = bi.item + bi.tag;
  print_int(bi.item * 100 + bf.tag); print_string(" ");
  print_float(bf.item * 2.0); print_string(" ");
  array<M> arr = array_create(1, {8}, {0}, {-1}, mkix, DISTR_DEFAULT);
  Bounds bds = array_part_bounds(arr);
  array_get_elem(arr, bds->lowerBd).f = 7.5;
  array_get_elem(arr, bds->lowerBd).j = 70 + procId;
  array_get_elem(arr, bds->lowerBd).in.x = procId;
  array_get_elem(arr, bds->lowerBd).c = 'q';
  show(array_get_elem(arr, bds->lowerBd));
  show(array_get_elem(arr, bds->upperBd));
  array_destroy(arr);
  return a.i + b.j;
}
|}

(* A fold over struct accumulators: the wire size of the partial result,
   4 bytes per int and float field, 1 per char and 4 per Index component,
   sets the bytes each allreduce step sends, so the makespan is pinned. *)
let struct_fold_src =
  {|
struct _acc { int n; float s; char c; Index at; int hi; };
typedef struct _acc Acc;
Acc conv(float v, Index ix) { Acc a; a.n = 1; a.s = v; a.c = 'x'; a.at = ix; a.hi = ix[0]; return a; }
Acc merge(Acc x, Acc y) {
  Acc r = x;
  r.n = x.n + y.n;
  r.s = x.s + y.s;
  if (y.hi > x.hi) { r.hi = y.hi; r.at = y.at; }
  return r;
}
float fi(Index ix) { return itof(ix[0]) * 0.25; }
int main() {
  array<float> a = array_create(1, {16}, {0}, {-1}, fi, DISTR_DEFAULT);
  Acc r = array_fold(conv, merge, a);
  print_int(r.n); print_string(",");
  print_float(r.s); print_string(",");
  print_char(r.c); print_string(",");
  print_int(r.at[0]); print_string(",");
  print_int(r.hi);
  array_destroy(a);
  return r.n;
}
|}

let test_struct_layout () =
  layout "nested field writes" nested_src
    ~printed:
      (on_each_rank
         "3,0.75,6,103,0.75 7,0.75,6,103,1.5 11,0.75,6,12,10.5 ");
  layout "struct copies" copies_src
    ~printed:
      (Test_paths.ranks
         (fun r ->
           Printf.sprintf
             "3,1,2,1 50,1,2,51 3,2.5,9,1 60,1,2,1 61,1,2,62 1031,3.5,77,3 \
              70,%d,%d,71 %d,%d,%d,3 31,3.5,7,3 "
             r (2 * r) (3 + (8 * r)) r (2 * r))
         [| 0; 1; 2; 3 |]);
  layout "typed field reads" typed_fields_src
    ~printed:(on_each_rank "251 262 123 254 255 -0 -0 36 111 ");
  List.iter
    (fun instantiate ->
      let name = if instantiate then "" else ", no-instantiate" in
      layout ("generic struct" ^ name) ~instantiate generic_src
        ~printed:(on_each_rank "28 4.5 54 1.5"))
    [ true; false ];
  layout "fields of every kind" mixed_src
    ~printed:
      (Test_paths.ranks
         (fun r ->
           "3,1.5,a,34,6,1.25,2.5,10 10,9.5,z,44,50,0.5,0.25,60 \
            11,3,p,34,6,6.5,3.75,13 11,3,p,34,6,6.5,3.75,13 24 0.75 511 1 "
           ^ Printf.sprintf
               "%d,7.5,q,%d,%d,1.25,2.5,%d %d,%g,a,%d,%d,1.25,2.5,%d "
               (2 * r) ((22 * r) + 1) r (70 + r) ((2 * r) + 1)
               (float_of_int ((2 * r) + 1) *. 0.5)
               ((22 * r) + 12) ((4 * r) + 2) ((2 * r) + 8))
         [| 0; 1; 2; 3 |]);
  let o =
    layout_obs "struct accumulators" struct_fold_src
      ~printed:(on_each_rank "16,30,x,15,15")
  in
  Alcotest.(check string) "struct accumulators: makespan"
    "0x1.a3d6337ddbce1p-8 (stats 0x1.a3d6337ddbce1p-8)"
    o.Test_paths.makespan;
  (* a program whose int function can fall off its end keeps every field
     boxed, so the void it returns reaches print_int as the interpreter's
     error *)
  match
    agree_all
      {|
struct _p { int x; float y; };
typedef struct _p P;
int f(int v) { if (v > 0) return v; }
int main() { P p; p.y = 1.5; p.x = f(0); print_int(p.x); return 0; }
|}
      "void into an int field"
  with
  | Ok _ -> Alcotest.fail "void into an int field: expected a runtime error"
  | Error m ->
      Alcotest.(check string)
        "void into an int field"
        "runtime error: builtin print_int: bad arguments (void)" m

(* Values of either layout work on either engine: a struct the reference
   interpreter made (every field boxed) passed to compiled code, whose
   field paths check the layout and fall back to the fields' names, and
   a flat one passed to the interpreter.  Copies of both stay
   independent, and both measure the same wire size. *)
let test_layouts_meet () =
  let program =
    Parser.parse
      {|
struct _p { int x; float y; char c; };
typedef struct _p P;
int getx(P p) { return p.x; }
float gety(P p) { return p.y; }
P bump(P p) { p.x = p.x + 1; p.y = p.y * 2.0; return p; }
P bump_ptr(P p) { P *q = new(p); q->x = q->x + 1; q->y = q->y * 2.0; return *q; }
int main() { return 0; }
|}
  in
  let tyenv = Typecheck.check program in
  let compiled = Compile.program ~tyenv program in
  let boxed = Interp.make ~tyenv program in
  let flat = Interp.make ~flat:true ~tyenv program in
  let field v name =
    match v with
    | Value.VStruct s -> Value.get_field s (Value.field_pos s name)
    | v -> Alcotest.failf "not a struct: %s" (Value.describe v)
  in
  let describe v =
    Printf.sprintf "%s,%s,%s" (Value.describe (field v "x"))
      (Value.describe (field v "y")) (Value.describe (field v "c"))
  in
  List.iter
    (fun (layout, st) ->
      let p = Interp.default_value st (Ast.TNamed ("P", [])) in
      (match p with
       | Value.VStruct s ->
           Value.set_field s (Value.field_pos s "x") (Value.VInt 7);
           Value.set_field s (Value.field_pos s "y") (Value.VFloat 1.5);
           Value.set_field s (Value.field_pos s "c") (Value.VChar 'k')
       | _ -> Alcotest.fail "default_value: not a struct");
      Alcotest.(check int) (layout ^ ": wire bytes") 9 (Value.wire_bytes p);
      List.iter
        (fun (engine, call) ->
          let what = layout ^ " on " ^ engine in
          Alcotest.(check string)
            (what ^ ": getx") "7" (Value.describe (call "getx" [ p ]));
          Alcotest.(check string)
            (what ^ ": gety") "1.5" (Value.describe (call "gety" [ p ]));
          List.iter
            (fun f ->
              Alcotest.(check string)
                (what ^ ": " ^ f) "8,3,'k'" (describe (call f [ p ])))
            [ "bump"; "bump_ptr" ];
          Alcotest.(check string) (what ^ ": argument unchanged") "7,1.5,'k'"
            (describe p))
        [
          ("ast", Interp.call boxed);
          ("compiled", Compile.call compiled boxed);
        ];
      let q = Value.copy p in
      (match q with
       | Value.VStruct s ->
           Value.set_field s (Value.field_pos s "x") (Value.VInt 9);
           Value.set_field s (Value.field_pos s "y") (Value.VFloat 0.5)
       | _ -> ());
      Alcotest.(check string) (layout ^ ": copy") "9,0.5,'k' 7,1.5,'k'"
        (describe q ^ " " ^ describe p))
    [ ("boxed", boxed); ("flat", flat) ]

(* The scalar meter polls the cancel hook at each statement's charge, so
   a hook that fires stops a compute-bound program on every engine: the
   simulator's meter adds to the clock after polling, the native one only
   polls.  Without the poll the loop would run to its end. *)
let test_meter_cancels () =
  let src =
    "int main() { int x = 0; for (int i = 0; i < 1000000; i++) x = x + i % \
     7; return x; }\n"
  in
  List.iter
    (fun (name, engine) ->
      let polls = Atomic.make 0 in
      let cancel () = Atomic.fetch_and_add polls 1 >= 1000 in
      match
        Spmd.run_source ~engine ~cancel
          ~topology:(Topology.mesh ~width:2 ~height:1)
          src ~entry:"main" ~args:[]
      with
      | _ -> Alcotest.failf "%s: ran to its end, not cancelled" name
      | exception Machine.Cancelled -> ())
    [ ("ast", `Ast); ("compiled", `Compiled); ("native", `Native) ]

(* ---------------- stored-once arguments ----------------

   A direct invoker stores an applied argument into its reused frame once
   when the body never assigns that parameter and every element would
   store that very value anyway: the invoker lends it, or it is neither a
   struct nor an Index.  Each program sits on one side of that rule; ast
   and compiled must agree byte for byte and native in values, and the
   printed output is pinned, since the engines would agree on a wrong
   answer they share. *)

(* bodies that assign an applied parameter: every element must see the
   applied value, through map, fold's conversion and merge, array_create's
   init, gen_mult's operators and a plain call.  No body writes through a
   field or subscript, so [swapin]'s struct and Index are lent, and
   assigned as variables. *)
let assigned_src =
  {|
struct _p { int x; int y; };
typedef struct _p P;
int swapin(P s, Index j, int v, Index ix) {
  int r = s.x * 1000 + s.y * 100 + j[0] * 10 + v;
  P t;
  s = t;
  j = ix;
  return r;
}
int addi(int a, int b) { return a + b; }
int init(Index ix) { return ix[0] + 1; }
int ik(int k, Index ix) { k = k + 1; return k * 100 + ix[0]; }
int bumpk(int k, int v, Index ix) { k = k + 1; return k * 100 + v; }
int stepk(int k, int v, Index ix) { if (v > 2) k++; return k * 10 + v; }
int addk(int k, int a, int b) { k += 2; return a + b + k; }
int mulk(int k, int a, int b) { for (int i = 0; i < 2; i++) k = k * 2; return a * b + k; }
float fk(float k, float v, Index ix) { k = k * 2.0; return k + v; }
float fi(Index ix) { return itof(ix[0]); }
void dump(array<int> b) {
  Bounds bds = array_part_bounds(b);
  for (int i = bds->lowerBd[0]; i <= bds->upperBd[0]; i++) {
    print_int(array_get_elem(b, {i}));
    print_char(' ');
  }
  print_char('|');
}
int main() {
  array<int> a = array_create(1, {8}, {0}, {-1}, init, DISTR_DEFAULT);
  array<int> b = array_create(1, {8}, {0}, {-1}, ik(5), DISTR_DEFAULT);
  array<float> c = array_create(1, {8}, {0}, {-1}, fi, DISTR_DEFAULT);
  dump(b);
  array_map(bumpk(7), a, b);
  dump(b);
  array_map(stepk(1), a, b);
  dump(b);
  print_int(array_fold(bumpk(3), addk(1), a));
  print_char('|');
  array_map(fk(0.5), c, c);
  print_float(array_fold(fk(1.5), max, c));
  print_char('|');
  array<int> m = array_create(2, {4, 4}, {0, 0}, {-1, -1}, ik(2), DISTR_TORUS2D);
  array<int> n = array_create(2, {4, 4}, {0, 0}, {-1, -1}, ik(3), DISTR_TORUS2D);
  array<int> r = array_create(2, {4, 4}, {0, 0}, {-1, -1}, ik(0), DISTR_TORUS2D);
  array_gen_mult(m, n, addk(1), mulk(1), r);
  print_int(array_fold(bumpk(0), addi, r));
  print_char('|');
  print_int(bumpk(9, 1, {0}) + bumpk(9, 2, {0}));
  print_char('|');
  P s0;
  s0.x = 3;
  s0.y = 4;
  array_map(swapin(s0, {5}), a, b);
  dump(b);
  array_destroy(a);
  array_destroy(b);
  array_destroy(c);
  array_destroy(m);
  array_destroy(n);
  array_destroy(r);
  return 0;
}
|}

(* applied struct and Index arguments to bodies that write a field of a
   local struct, so nothing is lent and each element gets its own copy:
   [keep] writes through both parameters and returns the struct one
   without a copy (the activation owns it), so elements sharing one copy
   would show in each other's fields *)
let copied_src =
  {|
struct _p { int x; int y; };
typedef struct _p P;
P mk(Index ix) { P p; p.x = ix[0]; p.y = ix[0] * 2; return p; }
P keep(P s, Index j, P e, Index ix) {
  P t = e;
  t.x = j[0] + ix[0];
  s.y = s.y + t.x;
  j[1] = j[1] + 1;
  s.x = j[1] * 100 + t.x;
  return s;
}
P grow(P base, Index j, Index ix) {
  P t;
  t.x = 1;
  base.x = base.x + ix[0] * t.x;
  j[0] = j[0] + base.x;
  base.y = j[0];
  return base;
}
int sumxy(P s, P e, Index ix) { P t = e; t.y = s.x; return t.x + t.y + s.y; }
int addi(int a, int b) { return a + b; }
void dump(array<P> b) {
  Bounds bds = array_part_bounds(b);
  for (int i = bds->lowerBd[0]; i <= bds->upperBd[0]; i++) {
    P e = array_get_elem(b, {i});
    print_int(e.x);
    print_char(',');
    print_int(e.y);
    print_char(' ');
  }
  print_char('|');
}
int main() {
  P s0;
  s0.x = 3;
  s0.y = 4;
  Index j0 = {10, 20};
  array<P> a = array_create(1, {8}, {0}, {-1}, mk, DISTR_DEFAULT);
  array<P> b = array_create(1, {8}, {0}, {-1}, grow(s0, j0), DISTR_DEFAULT);
  dump(b);
  array_map(keep(s0, j0), a, b);
  dump(b);
  Bounds bds = array_part_bounds(b);
  array_get_elem(b, bds->lowerBd).y = -1;
  dump(b);
  print_int(array_fold(sumxy(s0), addi, b));
  print_char('|');
  print_int(s0.x * 1000 + s0.y * 100 + j0[0] + j0[1]);
  array_destroy(a);
  array_destroy(b);
  return 0;
}
|}

let test_stored_once () =
  layout "assigned parameters" assigned_src
    ~printed:
      (Test_paths.ranks Fun.id
         [|
           "600 601 |801 802 |11 12 |3257|11|7751016|2003|3451 3452 |";
           "602 603 |803 804 |23 24 |3257|11|7751016|2003|3453 3454 |";
           "604 605 |805 806 |25 26 |3257|11|7751016|2003|3455 3456 |";
           "606 607 |807 808 |27 28 |3257|11|7751016|2003|3457 3458 |";
         |]);
  layout "copied struct and Index arguments" copied_src
    ~printed:
      (Test_paths.ranks Fun.id
         [|
           "3,13 4,14 |2110,14 2111,15 |2110,-1 2111,15 |16964|3430";
           "5,15 6,16 |2112,16 2113,17 |2112,-1 2113,17 |16964|3430";
           "7,17 8,18 |2114,18 2115,19 |2114,-1 2115,19 |16964|3430";
           "9,19 10,20 |2116,20 2117,21 |2116,-1 2117,21 |16964|3430";
         |])

(* ---------------- unboxed cells ----------------

   Int and float variables, parameters and results live in the frame's
   unboxed cells, filled by every way into a body: a plain call, a direct
   invoker's element and applied arguments, and [c_invoke].  The program
   below stores into cells by declarations with and without an
   initialiser, chained and compound assignments, ++ and --, and
   for-steps; reads results typed and boxed, directly and through
   partial application, map, fold, array_create's init and gen_mult's
   operators; returns from nested loops; recurses with live float and
   int locals; and passes int, float, struct and Index parameters in
   every position, assigned by some bodies and left alone by others.
   [shift] assigns its Index parameter, so its invoker must store the
   scratch index before every element.  Under --no-instantiate, [pick]
   keeps boxed cells and its results meet typed consumers.  The printed
   output is pinned, since the engines would agree on a wrong answer they
   share. *)
let cells_src =
  {|
struct _p { int x; float y; };
typedef struct _p P;
int sq(int x) { return x * x; }
float half(float x) { return x / 2.0; }
int inc(int x) { x++; x += 2; x--; return x; }
float fsc(float x) { x += 0.5; x = x * 2.0; x -= 1.0; return x; }
int tri(int n) {
  if (n == 0) return 0;
  int t = n;
  t += tri(n - 1);
  return t;
}
float ftri(float x, int n) {
  if (n == 0) return x;
  float y = x * 0.5;
  float r = ftri(y, n - 1);
  return r + y * 10.0 + x * 100.0;
}
int find(int lim, int v) {
  for (int i = 0; i < lim; i++) {
    int j = 0;
    while (j < i) {
      j++;
      for (int k = 0; k < 3; k++)
        if ((i * j + k + v) % 7 == 3) return i * 100 + j * 10 + k;
    }
  }
  return -1;
}
$t pick(int c, $t a, $t b) { if (c > 0) return a; return b; }
float m1(int a, float b, P s, Index ix) { return itof(a * 1000 + s.x * 100 + ix[0] * 10) + b + s.y; }
float m2(float b, P s, Index ix, int a) { a += 1; return m1(a, b, s, ix); }
float m3(P s, Index ix, int a, float b) { s.x = s.x + a; b = b * 2.0; return m1(a, b, s, ix); }
float m4(Index ix, int a, float b, P s) { ix[0] = ix[0] + 1; return m1(a, b, s, ix); }
float e2(P s, float b, int v, Index ix) { b += 0.25; return m1(v, b, s, ix); }
P mkp(Index ix) { P p; p.x = ix[0]; p.y = itof(ix[0]) * 0.25; return p; }
int init(Index ix) { return sq(ix[0]) - 3 * ix[0]; }
float finit(Index ix) { return half(itof(ix[0])) + 0.25; }
int addk(int k, int v, Index ix) { k += ix[0]; return v + k; }
int keepk(int k, int v, Index ix) { return v * k - ix[0]; }
int shift(int v, Index ix) { int r = v + ix[0]; ix = {ix[0] * 3}; return r * 100 + ix[0]; }
float fconv(float w, float v, Index ix) { return v * w + itof(ix[0]); }
int imerge(int a, int b) { int m = a; if (b > a) m = b; return m + 1; }
float fmerge(float a, float b) { return a + b * 0.5; }
int gadd(int a, int b) { if (a < b) return a; return b; }
int gmul(int a, int b) { int s; s = a + b; return s; }
float fadd(float a, float b) { return a + b; }
float fmul(float a, float b) { float p; p = a * b; return p; }
int main() {
  int a;
  float f;
  int b = 5;
  float g = 1.5;
  print_int(a); print_string(" "); print_float(f); print_string(" ");
  a = b = 3;
  int c = (a = b = 4) + 1;
  print_int(a * 100 + b * 10 + c); print_string(" ");
  g += 0.25; f = g; f -= 0.5; f += 1.0;
  b++; b--; b -= 2; a *= 3;
  print_int(a * 100 + b); print_string(" "); print_float(f); print_string(" ");
  for (int i = 0; i < 5; i += 2) b += i;
  for (float x = 0.0; x < 2.0; x += 0.5) g = g + x;
  for (int i = 9; i > 0; i--) c = c + i;
  print_int(b * 1000 + c); print_string(" "); print_float(g); print_string(" ");
  int s = sq(3) + 1;
  float h = half(g) * 2.0 + 1.0;
  print_int(s); print_string(" ");
  print_float(h); print_string(" ");
  print_int(sq(procId + 2)); print_string(" ");
  print_int(inc(sq(procId + 2))); print_string(" ");
  print_float(fsc(half(g))); print_string(" ");
  print_int(tri(10) + tri(procId)); print_string(" ");
  print_float(ftri(8.0, 3)); print_string(" ");
  print_int(find(9, procId)); print_string(" ");
  print_int(pick(1, sq(2), 3) + 1); print_string(" ");
  print_float(pick(0, 1.5, half(3.0)) * 2.0); print_string(" ");
  P p;
  p.x = 2;
  p.y = 0.5;
  Index ix = {procId, 1};
  print_float(m1(3, 1.5, p, ix)); print_string(" ");
  print_float(m2(1.5, p, ix, 3)); print_string(" ");
  print_float(m3(p, ix, 3, 1.5)); print_string(" ");
  print_float(m4(ix, 3, 1.5, p)); print_string(" ");
  print_int(p.x * 10 + ix[0]); print_string(" ");
  array<int> ia = array_create(1, {8}, {0}, {-1}, init, DISTR_DEFAULT);
  array<float> fa = array_create(1, {8}, {0}, {-1}, finit, DISTR_DEFAULT);
  array<P> pa = array_create(1, {8}, {0}, {-1}, mkp, DISTR_DEFAULT);
  array_map(addk(procId + 1), ia, ia);
  print_int(array_fold(addk(2), imerge, ia)); print_string(" ");
  print_int(array_fold(keepk(3), imerge, ia)); print_string(" ");
  array_map(shift, ia, ia);
  print_int(array_fold(shift, imerge, ia)); print_string(" ");
  array_map(fconv(0.5), fa, fa);
  print_float(array_fold(fconv(2.0), fmerge, fa)); print_string(" ");
  array_map(m1(3, 1.5), pa, fa);
  print_float(array_fold(fconv(1.0), fadd, fa)); print_string(" ");
  array_map(e2(p, 0.5), ia, fa);
  print_float(array_fold(fconv(1.0), fadd, fa)); print_string(" ");
  array<int> ma = array_create(2, {4, 4}, {0, 0}, {-1, -1}, init, DISTR_TORUS2D);
  array<int> mb = array_create(2, {4, 4}, {0, 0}, {-1, -1}, init, DISTR_TORUS2D);
  array<int> mc = array_create(2, {4, 4}, {0, 0}, {-1, -1}, init, DISTR_TORUS2D);
  array_gen_mult(ma, mb, gadd, gmul, mc);
  print_int(array_fold(keepk(1), gmul, mc)); print_string(" ");
  array<float> fx = array_create(2, {4, 4}, {0, 0}, {-1, -1}, finit, DISTR_TORUS2D);
  array<float> fy = array_create(2, {4, 4}, {0, 0}, {-1, -1}, finit, DISTR_TORUS2D);
  array<float> fz = array_create(2, {4, 4}, {0, 0}, {-1, -1}, finit, DISTR_TORUS2D);
  array_gen_mult(fx, fy, fadd, fmul, fz);
  print_float(array_fold(fconv(1.0), fadd, fz));
  array_destroy(ia); array_destroy(fa); array_destroy(pa);
  array_destroy(ma); array_destroy(mb); array_destroy(mc);
  array_destroy(fx); array_destroy(fy); array_destroy(fz);
  return s + tri(4);
}
|}

let test_unboxed_cells () =
  let find = [| 112; 111; 110; 321 |] in
  let printed =
    Test_paths.ranks Fun.id
      (Array.init 4 (fun r ->
           let sq = (r + 2) * (r + 2) in
           Printf.sprintf
             "0 0 445 1202 2.25 8050 4.75 10 5.75 %d %d 4.75 %d 1471 %d 5 3 \
              %d %d %d.5 %d %d 51 113 462824 28.4062 27127 1.32859e+07 -72 104"
             sq (sq + 2)
             (55 + (r * (r + 1) / 2))
             find.(r) (3202 + (10 * r)) (4202 + (10 * r)) (3503 + (10 * r))
             (3212 + (10 * r)) (20 + r)))
  in
  List.iter
    (fun instantiate ->
      let name = if instantiate then "" else ", no-instantiate" in
      layout ("unboxed cells" ^ name) ~instantiate cells_src ~printed)
    [ true; false ]

(* ---------------- chained blocks ----------------

   A block runs as a chain of links of up to three statements.  Blocks of
   one to seven statements with a return, break or continue at each
   position, bare (the statements after it dead) or under a condition
   that holds for some elements, as a function body and inside a for loop
   nested in a while loop; each function runs as an element function of
   map and fold and as a plain call. *)
let control_src kind =
  let fn variant n p =
    let name = Printf.sprintf "%s_%s_%d_%d" kind variant n p in
    let var = if kind = "top" then "v" else "acc" in
    let ctl =
      match kind with
      | "brk" -> "break;"
      | "cnt" -> "continue;"
      | _ -> Printf.sprintf "return %s * 10 + %d;" var p
    in
    let stmt q =
      if q <> p then Printf.sprintf "%s = (%s * 3 + %d) %% 1000003;" var var (q + 1)
      else if variant = "bare" then ctl
      else Printf.sprintf "if ((%s + ix[0]) %% 3 != 1) %s" var ctl
    in
    let block = String.concat "\n    " (List.init n stmt) in
    if kind = "top" then
      Printf.sprintf "int %s(int v, Index ix) {\n    %s\n    return v;\n}" name
        block
    else
      Printf.sprintf
        "int %s(int v, Index ix) {\n\
        \  int acc = v;\n\
        \  int i = 0;\n\
        \  while (i < 2) {\n\
        \    i = i + 1;\n\
        \    for (int j = 0; j < 3; j = j + 1) {\n\
        \    %s\n\
        \    }\n\
        \    acc = acc * 7 + i;\n\
        \  }\n\
        \  return acc;\n\
         }"
        name block
  in
  let names = ref [] and fns = ref [] in
  List.iter
    (fun variant ->
      for n = 1 to 7 do
        for p = 0 to n - 1 do
          names := Printf.sprintf "%s_%s_%d_%d" kind variant n p :: !names;
          fns := fn variant n p :: !fns
        done
      done)
    [ "bare"; "cond" ];
  let calls =
    List.rev_map
      (fun f ->
        Printf.sprintf
          "  array_map(%s, a, b);\n\
          \  print_int(array_fold(%s, addi, b));\n\
          \  print_char(' ');\n\
          \  print_int(%s(procId + 2, {procId}));\n\
          \  print_char(' ');"
          f f f)
      !names
  in
  Printf.sprintf
    "int addi(int a, int b) { return a + b; }\n\
     int init(Index ix) { return ix[0] * 5 + 1; }\n\
     %s\n\
     int main() {\n\
    \  array<int> a = array_create(1, {8}, {0}, {-1}, init, DISTR_DEFAULT);\n\
    \  array<int> b = array_create(1, {8}, {0}, {-1}, init, DISTR_DEFAULT);\n\
     %s\n\
    \  array_destroy(a);\n\
    \  array_destroy(b);\n\
    \  return 0;\n\
     }\n"
    (String.concat "\n" (List.rev !fns))
    (String.concat "\n" calls)

let test_chained_blocks () =
  List.iter
    (fun kind ->
      let name = "control flow " ^ kind in
      ignore (Test_paths.ok ~what:name (agree_all (control_src kind) name)))
    [ "top"; "ret"; "brk"; "cnt" ]

(* ---------------- allocation per call ----------------

   Int and float variables, parameters and results live in unboxed
   cells, so an int element of a map and a plain recursive call build no
   [Value.t]; the int and float fields of a struct live in its flat
   arrays, so gauss's pivot fold (make_elemrec's conversion and
   max_abs_in_col's merge, which copies the struct it returns) allocates
   two structs and no field boxes per element.  Each bound is on the
   words allocated per element or per call on the compiled engine,
   measured as the difference between two runs of one rank that differ
   only in how many elements or calls they make, so what a run costs once
   cancels.  A float result still comes back boxed from an OCaml closure,
   so float maps get no bound. *)

let alloc_src =
  {|
int init(Index ix) { return ix[0]; }
int step(int k, int v, Index ix) { return v * k + ix[0] % 7; }
int fib(int n) {
  if (n < 2) return n;
  return fib(n - 1) + fib(n - 2);
}
int maps(int n, int reps) {
  array<int> a = array_create(1, {n}, {0}, {-1}, init, DISTR_DEFAULT);
  for (int r = 0; r < reps; r++) array_map(step(3), a, a);
  array_destroy(a);
  return reps;
}
struct _elemrec { float val; int row; int col; };
typedef struct _elemrec elemrec;
float finit(Index ix) { return itof((ix[0] * 13 + ix[1] * 29) % 7 - 3) / 8.0; }
elemrec make_elemrec(int k, float v, Index ix) {
  elemrec e;
  if (ix[1] == k && ix[0] >= k) {
    e.val = v; e.row = ix[0]; e.col = k;
  } else {
    e.val = 0.0; e.row = 0 - 1; e.col = k;
  }
  return e;
}
elemrec max_abs_in_col(elemrec e1, elemrec e2) {
  if (fabs(e2.val) > fabs(e1.val)) return e2;
  return e1;
}
int pivots(int n, int reps) {
  array<float> a = array_create(2, {n, n + 1}, {0, 0}, {-1, -1}, finit, DISTR_DEFAULT);
  elemrec e;
  for (int r = 0; r < reps; r++) e = array_fold(make_elemrec(r % n), max_abs_in_col, a);
  array_destroy(a);
  return e.row;
}
|}

let words_per ~entry ~per args_small args_large =
  let p = Spmd.prepare_source alloc_src ~entry in
  let words args =
    let count () =
      Gc.full_major ();
      let minor, promoted, major = Gc.counters () in
      minor +. major -. promoted
    in
    let before = count () in
    ignore
      (Spmd.run_prepared ~topology:(Topology.mesh ~width:1 ~height:1) p ~args);
    count () -. before
  in
  (words args_large -. words args_small) /. per

let test_alloc_per_call () =
  let n = 4096 in
  let ints = List.map (fun i -> Value.VInt i) in
  let per_element =
    words_per ~entry:"maps" ~per:(float_of_int (4 * n)) (ints [ n; 1 ])
      (ints [ n; 5 ])
  in
  (* fib(n) makes 2 fib(n + 1) - 1 calls: 21,891 for n = 20, 1,973 for
     n = 15 *)
  let per_call =
    words_per ~entry:"fib" ~per:(21891. -. 1973.) (ints [ 15 ]) (ints [ 20 ])
  in
  let per_pivot =
    let m = 64 in
    words_per ~entry:"pivots"
      ~per:(float_of_int (m * (m + 1) * 8))
      (ints [ m; 2 ]) (ints [ m; 10 ])
  in
  List.iter
    (fun (what, words, bound) ->
      if words > bound then
        Alcotest.failf "%s allocates %.2f words (bound %.0f)" what words bound)
    [
      ("an int map element", per_element, 2.);
      ("a recursive int call", per_call, 12.);
      ("a pivot-fold element", per_pivot, 30.);
    ]

(* ---------------- skeletons copy struct elements ----------------

   array_copy, array_broadcast_part and array_permute_rows move generic
   elements between partitions and processors.  A struct element must
   arrive as a copy, as C copies it, or a field write through
   array_get_elem(x, ix).f on one side shows on the other.  Both engines
   share the dispatcher, so each program's output is pinned by hand; on
   2×1, rank 0 holds x's lower half and rank 1 its upper half. *)

let mesh21 = Topology.mesh ~width:2 ~height:1

let moved_src body =
  Printf.sprintf
    {|
struct _p { int a; int b; };
typedef struct _p P;
P mk(Index ix) { P p; p.a = ix[0]; p.b = ix[0] * 10; return p; }
P zero(Index ix) { P p; return p; }
int getb(P e, Index ix) { return e.b; }
int addi(int a, int b) { return a + b; }
int ident(int r) { return r; }
int flip(int r) { return 1 - r; }
int main() {
  %s
  return 0;
}
|}
    body

let test_struct_elements_moved () =
  let moved ?(topology = mesh21) name body printed =
    layout name ~topology (moved_src body)
      ~printed:(Test_paths.ranks Fun.id printed)
  in
  (* y keeps its own element, x.a[lo] is lo on one side and 99 on the
     other *)
  moved "array_copy"
    {|array<P> x = array_create(1, {4}, {0}, {-1}, mk, DISTR_DEFAULT);
  array<P> y = array_create(1, {4}, {0}, {-1}, zero, DISTR_DEFAULT);
  Bounds bds = array_part_bounds(x);
  int lo = bds->lowerBd[0];
  array_copy(x, y);
  array_get_elem(x, {lo}).a = 99;
  print_int(array_get_elem(y, {lo}).a); print_string(" ");
  print_int(array_get_elem(x, {lo}).a);
  array_destroy(x);
  array_destroy(y);|}
    [| "0 99"; "2 99" |];
  (* every partition receives x[0] = {0, 0}; then the root writes its a
     and rank 1 its b, and the fold orders both writes before the
     prints: each rank sees only its own write *)
  moved "array_broadcast_part"
    {|array<P> x = array_create(1, {2}, {0}, {-1}, mk, DISTR_DEFAULT);
  array_broadcast_part(x, {0});
  if (procId == 0) array_get_elem(x, {0}).a = 55;
  if (procId == 1) array_get_elem(x, {1}).b = 77;
  int s = array_fold(getb, addi, x);
  Bounds bds = array_part_bounds(x);
  P e = array_get_elem(x, bds->lowerBd);
  print_int(e.a); print_string(","); print_int(e.b); print_string(" ");
  print_int(s);
  array_destroy(x);|}
    [| "55,0 77"; "0,77 77" |];
  (* on 2×2 three receivers land the one snapshot the root sends, and each
     must land its own copy *)
  moved ~topology:mesh22 "array_broadcast_part to three ranks"
    {|array<P> x = array_create(1, {4}, {0}, {-1}, mk, DISTR_DEFAULT);
  array_broadcast_part(x, {0});
  Bounds bds = array_part_bounds(x);
  array_get_elem(x, bds->lowerBd).b = 70 + procId;
  int s = array_fold(getb, addi, x);
  P e = array_get_elem(x, bds->lowerBd);
  print_int(e.a); print_string(","); print_int(e.b); print_string(" ");
  print_int(s);
  array_destroy(x);|}
    (Array.init 4 (fun r -> Printf.sprintf "0,%d 286" (70 + r)));
  (* rows stay on their rank under ident and change ranks under flip; a
     later write into x's row shows in neither y nor z *)
  moved "array_permute_rows"
    {|array<P> x = array_create(2, {2, 2}, {0, 0}, {-1, -1}, mk, DISTR_DEFAULT);
  array<P> y = array_create(2, {2, 2}, {0, 0}, {-1, -1}, zero, DISTR_DEFAULT);
  array<P> z = array_create(2, {2, 2}, {0, 0}, {-1, -1}, zero, DISTR_DEFAULT);
  Bounds bds = array_part_bounds(x);
  array_permute_rows(x, ident, y);
  array_permute_rows(x, flip, z);
  array_get_elem(x, bds->lowerBd).a = 99;
  array_get_elem(x, bds->upperBd).b = 98;
  int s = array_fold(getb, addi, z);
  print_int(array_get_elem(y, bds->lowerBd).a); print_string(",");
  print_int(array_get_elem(y, bds->upperBd).b); print_string(",");
  print_int(array_get_elem(z, bds->lowerBd).a); print_string(",");
  print_int(array_get_elem(z, bds->upperBd).b); print_string(" ");
  print_int(array_get_elem(x, bds->lowerBd).a); print_string(" ");
  print_int(s);
  array_destroy(x);
  array_destroy(y);
  array_destroy(z);|}
    [| "0,0,1,10 99 20"; "1,10,0,0 99 20" |]

(* array_permute_rows runs its row function through a direct invoker:
   a partial application, a builtin and a plain function on int arrays,
   the same in a program whose typed runners are not trusted, and a
   function that is not a bijection, which fails alike everywhere *)
let perm_src ~untrusted last =
  Printf.sprintf
    {|
int rot(int k, int n, int r) { return (r + k) %% n; }
int init(Index ix) { return ix[0] * 10 + ix[1]; }
int zero(Index ix) { return 0; }
int half(int r) { return r / 2; }
int ident(int r) { return r; }
%s
void dump(array<int> b) {
  Bounds bds = array_part_bounds(b);
  for (int i = bds->lowerBd[0]; i <= bds->upperBd[0]; i++)
    for (int j = bds->lowerBd[1]; j <= bds->upperBd[1]; j++) {
      print_int(array_get_elem(b, {i, j})); print_string(" ");
    }
  print_string("|");
}
int main() {
  array<int> a = array_create(2, {4, 2}, {0, 0}, {-1, -1}, init, DISTR_DEFAULT);
  array<int> b = array_create(2, {4, 2}, {0, 0}, {-1, -1}, zero, DISTR_DEFAULT);
  array_permute_rows(a, rot(1, 4), b);
  dump(b);
  array_permute_rows(b, abs, a);
  dump(a);
  array_permute_rows(a, rot(3, 4), b);
  dump(b);
  array_permute_rows(b, %s, a);
  dump(a);
  return 0;
}
|}
    (if untrusted then "int never(int v) { if (v > 0) return v; }" else "")
    last

let test_permute_invoker () =
  List.iter
    (fun untrusted ->
      let name = if untrusted then ", untrusted" else "" in
      layout ("row permutations" ^ name) ~topology:mesh21
        (perm_src ~untrusted "ident")
        ~printed:
          (Test_paths.ranks Fun.id
             [|
               "30 31 0 1 |30 31 0 1 |0 1 10 11 |0 1 10 11 |";
               "10 11 20 21 |10 11 20 21 |20 21 30 31 |20 21 30 31 |";
             |]);
      let what = "not a bijection" ^ name in
      match agree_all ~topology:mesh21 (perm_src ~untrusted "half") what with
      | Ok _ -> Alcotest.failf "%s: expected a runtime error" what
      | Error m ->
          Alcotest.(check string)
            what
            "error: array_permute_rows: permutation function is not a bijection"
            m)
    [ false; true ]

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
        Alcotest.test_case "gen_mult kernels near int_max" `Quick
          test_gen_mult_kernel_edges;
        Alcotest.test_case "typed float comparisons" `Quick
          test_typed_float_compare;
        Alcotest.test_case "typed division by zero" `Quick
          test_typed_division_by_zero;
        Alcotest.test_case "typed literal element reads" `Quick
          test_typed_get_elem;
        Alcotest.test_case "owned returns skip the copy" `Quick
          test_owned_returns;
        Alcotest.test_case "typed runners trust no void" `Quick
          test_typed_trust;
        Alcotest.test_case "struct layout" `Quick test_struct_layout;
        Alcotest.test_case "struct layouts meet" `Quick test_layouts_meet;
        Alcotest.test_case "the meter polls a cancel hook" `Quick
          test_meter_cancels;
        Alcotest.test_case "struct merges still copy" `Quick
          test_struct_merge_copies;
        Alcotest.test_case "aliased arguments are not lent" `Quick
          test_aliased_arguments;
        Alcotest.test_case "applied arguments stored once" `Quick
          test_stored_once;
        Alcotest.test_case "chained blocks stop at control flow" `Quick
          test_chained_blocks;
        Alcotest.test_case "unboxed cells" `Quick test_unboxed_cells;
        Alcotest.test_case "allocation per call" `Quick test_alloc_per_call;
        Alcotest.test_case "skeletons copy struct elements" `Quick
          test_struct_elements_moved;
        Alcotest.test_case "row permutations through an invoker" `Quick
          test_permute_invoker;
      ] );
  ]
