(* Property: payload specialisation is unobservable.  Random monomorphic
   Skil programs — an int or float array initialised, mapped with a
   partially-applied element function, folded and printed — must behave
   bit-identically under the reference interpreter and the compiled engine,
   which specialises them, as the path matrix's [Bytes] agreement defines
   it (test_paths.ml). *)

let qt ?(count = 60) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name ~print:(fun s -> s) gen prop)

open QCheck2.Gen

type ty = I | F

(* Literals: small ints, quarter-step floats.  No division or modulo so
   every generated program is total; negative literals are parenthesised
   to survive positions like "a - -3". *)
let lit = function
  | I -> int_range (-9) 9 >|= fun n -> Printf.sprintf "(%d)" n
  | F ->
      int_range (-40) 40 >|= fun n ->
      Printf.sprintf "(%.2f)" (float_of_int n /. 4.0)

(* Depth-bounded expression over the given atoms, arithmetic and the
   min/max builtins (the specialiser has dedicated paths for both). *)
let rec expr ty depth atoms =
  if depth = 0 then oneof [ oneofl atoms; lit ty ]
  else
    frequency
      [
        (2, oneofl atoms);
        (1, lit ty);
        ( 3,
          oneofl [ "+"; "-"; "*" ] >>= fun op ->
          expr ty (depth - 1) atoms >>= fun a ->
          expr ty (depth - 1) atoms >|= fun b ->
          Printf.sprintf "(%s %s %s)" a op b );
        ( 2,
          oneofl [ "min"; "max" ] >>= fun f ->
          expr ty (depth - 1) atoms >>= fun a ->
          expr ty (depth - 1) atoms >|= fun b ->
          Printf.sprintf "%s(%s, %s)" f a b );
      ]

let gen_program =
  oneofl [ I; F ] >>= fun ty ->
  int_range 1 2 >>= fun dim ->
  int_range 2 6 >>= fun n0 ->
  int_range 2 5 >>= fun n1 ->
  let tname = match ty with I -> "int" | F -> "float" in
  let ix d = match ty with
    | I -> Printf.sprintf "ix[%d]" d
    | F -> Printf.sprintf "itof(ix[%d])" d
  in
  let ix_atoms = if dim = 2 then [ ix 0; ix 1 ] else [ ix 0 ] in
  expr ty 2 ix_atoms >>= fun init_e ->
  expr ty 2 ([ "c"; "elem" ] @ ix_atoms) >>= fun map_e ->
  expr ty 1 [ "elem" ] >>= fun conv_e ->
  oneofl [ "a + b"; "min(a, b)"; "max(a, b)" ] >>= fun merge_e ->
  lit ty >|= fun cval ->
  let size =
    if dim = 2 then Printf.sprintf "{%d, %d}" n0 n1
    else Printf.sprintf "{%d}" n0
  in
  let zeros = if dim = 2 then "{0, 0}" else "{0}" in
  let negs = if dim = 2 then "{-1, -1}" else "{-1}" in
  Printf.sprintf
    {|
%s init(Index ix) { return %s; }
%s f(%s c, %s elem, Index ix) { return %s; }
%s conv(%s elem, Index ix) { return %s; }
%s merge(%s a, %s b) { return %s; }
void main() {
  array<%s> a;
  array<%s> b;
  a = array_create(%d, %s, %s, %s, init, DISTR_DEFAULT);
  b = array_create(%d, %s, %s, %s, init, DISTR_DEFAULT);
  array_map(f(%s), a, b);
  %s r = array_fold(conv, merge, b);
  print_%s(r);
  array_destroy(a);
  array_destroy(b);
}
|}
    tname init_e tname tname tname map_e tname tname conv_e tname tname
    tname merge_e tname tname dim size zeros negs dim size zeros negs cval
    tname tname

let prop_specialisation_unobservable src =
  let run s = Test_paths.observe s src in
  let a = run { Test_paths.default with engine = `Ast } in
  Test_paths.agrees Bytes a (run Test_paths.default)

(* Element functions with random loop control: a while loop nested in a
   for loop, each able to break, continue or return at a random point.
   Every loop is bounded (the while counter moves before any continue). *)
let gen_loop_program =
  let ctl =
    oneofl [ "break;"; "continue;"; "return r + 7;"; "r = r + 1;" ]
  in
  int_range 0 4 >>= fun l1 ->
  int_range 0 4 >>= fun l2 ->
  int_range 1 4 >>= fun m1 ->
  int_range 1 4 >>= fun m2 ->
  int_range (-5) 20 >>= fun t ->
  ctl >>= fun s1 ->
  ctl >>= fun s2 ->
  ctl >>= fun s3 ->
  int_range 2 9 >>= fun n ->
  int_range (-3) 3 >|= fun c ->
  Printf.sprintf
    {|
int f(int c, int elem, Index ix) {
  int r = elem;
  for (int i = 0; i < %d; i++) {
    if ((i + ix[0]) %% %d == 0) %s
    int j = 0;
    while (j < %d) {
      j = j + 1;
      if ((j + r) %% %d == 0) %s
      r = r + i * j - c;
    }
    if (r > %d) %s
  }
  return r;
}
int init(Index ix) { return ix[0]; }
int addi(int a, int b) { return a + b; }
void main() {
  array<int> a = array_create(1, {%d}, {0}, {-1}, init, DISTR_DEFAULT);
  array<int> b = array_create(1, {%d}, {0}, {-1}, init, DISTR_DEFAULT);
  array_map(f(%d), a, b);
  print_int(array_fold(f(1), addi, b));
  print_int(f(2, procId, {procId}));
  array_destroy(a);
  array_destroy(b);
}
|}
    l1 m1 s1 l2 m2 s2 t s3 n n c

let suite =
  [
    ( "specialize",
      [
        qt "random monomorphic programs: ast = spec" gen_program
          prop_specialisation_unobservable;
        qt "random loop control: ast = spec" gen_loop_program
          prop_specialisation_unobservable;
      ] );
  ]
