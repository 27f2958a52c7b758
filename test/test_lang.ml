(* The mini-Skil language: lexer, parser, type system, interpreter,
   translation by instantiation, SPMD execution and the C back end. *)

(* substring containment without extra libraries *)
let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let toks src =
  List.map (fun t -> t.Token.tok) (Lexer.tokenize src)

(* ---------------- lexer ---------------- *)

let test_lexer_basic () =
  Alcotest.(check bool) "ints/floats" true
    (toks "42 3.5 0.5e2"
     = [ Token.INT 42; Token.FLOAT 3.5; Token.FLOAT 50.0; Token.EOF ]);
  Alcotest.(check bool) "tyvar" true
    (toks "$t $abc" = [ Token.TYVAR "t"; Token.TYVAR "abc"; Token.EOF ]);
  Alcotest.(check bool) "keywords vs idents" true
    (toks "if iffy"
     = [ Token.KW "if"; Token.IDENT "iffy"; Token.EOF ])

let test_lexer_sections () =
  Alcotest.(check bool) "(+)" true
    (toks "(+)" = [ Token.OPSECTION "+"; Token.EOF ]);
  Alcotest.(check bool) "( * )" true
    (toks "( * )" = [ Token.OPSECTION "*"; Token.EOF ]);
  Alcotest.(check bool) "(<=)" true
    (toks "(<=)" = [ Token.OPSECTION "<="; Token.EOF ]);
  Alcotest.(check bool) "not a section" true
    (toks "(a + b)"
     = [ Token.PUNCT "("; Token.IDENT "a"; Token.PUNCT "+"; Token.IDENT "b";
         Token.PUNCT ")"; Token.EOF ]);
  Alcotest.(check bool) "unary minus not a section" true
    (toks "(-x)"
     = [ Token.PUNCT "("; Token.PUNCT "-"; Token.IDENT "x"; Token.PUNCT ")";
         Token.EOF ])

let test_lexer_comments () =
  Alcotest.(check bool) "both styles" true
    (toks "1 /* mid */ 2 // line\n3"
     = [ Token.INT 1; Token.INT 2; Token.INT 3; Token.EOF ])

let test_lexer_strings_chars () =
  Alcotest.(check bool) "escapes" true
    (toks {|"a\nb" 'x'|} = [ Token.STRING "a\nb"; Token.CHAR 'x'; Token.EOF ])

let test_lexer_errors () =
  Alcotest.(check bool) "unterminated string" true
    (try ignore (Lexer.tokenize "\"abc"); false with Lexer.Error _ -> true);
  Alcotest.(check bool) "unterminated comment" true
    (try ignore (Lexer.tokenize "/* abc"); false with Lexer.Error _ -> true);
  Alcotest.(check bool) "bad char" true
    (try ignore (Lexer.tokenize "@"); false with Lexer.Error _ -> true);
  Alcotest.(check bool) "preprocessor lines skipped" true
    (toks "#include <x.h>\n1" = [ Token.INT 1; Token.EOF ])

(* Literals OCaml cannot convert (an int past max_int, an exponent with no
   digits) are lexical errors at the literal: class syntax, skilc's exit
   code 3.  The largest int and signed exponents still lex. *)
let unconvertible_literals =
  [
    ("4611686018427387904", "integer literal out of range");
    ("1.e", "malformed float literal");
    ("1.5e+", "malformed float literal");
    ("1.5E-", "malformed float literal");
  ]

let literal_src lit =
  Printf.sprintf "int main() {\n  int x = %s;\n  return 0;\n}\n" lit

let test_lexer_literals () =
  Alcotest.(check bool) "max_int, 1.5e+3, 2.5E-1" true
    (toks "4611686018427387903 1.5e+3 2.5E-1"
     = [ Token.INT max_int; Token.FLOAT 1500.0; Token.FLOAT 0.25; Token.EOF ]);
  let file = Filename.temp_file "skil_literal" ".skil" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      List.iter
        (fun (lit, what) ->
          Out_channel.with_open_bin file (fun oc ->
              output_string oc (literal_src lit));
          let want =
            Printf.sprintf "%s:2:11: lexical error: %s: %s\n" file what lit
          in
          List.iter
            (fun args ->
              Alcotest.(check (pair int string))
                (String.concat " " ("skilc" :: args))
                (3, want)
                (Test_paths.status (Test_paths.skilc ()) args))
            [ [ "check"; file ]; [ "run-par"; file; "--entry"; "main" ] ])
        unconvertible_literals)

(* ---------------- parser ---------------- *)

let test_parser_precedence () =
  let e = Parser.parse_expr "1 + 2 * 3 == 7 && 1" in
  (match e.Ast.desc with
   | Ast.Binop ("&&", { Ast.desc = Ast.Binop ("==", _, _); _ }, _) -> ()
   | _ -> Alcotest.fail "precedence shape");
  let e = Parser.parse_expr "a - b - c" in
  match e.Ast.desc with
  | Ast.Binop ("-", { Ast.desc = Ast.Binop ("-", _, _); _ }, _) -> ()
  | _ -> Alcotest.fail "left associativity"

let test_parser_postfix () =
  let e = Parser.parse_expr "a->next->elem" in
  (match e.Ast.desc with
   | Ast.Arrow ({ Ast.desc = Ast.Arrow _; _ }, "elem") -> ()
   | _ -> Alcotest.fail "arrow chain");
  let e = Parser.parse_expr "f(1)(2)" in
  match e.Ast.desc with
  | Ast.Call ({ Ast.desc = Ast.Call _; _ }, _) -> ()
  | _ -> Alcotest.fail "curried call"

let test_parser_array_literal () =
  let e = Parser.parse_expr "{n, n+1}" in
  match e.Ast.desc with
  | Ast.ArrayLit [ _; _ ] -> ()
  | _ -> Alcotest.fail "array literal"

let test_parser_program_shapes () =
  let p =
    Parser.parse
      {|
        struct _pair { $a fst; $b snd; };
        typedef struct _pair<$a,$b> * pair<$a,$b>;
        pardata stream<$t>;
        int twice(int f (int), int x) { return f(f(x)); }
        float g(float x);
      |}
  in
  match p with
  | [ Ast.TStruct s; Ast.TTypedef td; Ast.TPardata pd; Ast.TFunc f;
      Ast.TFunc proto ] ->
      Alcotest.(check (list string)) "struct params inferred" [ "a"; "b" ]
        s.Ast.s_params;
      Alcotest.(check string) "typedef name" "pair" td.Ast.td_name;
      Alcotest.(check string) "pardata" "stream" pd.Ast.pd_name;
      (match (List.hd f.Ast.f_params).Ast.p_type with
       | Ast.TFun ([ Ast.TInt ], Ast.TInt) -> ()
       | _ -> Alcotest.fail "functional parameter type");
      Alcotest.(check bool) "prototype" true (proto.Ast.f_body = None)
  | _ -> Alcotest.fail "top-level shapes"

let test_parser_compound_assignment () =
  let e = Parser.parse_expr "x += 2" in
  (match e.Ast.desc with
   | Ast.Assign ({ Ast.desc = Ast.Var "x"; _ },
                 { Ast.desc = Ast.Binop ("+", _, _); _ }) -> ()
   | _ -> Alcotest.fail "+= desugars to assignment");
  let e = Parser.parse_expr "x *= y + 1" in
  match e.Ast.desc with
  | Ast.Assign (_, { Ast.desc = Ast.Binop ("*", _, _); _ }) -> ()
  | _ -> Alcotest.fail "*= desugars"

let test_parser_statements () =
  let p =
    Parser.parse
      {|
        int f(int n) {
          int acc = 0;
          for (int i = 0; i < n; i++) {
            if (i % 2 == 0) continue;
            acc = acc + i;
            while (0) break;
          }
          return acc;
        }
      |}
  in
  Alcotest.(check int) "parsed" 1 (List.length p)

let test_parser_errors () =
  List.iter
    (fun src ->
      Alcotest.(check bool) ("rejects " ^ src) true
        (try
           ignore (Parser.parse src);
           false
         with Parser.Error _ | Lexer.Error _ -> true))
    [ "int f( { }"; "int f() { return }"; "int f() { x = ; }";
      "struct S { int; };" ]

(* ---------------- typecheck ---------------- *)

let check_ok src =
  let p = Parser.parse src in
  ignore (Typecheck.check p)

let check_fails src =
  let p = Parser.parse src in
  try
    ignore (Typecheck.check p);
    false
  with Typecheck.Type_error _ -> true

let test_typecheck_accepts () =
  check_ok
    {|
      $a identity($a x) { return x; }
      int main() { return identity(41) + 1; }
    |};
  check_ok
    {|
      $b apply($b f ($a), $a x) { return f(x); }
      int inc(int x) { return x + 1; }
      int main() { return apply(inc, 1); }
    |};
  check_ok
    {|
      int main() {
        array<float> a;
        a = array_create(1, {4}, {0}, {-1}, sqrt_of, DISTR_DEFAULT);
        return 0;
      }
      float sqrt_of(Index ix) { return sqrt(itof(ix[0])); }
    |}

let test_typecheck_polymorphic_currying () =
  (* partial application yields the remaining function type *)
  check_ok
    {|
      int add3(int a, int b, int c) { return a + b + c; }
      int call(int f (int), int x) { return f(x); }
      int main() { return call(add3(1, 2), 4); }
    |}

let test_typecheck_rejects () =
  Alcotest.(check bool) "int vs float" true
    (check_fails "int main() { return 1.5; }");
  Alcotest.(check bool) "unbound" true
    (check_fails "int main() { return nope; }");
  Alcotest.(check bool) "arity" true
    (check_fails
       "int f(int x) { return x; } int main() { return f(1, 2); }");
  Alcotest.(check bool) "bad field" true
    (check_fails
       "struct _p { int x; }; int main() { struct _p p; return p.y; }");
  Alcotest.(check bool) "condition not scalar" true
    (check_fails
       {|int main() { array<int> a; if (a) return 1; return 0; }|});
  Alcotest.(check bool) "operator misuse" true
    (check_fails "int main() { return 1 + \"x\"; }")

(* break/continue must sit inside a loop body; a for loop's initialiser
   is outside it *)
let test_typecheck_loop_control () =
  let rejects src =
    match Typecheck.check (Parser.parse src) with
    | _ -> Alcotest.failf "accepted %s" src
    | exception Typecheck.Type_error { message; _ } -> message
  in
  Alcotest.(check string)
    "continue" "continue statement not within a loop"
    (rejects "void main() { continue; }");
  Alcotest.(check string)
    "break" "break statement not within a loop"
    (rejects "int main() { if (1) { break; } return 0; }");
  ignore (rejects "int f(int x) { while (x) { x = 0; } break; return x; }");
  check_ok
    {|
      int main() {
        int s = 0;
        for (int i = 0; i < 4; i++) {
          if (i == 1) continue;
          while (1) { if (s > 100) { continue; } break; }
          s = s + i;
        }
        return s;
      }
    |}

let test_typecheck_pardata_restrictions () =
  (* "Distributed data structures may not be nested, in particular the type
     arguments of a pardata construct cannot be instantiated with other
     pardatas" (section 2.3) *)
  Alcotest.(check bool) "nested arrays rejected" true
    (check_fails
       {|int main() { array<array<int>> a; return 0; }|});
  Alcotest.(check bool) "pardata inside struct rejected" true
    (check_fails
       {|struct _box { array<int> a; };
         int main() { struct _box b; return 0; }|});
  (* a bare pardata as a polymorphic instantiation is fine *)
  check_ok
    {|
      $a identity($a x) { return x; }
      int zero(Index ix) { return 0; }
      int main() {
        array<int> a;
        a = array_create(1, {4}, {0}, {-1}, zero, DISTR_DEFAULT);
        a = identity(a);
        return 0;
      }
    |}

let test_typecheck_records_instantiation () =
  let p =
    Parser.parse
      {|
        $a pick($a x, $a y) { return x; }
        float main() { return pick(1.5, 2.5); }
      |}
  in
  let env = Typecheck.check p in
  ignore env;
  let found = ref None in
  List.iter
    (function
      | Ast.TFunc { Ast.f_name = "main"; f_body = Some body; _ } ->
          let rec scan_expr (e : Ast.expr) =
            (match e.Ast.desc with
             | Ast.Var "pick" -> found := Some e.Ast.inst
             | _ -> ());
            match e.Ast.desc with
            | Ast.Call (f, args) ->
                scan_expr f;
                List.iter scan_expr args
            | _ -> ()
          in
          List.iter
            (function Ast.SReturn (Some e) -> scan_expr e | _ -> ())
            body
      | _ -> ())
    p;
  match !found with
  | Some [ (_, Ast.TFloat) ] -> ()
  | _ -> Alcotest.fail "expected pick instantiated at float"

(* ---------------- interpreter ---------------- *)

let run_main ?(entry = "main") ?(args = []) src =
  let p = Parser.parse src in
  let env = Typecheck.check p in
  let st = Interp.make ~tyenv:env p in
  let v = Interp.call st entry args in
  (v, Interp.output st)

let test_interp_compound_assignment () =
  let v, _ =
    run_main
      {|
        int main() {
          int x = 10;
          x += 5; x *= 2; x -= 6; x /= 4; x %= 4;
          return x;
        }
      |}
  in
  (* 10+5=15, *2=30, -6=24, /4=6, %4=2 *)
  Alcotest.(check bool) "compound ops" true (v = Value.VInt 2)

let test_interp_arith_control () =
  let v, _ =
    run_main
      {|
        int main() {
          int acc = 0;
          for (int i = 0; i < 10; i++) {
            if (i % 3 == 0) continue;
            acc = acc + i;
            if (acc > 20) break;
          }
          return acc;
        }
      |}
  in
  (* i: 1,2 (acc 3), 4,5 (12), 7 (19), 8 (27 -> break) *)
  Alcotest.(check bool) "loop result" true (v = Value.VInt 27)

let test_interp_structs_pointers () =
  let v, _ =
    run_main
      {|
        struct _box { int v; };
        int main() {
          struct _box b;
          struct _box *p;
          b.v = 1;
          p = new(b);
          b.v = 2;        /* the new() made a copy: *p keeps 1 */
          return p->v * 10 + b.v;
        }
      |}
  in
  Alcotest.(check bool) "value semantics" true (v = Value.VInt 12)

let test_interp_currying () =
  let v, _ =
    run_main
      {|
        int add3(int a, int b, int c) { return a + b + c; }
        int apply1(int f (int), int x) { return f(x); }
        int main() { return apply1(add3(10, 20), 3); }
      |}
  in
  Alcotest.(check bool) "partial application" true (v = Value.VInt 33)

let test_interp_operator_sections () =
  let v, _ =
    run_main
      {|
        $c fold2($c f ($c, $c), $c a, $c b) { return f(a, b); }
        int main() { return fold2((+), 30, fold2((*), 2, 6)); }
      |}
  in
  Alcotest.(check bool) "sections" true (v = Value.VInt 42)

let test_interp_prints () =
  let _, out =
    run_main
      {|
        void main() {
          print_string("x=");
          print_int(3);
          print_char('!');
          print_float(2.5);
        }
      |}
  in
  Alcotest.(check string) "output" "x=3!2.5" out

let test_interp_runtime_errors () =
  List.iter
    (fun src ->
      Alcotest.(check bool) ("raises: " ^ src) true
        (try
           ignore (run_main src);
           false
         with Value.Skil_runtime_error _ -> true))
    [
      "int main() { return 1 / 0; }";
      {|struct _b { int v; }; int main() { struct _b *p = NULL; return p->v; }|};
      {|int main() { error("boom"); return 0; }|};
      {|int main() { array<int> a; a = array_create(1, {3}, {0}, {-1}, z, DISTR_DEFAULT); return 0; } int z(Index ix) { return 0; }|};
    ]

(* ---------------- instantiation ---------------- *)

let instantiate src ~entry =
  let p = Parser.parse src in
  let env = Typecheck.check p in
  Instantiate.program env p ~entries:[ entry ]

let outputs_match ?(entry = "main") ?(args = []) src =
  let p = Parser.parse src in
  let env = Typecheck.check p in
  let st = Interp.make ~tyenv:env p in
  let v1 = Interp.call st entry args in
  let o1 = Interp.output st in
  let fo = Instantiate.program env p ~entries:[ entry ] in
  Alcotest.(check bool) "first order" true (Instantiate.is_first_order fo);
  let env2 = Typecheck.check fo in
  let st2 = Interp.make ~tyenv:env2 fo in
  let v2 = Interp.call st2 entry args in
  let o2 = Interp.output st2 in
  Alcotest.(check bool) "same value" true (v1 = v2);
  Alcotest.(check string) "same output" o1 o2

let quicksort_src =
  {|
    struct _list { $t elem; struct _list<$t> *next; };
    typedef struct _list<$t> * list<$t>;
    list<$a> nil() { return NULL; }
    list<$a> cons($a x, list<$a> xs) {
      struct _list<$a> cell;
      cell.elem = x; cell.next = xs;
      return new(cell);
    }
    int is_empty(list<$a> xs) { return xs == NULL; }
    list<$a> append(list<$a> xs, list<$a> ys) {
      if (is_empty(xs)) return ys;
      return cons(xs->elem, append(xs->next, ys));
    }
    $b dc(int is_trivial ($a), $b solve ($a), list<$a> split ($a),
          $b join (list<$b>), $a problem) {
      if (is_trivial(problem)) return solve(problem);
      else return join(map(dc(is_trivial, solve, split, join),
                           split(problem)));
    }
    list<$b> map($b f ($a), list<$a> xs) {
      if (is_empty(xs)) return nil();
      return cons(f(xs->elem), map(f, xs->next));
    }
    int is_simple(list<int> xs) { return is_empty(xs) || is_empty(xs->next); }
    list<int> ident(list<int> xs) { return xs; }
    list<list<int>> divide(list<int> xs) {
      int pivot = xs->elem;
      list<int> small = nil();
      list<int> big = nil();
      list<int> rest = xs->next;
      while (!is_empty(rest)) {
        if (rest->elem < pivot) small = cons(rest->elem, small);
        else big = cons(rest->elem, big);
        rest = rest->next;
      }
      return cons(small, cons(cons(pivot, nil()), cons(big, nil())));
    }
    list<int> conc(list<list<int>> parts) {
      if (is_empty(parts)) return nil();
      return append(parts->elem, conc(parts->next));
    }
    void print_list(list<int> xs) {
      while (!is_empty(xs)) { print_int(xs->elem); print_string(" "); xs = xs->next; }
    }
    void main() {
      print_list(dc(is_simple, ident, divide, conc,
                    cons(3, cons(1, cons(4, cons(1, cons(5, nil())))))));
    }
  |}

let test_instantiate_preserves_quicksort () = outputs_match quicksort_src

let test_instantiate_first_order_dc () =
  let fo = instantiate quicksort_src ~entry:"main" in
  Alcotest.(check bool) "is first order" true (Instantiate.is_first_order fo);
  (* the recursive HOF dc must have exactly one specialization *)
  let dcs =
    List.filter_map
      (function
        | Ast.TFunc f
          when String.length f.Ast.f_name >= 3
               && String.sub f.Ast.f_name 0 3 = "dc_" ->
            Some f
        | _ -> None)
      fo
  in
  Alcotest.(check int) "one dc instance" 1 (List.length dcs);
  (* and that instance takes only the problem (all four functionals inlined) *)
  Alcotest.(check int) "dc arity" 1
    (List.length (List.hd dcs).Ast.f_params)

let test_instantiate_monomorphizes_by_type () =
  let fo =
    instantiate ~entry:"main"
      {|
        $a pick($a x, $a y) { return x; }
        int main() {
          float f = pick(1.5, 2.5);
          return pick(1, 2) + ftoi(f);
        }
      |}
  in
  let picks =
    List.filter_map
      (function
        | Ast.TFunc f
          when String.length f.Ast.f_name >= 5
               && String.sub f.Ast.f_name 0 5 = "pick_" ->
            Some f.Ast.f_ret
        | _ -> None)
      fo
  in
  Alcotest.(check int) "two instances" 2 (List.length picks);
  Alcotest.(check bool) "int and float" true
    (List.mem Ast.TInt picks && List.mem Ast.TFloat picks)

let test_instantiate_lifts_partial_data () =
  outputs_match
    {|
      int apply1(int f (int), int x) { return f(x); }
      int addmul(int a, int b, int x) { return a * x + b; }
      int main() { return apply1(addmul(3, 4), 10); }
    |};
  let fo =
    instantiate ~entry:"main"
      {|
        int apply1(int f (int), int x) { return f(x); }
        int addmul(int a, int b, int x) { return a * x + b; }
        int main() { return apply1(addmul(3, 4), 10); }
      |}
  in
  let apply1 =
    List.find_map
      (function
        | Ast.TFunc f when f.Ast.f_name <> "main" && f.Ast.f_name <> "addmul"
          ->
            Some f
        | _ -> None)
      fo
  in
  match apply1 with
  | Some f ->
      (* f's parameter was replaced by the two lifted ints plus x *)
      Alcotest.(check int) "lifted params" 3 (List.length f.Ast.f_params)
  | None -> Alcotest.fail "no apply1 instance"

let test_instantiate_operator_sections () =
  outputs_match
    {|
      int fold2(int f (int, int), int a, int b) { return f(a, b); }
      int main() { return fold2((+), 1, 2) * fold2((*), 3, 4); }
    |}

let test_instantiate_distinct_specs_per_funarg () =
  (* the same HOF used with two different functional arguments must yield
     two specializations, and with the same argument only one *)
  let fo =
    instantiate ~entry:"main"
      {|
        int apply1(int f (int), int x) { return f(x); }
        int inc(int x) { return x + 1; }
        int dec(int x) { return x - 1; }
        int main() {
          return apply1(inc, 1) + apply1(dec, 10) + apply1(inc, 100);
        }
      |}
  in
  let apply1s =
    List.filter
      (function
        | Ast.TFunc f ->
            String.length f.Ast.f_name >= 7
            && String.sub f.Ast.f_name 0 7 = "apply1_"
        | _ -> false)
      fo
  in
  Alcotest.(check int) "two instances" 2 (List.length apply1s)

let test_instantiate_operator_lift_types () =
  (* a partially applied multiplication on ints and on floats gives
     differently typed lifted parameters *)
  let fo =
    instantiate ~entry:"main"
      {|
        $a apply1($a f ($a), $a x) { return f(x); }
        int main() {
          float y = apply1((*)(2.0), 3.0);
          return apply1((*)(2), 3) + ftoi(y);
        }
      |}
  in
  let lifted_types =
    List.filter_map
      (function
        | Ast.TFunc f
          when String.length f.Ast.f_name >= 7
               && String.sub f.Ast.f_name 0 7 = "apply1_" -> (
            match f.Ast.f_params with
            | { Ast.p_type; _ } :: _ -> Some p_type
            | [] -> None)
        | _ -> None)
      fo
  in
  Alcotest.(check bool) "int and float lifted params" true
    (List.mem Ast.TInt lifted_types && List.mem Ast.TFloat lifted_types)

let test_nested_break_inner_only () =
  let v, _ =
    run_main
      {|
        int main() {
          int total = 0;
          for (int i = 0; i < 3; i++) {
            int j = 0;
            while (1) {
              j++;
              if (j == 2) break;
            }
            total += j;
          }
          return total;
        }
      |}
  in
  Alcotest.(check bool) "break exits inner loop only" true (v = Value.VInt 6)

let test_instantiate_repassed_lift_types () =
  (* a partial application with float lifts passed through TWO levels of
     HOFs must keep its lifted parameter typed float *)
  let fo =
    instantiate ~entry:"main"
      {|
        float apply1(float f (float), float x) { return f(x); }
        float outer(float g (float), float x) { return apply1(g, x); }
        float scale(float k, float x) { return k * x; }
        int main() { return ftoi(outer(scale(2.5), 4.0)); }
      |}
  in
  let ok = ref false in
  List.iter
    (function
      | Ast.TFunc f
        when String.length f.Ast.f_name >= 6
             && String.sub f.Ast.f_name 0 6 = "outer_" -> (
          match f.Ast.f_params with
          | { Ast.p_type = Ast.TFloat; p_name } :: _
            when String.length p_name > 5 -> ok := true
          | _ -> ())
      | _ -> ())
    fo;
  Alcotest.(check bool) "float lift survives re-passing" true !ok;
  (* and the whole thing still computes correctly *)
  outputs_match
    {|
      float apply1(float f (float), float x) { return f(x); }
      float outer(float g (float), float x) { return apply1(g, x); }
      float scale(float k, float x) { return k * x; }
      int main() { return ftoi(outer(scale(2.5), 4.0)); }
    |}

let test_instantiate_rejects_computed_function () =
  let src =
    {|
      int apply1(int f (int), int x) { return f(x); }
      int inc(int x) { return x + 1; }
      int dec(int x) { return x - 1; }
      int main(int c) {
        return apply1(c ? inc : dec, 1);
      }
    |}
  in
  let p = Parser.parse src in
  let env = Typecheck.check p in
  Alcotest.(check bool) "unsupported" true
    (try
       ignore (Instantiate.program env p ~entries:[ "main" ]);
       false
     with Instantiate.Unsupported _ -> true)

(* The pass lists (and numbers) its instances in the order it finishes
   them, and it reaches a node's children last to first: [g] before [f],
   the else branch before the then branch.  The corpus's printed output
   would not change under another order; this does. *)
let test_instantiate_order () =
  let fo =
    instantiate ~entry:"main"
      {|
        int f(int x) { return x + 1; }
        int g(int x) { return x * 2; }
        int h(int x) { return x - 3; }
        $t id($t x) { return x; }
        int main() {
          int a = f(1) + g(2);
          if (a > 0) { a = h(a); } else { a = id(a); }
          float z = id(1.5);
          return a;
        }
      |}
  in
  Alcotest.(check (list string))
    "instances in order"
    [ "g"; "f"; "id_1"; "h"; "id_2"; "main" ]
    (List.filter_map
       (function Ast.TFunc fn -> Some fn.Ast.f_name | _ -> None)
       fo)

(* ---------------- SPMD execution ---------------- *)

let shpaths_src =
  {|
    int init_f(Index ix) {
      if (ix[0] == ix[1]) return 0;
      return 1 + (ix[0] * 7 + ix[1] * 13) % 9;
    }
    int zero(Index ix) { return 0; }
    int inf_elem(Index ix) { return int_max; }
    void shpaths(int n) {
      array<int> a; array<int> b; array<int> c;
      a = array_create(2, {n,n}, {0,0}, {-1,-1}, init_f, DISTR_TORUS2D);
      b = array_create(2, {n,n}, {0,0}, {-1,-1}, zero, DISTR_TORUS2D);
      c = array_create(2, {n,n}, {0,0}, {-1,-1}, int_max_f, DISTR_TORUS2D);
      for (int i = 0; i < log2(n); i++) {
        array_copy(a, b);
        array_gen_mult(a, b, min, (+), c);
        array_copy(c, a);
      }
      if (procId == 0) {
        for (int j = 0; j < n / 2; j++) {
          print_int(array_get_elem(c, {0, j}));
          print_string(" ");
        }
      }
      array_destroy(a); array_destroy(b); array_destroy(c);
    }
    int int_max_f(Index ix) { return int_max; }
  |}

let spmd_output ?instantiate ~q src ~entry ~args =
  let r =
    Spmd.run_source ?instantiate
      ~topology:(Topology.torus2d ~width:q ~height:q ())
      src ~entry ~args
  in
  (r.Machine.values.(0)).Spmd.printed

let test_spmd_shpaths_matches_reference () =
  let n = 8 in
  let weight ix =
    if ix.(0) = ix.(1) then 0 else 1 + (((ix.(0) * 7) + (ix.(1) * 13)) mod 9)
  in
  let fw = Shortest_paths.floyd_warshall ~n ~weight in
  let expected =
    String.concat "" (List.init (n / 2) (fun j -> string_of_int fw.(j) ^ " "))
  in
  List.iter
    (fun q ->
      Alcotest.(check string)
        (Printf.sprintf "direct q=%d" q)
        expected
        (spmd_output ~instantiate:false ~q shpaths_src ~entry:"shpaths"
           ~args:[ Value.VInt n ]);
      Alcotest.(check string)
        (Printf.sprintf "instantiated q=%d" q)
        expected
        (spmd_output ~instantiate:true ~q shpaths_src ~entry:"shpaths"
           ~args:[ Value.VInt n ]))
    [ 1; 2 ]

let test_spmd_above_thresh () =
  let src =
    {|
      int above_thresh(float thresh, float elem, Index ix) {
        return elem >= thresh;
      }
      float init_a(Index ix) { return itof(ix[0]) / 4.0; }
      int zero_i(Index ix) { return 0; }
      void main(int n) {
        array<float> a; array<int> b;
        float t = 1.0;
        a = array_create(1, {n}, {0}, {-1}, init_a, DISTR_DEFAULT);
        b = array_create(1, {n}, {0}, {-1}, zero_i, DISTR_DEFAULT);
        array_map(above_thresh(t), a, b);
        if (procId == 0) {
          Bounds bds = array_part_bounds(b);
          for (int i = 0; i <= bds->upperBd[0]; i++) {
            print_int(array_get_elem(b, {i}));
          }
        }
      }
    |}
  in
  let r =
    Spmd.run_source ~topology:(Topology.mesh ~width:2 ~height:1) src
      ~entry:"main" ~args:[ Value.VInt 8 ]
  in
  (* elements 0/4,1/4,...,7/4; >= 1.0 from index 4 on; rank 0 holds 0..3 *)
  Alcotest.(check string) "thresholds" "0000"
    (r.Machine.values.(0)).Spmd.printed

let test_spmd_timing_nonzero () =
  let r =
    Spmd.run_source ~topology:(Topology.torus2d ~width:2 ~height:2 ())
      shpaths_src ~entry:"shpaths" ~args:[ Value.VInt 8 ]
  in
  Alcotest.(check bool) "simulated time advanced" true (r.Machine.time > 0.0)

(* ---------------- C back end ---------------- *)

let test_emit_c_paper_example () =
  let src =
    {|
      int above_thresh(float thresh, float elem, Index ix) {
        return elem >= thresh;
      }
      float init_a(Index ix) { return itof(ix[0]); }
      int zero_i(Index ix) { return 0; }
      void main(int n) {
        array<float> a; array<int> b;
        float t = 1.0;
        a = array_create(1, {n}, {0}, {-1}, init_a, DISTR_DEFAULT);
        b = array_create(1, {n}, {0}, {-1}, zero_i, DISTR_DEFAULT);
        array_map(above_thresh(t), a, b);
      }
    |}
  in
  let p = Parser.parse src in
  let env = Typecheck.check p in
  let fo = Instantiate.program env p ~entries:[ "main" ] in
  let c = Emit_c.program fo in
  let contains needle =
    Alcotest.(check bool) ("emits " ^ needle) true (contains_sub c needle)
  in
  contains "floatarray";
  contains "intarray";
  contains "array_map_1 (t, a, b)";
  contains "int above_thresh (float thresh, float elem, Index ix)"

let test_emit_c_struct_instances () =
  let fo = instantiate quicksort_src ~entry:"main" in
  let c = Emit_c.program fo in
  Alcotest.(check bool) "struct instance" true
    (contains_sub c "struct _list_int")

let test_runtime_header () =
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("header has " ^ needle) true
        (contains_sub Emit_c.runtime_header needle))
    [
      "SKIL_RUNTIME_H"; "array_gen_mult"; "array_broadcast_part";
      "DISTR_TORUS2D"; "Bounds"; "procId";
    ]

let test_mangle_type () =
  Alcotest.(check string) "array<float>" "floatarray"
    (Emit_c.mangle_type (Ast.TNamed ("array", [ Ast.TFloat ])));
  Alcotest.(check string) "ptr" "int *" (Emit_c.mangle_type (Ast.TPtr Ast.TInt));
  Alcotest.(check string) "struct" "struct _list_int"
    (Emit_c.mangle_type (Ast.TNamed ("struct _list", [ Ast.TInt ])))

(* ---------------- standalone C ---------------- *)

(* Programs the standalone emitter cannot close into a self-contained
   sequential binary are rejected up front, not miscompiled. *)
let test_standalone_rejects () =
  let reject ?(names = "") name ~entry src =
    let p = Parser.parse src in
    let env = Typecheck.check p in
    let fo = Instantiate.program env p ~entries:[ entry ] in
    match Emit_c.standalone fo ~entry ~args:[ 4 ] with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument m ->
        if not (Test_machine.contains m names) then
          Alcotest.failf "%s: %S does not name %S" name m names
  in
  reject "struct without type parameters" ~entry:"go" ~names:"struct _pt"
    {|
      struct _pt { int x; int y; };
      void go(int n) { struct _pt p; p.x = n; print_int(p.x); }
    |};
  reject "typedef without type parameters" ~entry:"go" ~names:"typedef real"
    {|
      typedef float real;
      void go(int n) { real x = itof(n); print_float(x); }
    |};
  reject "fold into another type" ~entry:"go" ~names:"array_fold"
    {|
      float init_a(Index ix) { return itof(ix[0]); }
      int conv(float v, Index ix) { return ix[0]; }
      int addi(int a, int b) { return a + b; }
      void go(int n) {
        array<float> a = array_create(1, {n}, {0}, {-1}, init_a, DISTR_DEFAULT);
        print_int(array_fold(conv, addi, a));
      }
    |};
  reject "entry named main" ~entry:"main"
    {| void main(int n) { print_int(n); } |};
  reject "mixed array element types" ~entry:"go"
    {|
      float init_a(Index ix) { return itof(ix[0]); }
      int zero_i(Index ix) { return 0; }
      void go(int n) {
        array<float> a; array<int> b;
        a = array_create(1, {n}, {0}, {-1}, init_a, DISTR_DEFAULT);
        b = array_create(1, {n}, {0}, {-1}, zero_i, DISTR_DEFAULT);
      }
    |}

(* Bad indices in skeleton calls on a {2, 4} array over a 2x1 mesh: a
   non-local element access is a runtime error naming the processor and the
   index, and a broadcast root outside the array is rejected on every rank
   before any message (the skeleton layer's argument-error class) — on
   every engine, and under every collectives mode for the broadcast. *)
let bad_index_src body =
  Printf.sprintf
    "int init(Index ix) { return ix[0] * 10 + ix[1]; }\n\
     void main() {\n\
    \  array<int> a;\n\
    \  a = array_create(2, {2, 4}, {0, 0}, {-1, -1}, init, DISTR_DEFAULT);\n\
    \  %s;\n\
    \  array_destroy(a);\n\
     }\n"
    body

let test_bad_indices_classified () =
  let topology = Topology.mesh ~width:2 ~height:1 in
  let expect ?(collectives = Coll_alg.Legacy) ~engine body cls needles =
    match
      Spmd.run_source ~engine ~collectives ~topology (bad_index_src body)
        ~entry:"main" ~args:[]
    with
    | _ -> Alcotest.failf "%s: expected an error" body
    | exception e -> (
        match Errclass.of_exn e with
        | None ->
            Alcotest.failf "%s: unclassified %s" body (Printexc.to_string e)
        | Some (got, msg) ->
            Alcotest.(check string) (body ^ " class") (Errclass.name cls)
              (Errclass.name got);
            List.iter
              (fun needle ->
                if not (Test_machine.contains msg needle) then
                  Alcotest.failf "%s: %S does not mention %S" body msg needle)
              needles)
  in
  List.iter
    (fun engine ->
      expect ~engine "print_int(array_get_elem(a, {7, 0}))" Errclass.Runtime
        [ "{7,0}"; "processor 0" ];
      expect ~engine "array_put_elem(a, {7, 0}, 1)" Errclass.Runtime
        [ "{7,0}"; "processor 0" ];
      List.iter
        (fun collectives ->
          List.iter
            (fun ix ->
              expect ~engine ~collectives
                (Printf.sprintf "array_broadcast_part(a, %s)" ix)
                Errclass.Invalid
                [ "array_broadcast_part"; String.concat "" (String.split_on_char ' ' ix) ])
            [ "{2, 0}"; "{-1, 0}" ])
        [ Coll_alg.Legacy; Coll_alg.Auto; Coll_alg.Force Coll_alg.Tree ])
    [ `Ast; `Compiled; `Native ]

(* The native engine's options are rejected on the simulator engines, and
   the simulator's on the native one, instead of being ignored: class
   invalid, skilc's exit code 2.  A shard count below one is rejected on
   the native engine too. *)
let test_native_options_rejected () =
  let topology = Topology.mesh ~width:2 ~height:1 in
  let run engine ?native_domains ?faults ?reliable ?trace ?sim_domains () =
    Spmd.run_source ~engine ?native_domains ?faults ?reliable ?trace
      ?sim_domains ~topology "int main() { return 1; }\n" ~entry:"main"
      ~args:[]
  in
  let rejected what go =
    match go () with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception e -> (
        match Errclass.of_exn e with
        | None ->
            Alcotest.failf "%s: unclassified %s" what (Printexc.to_string e)
        | Some (cls, _) ->
            Alcotest.(check string) (what ^ " class") "invalid"
              (Errclass.name cls);
            Alcotest.(check int) (what ^ " exit code") 2 (Errclass.code cls))
  in
  List.iter
    (fun (name, engine) ->
      rejected (name ^ " native_domains") (fun () ->
          run engine ~native_domains:2 ()))
    [ ("ast", `Ast); ("compiled", `Compiled) ];
  let plan =
    match Fault.parse "drop=0.1" with
    | Ok plan -> plan
    | Error m -> Alcotest.fail m
  in
  List.iter
    (fun (opt, go) -> rejected ("native " ^ opt) go)
    [
      ("faults", fun () -> run `Native ~faults:plan ());
      ("reliable", fun () -> run `Native ~reliable:true ());
      ("trace", fun () -> run `Native ~trace:true ());
      ("sim_domains 2", fun () -> run `Native ~sim_domains:2 ());
      ("sim_domains 0", fun () -> run `Native ~sim_domains:0 ());
    ]

(* ---------------- frontend mutations ---------------- *)

(* Token drops, duplications, swaps, truncations and unconvertible
   literals applied to each example program, one to three at a time, then
   the frontend alone (Spmd.prepare_source: nothing runs, so nothing can
   hang).  Whatever it raises must be a classified failure, never an
   internal error. *)
type mutation = Drop | Dup | Swap | Cut | Lit of string

let mutations =
  [ Drop; Dup; Swap; Cut ]
  @ List.map (fun (lit, _) -> Lit lit) unconvertible_literals

let show_mutation (m, i) =
  match m with
  | Drop -> Printf.sprintf "drop %d" i
  | Dup -> Printf.sprintf "dup %d" i
  | Swap -> Printf.sprintf "swap %d" i
  | Cut -> Printf.sprintf "cut %d" i
  | Lit l -> Printf.sprintf "%s at %d" l i

(* each example program's (file, entry) and its tokens' text *)
let mutation_corpus =
  lazy
    (List.sort_uniq compare
       (List.map (fun r -> (r.Test_paths.file, r.entry)) Test_paths.corpus)
    |> List.map (fun (file, entry) ->
           let words =
             Lexer.tokenize (Test_paths.source file)
             |> List.filter_map (fun t ->
                    match t.Token.tok with
                    | Token.EOF -> None
                    | tok -> Some (Token.describe tok))
           in
           (file, entry, Array.of_list words)))

let mutate words (m, i) =
  let n = Array.length words in
  if n = 0 then words
  else
    let i = i mod n in
    let before = Array.sub words 0 i
    and after = Array.sub words (i + 1) (n - i - 1) in
    match m with
    | Drop -> Array.append before after
    | Dup -> Array.concat [ before; [| words.(i); words.(i) |]; after ]
    | Swap when i + 1 < n ->
        let w = Array.copy words in
        w.(i) <- words.(i + 1);
        w.(i + 1) <- words.(i);
        w
    | Swap -> words
    | Cut -> before
    | Lit l -> Array.concat [ before; [| l |]; after ]

let gen_mutant =
  let open QCheck2.Gen in
  let* p = int_bound (List.length (Lazy.force mutation_corpus) - 1) in
  let+ ms = list_size (int_range 1 3) (pair (oneofl mutations) nat) in
  (p, ms)

let mutant_source (p, ms) =
  let file, entry, words = List.nth (Lazy.force mutation_corpus) p in
  let words = List.fold_left mutate words ms in
  (file, entry, String.concat " " (Array.to_list words))

let print_mutant (p, ms) =
  let file, _, src = mutant_source (p, ms) in
  Printf.sprintf "%s, %s:\n%s" file
    (String.concat ", " (List.map show_mutation ms))
    src

let prop_mutants_classified mutant =
  let _, entry, src = mutant_source mutant in
  match Spmd.prepare_source src ~entry with
  | _ -> true
  | exception e -> (
      match Errclass.of_exn e with
      | Some (cls, _) when cls <> Errclass.Internal -> true
      | _ ->
          QCheck2.Test.fail_reportf "unclassified: %s" (Printexc.to_string e))

let test_mutants_classified =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 19 |])
    (QCheck2.Test.make ~count:500 ~name:"mutated programs fail classified"
       ~print:print_mutant gen_mutant prop_mutants_classified)

(* Deep nesting: the frontend and both engines recurse on the tree, so
   pin depths well past any hand-written program.  Nested parentheses
   must pass the frontend, and nested ifs, each incrementing a local,
   must run on ast and compiled and return their depth.  Each of the
   three checks takes about a second on a shared 2-vCPU host. *)
let paren_depth = 150_000
let if_depth = 40_000

let test_deep_nesting () =
  let parens =
    String.concat ""
      [
        "int main() { return ";
        String.make paren_depth '(';
        "1";
        String.make paren_depth ')';
        "; }\n";
      ]
  in
  ignore (Spmd.prepare_source parens ~entry:"main");
  let b = Buffer.create (if_depth * 32) in
  Buffer.add_string b "int main() {\n  int x = 0;\n";
  for k = 0 to if_depth - 1 do
    Printf.bprintf b "if (x == %d) { x = x + 1;\n" k
  done;
  Buffer.add_string b (String.make if_depth '}');
  Buffer.add_string b "\n  return x;\n}\n";
  let ifs = Buffer.contents b in
  List.iter
    (fun (name, engine) ->
      let r =
        Spmd.run_source ~engine ~topology:(Topology.mesh ~width:1 ~height:1)
          ifs ~entry:"main" ~args:[]
      in
      Alcotest.(check string)
        (name ^ ": nested ifs") (string_of_int if_depth)
        (Value.describe (r.Machine.values.(0)).Spmd.value))
    [ ("ast", `Ast); ("compiled", `Compiled) ]

let suite =
  [
    ( "lang lexer",
      [
        Alcotest.test_case "basics" `Quick test_lexer_basic;
        Alcotest.test_case "operator sections" `Quick test_lexer_sections;
        Alcotest.test_case "comments" `Quick test_lexer_comments;
        Alcotest.test_case "strings/chars" `Quick test_lexer_strings_chars;
        Alcotest.test_case "errors" `Quick test_lexer_errors;
        Alcotest.test_case "unconvertible literals" `Quick
          test_lexer_literals;
      ] );
    ( "lang parser",
      [
        Alcotest.test_case "precedence" `Quick test_parser_precedence;
        Alcotest.test_case "postfix" `Quick test_parser_postfix;
        Alcotest.test_case "array literal" `Quick test_parser_array_literal;
        Alcotest.test_case "top-level" `Quick test_parser_program_shapes;
        Alcotest.test_case "statements" `Quick test_parser_statements;
        Alcotest.test_case "compound assignment" `Quick
          test_parser_compound_assignment;
        Alcotest.test_case "errors" `Quick test_parser_errors;
      ] );
    ( "lang typecheck",
      [
        Alcotest.test_case "accepts" `Quick test_typecheck_accepts;
        Alcotest.test_case "currying" `Quick test_typecheck_polymorphic_currying;
        Alcotest.test_case "rejects" `Quick test_typecheck_rejects;
        Alcotest.test_case "break/continue outside a loop" `Quick
          test_typecheck_loop_control;
        Alcotest.test_case "pardata restrictions" `Quick
          test_typecheck_pardata_restrictions;
        Alcotest.test_case "records instantiation" `Quick
          test_typecheck_records_instantiation;
      ] );
    ( "lang interp",
      [
        Alcotest.test_case "control flow" `Quick test_interp_arith_control;
        Alcotest.test_case "compound assignment" `Quick
          test_interp_compound_assignment;
        Alcotest.test_case "structs/pointers" `Quick
          test_interp_structs_pointers;
        Alcotest.test_case "currying" `Quick test_interp_currying;
        Alcotest.test_case "operator sections" `Quick
          test_interp_operator_sections;
        Alcotest.test_case "printing" `Quick test_interp_prints;
        Alcotest.test_case "runtime errors" `Quick test_interp_runtime_errors;
        Alcotest.test_case "nested break" `Quick test_nested_break_inner_only;
      ] );
    ( "lang instantiate",
      [
        Alcotest.test_case "quicksort preserved" `Quick
          test_instantiate_preserves_quicksort;
        Alcotest.test_case "d&c collapses" `Quick
          test_instantiate_first_order_dc;
        Alcotest.test_case "monomorphization" `Quick
          test_instantiate_monomorphizes_by_type;
        Alcotest.test_case "lifting" `Quick test_instantiate_lifts_partial_data;
        Alcotest.test_case "operators" `Quick
          test_instantiate_operator_sections;
        Alcotest.test_case "distinct specs" `Quick
          test_instantiate_distinct_specs_per_funarg;
        Alcotest.test_case "operator lift types" `Quick
          test_instantiate_operator_lift_types;
        Alcotest.test_case "re-passed lift types" `Quick
          test_instantiate_repassed_lift_types;
        Alcotest.test_case "rejects computed functions" `Quick
          test_instantiate_rejects_computed_function;
        Alcotest.test_case "instance order" `Quick test_instantiate_order;
      ] );
    ( "lang spmd",
      [
        Alcotest.test_case "shpaths source" `Quick
          test_spmd_shpaths_matches_reference;
        Alcotest.test_case "above_thresh" `Quick test_spmd_above_thresh;
        Alcotest.test_case "timing" `Quick test_spmd_timing_nonzero;
        Alcotest.test_case "bad indices classified on every engine" `Quick
          test_bad_indices_classified;
        Alcotest.test_case "native options rejected on the simulator" `Quick
          test_native_options_rejected;
      ] );
    ( "lang emit C",
      [
        Alcotest.test_case "paper's array_map_1" `Quick
          test_emit_c_paper_example;
        Alcotest.test_case "struct instances" `Quick
          test_emit_c_struct_instances;
        Alcotest.test_case "runtime header" `Quick test_runtime_header;
        Alcotest.test_case "type mangling" `Quick test_mangle_type;
        Alcotest.test_case "standalone rejects" `Quick
          test_standalone_rejects;
      ] );
    ( "lang frontend",
      [
        test_mutants_classified;
        Alcotest.test_case "deep nesting" `Quick test_deep_nesting;
      ] );
  ]
