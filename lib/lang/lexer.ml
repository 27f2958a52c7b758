exception Error of { line : int; col : int; message : string }

type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
}

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let peek2 st =
  if st.pos + 1 < String.length st.src then Some st.src.[st.pos + 1] else None

let advance st =
  (match peek st with
   | Some '\n' ->
       st.line <- st.line + 1;
       st.col <- 1
   | Some _ -> st.col <- st.col + 1
   | None -> ());
  st.pos <- st.pos + 1

let error st message = raise (Error { line = st.line; col = st.col; message })

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_alnum c = is_alpha c || is_digit c

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\r' | '\n') ->
      advance st;
      skip_ws st
  | Some '/' when peek2 st = Some '/' ->
      while peek st <> None && peek st <> Some '\n' do
        advance st
      done;
      skip_ws st
  | Some '#' ->
      (* preprocessor lines (#include etc.) are ignored, as in the paper's
         C-based front end *)
      while peek st <> None && peek st <> Some '\n' do
        advance st
      done;
      skip_ws st
  | Some '/' when peek2 st = Some '*' ->
      advance st;
      advance st;
      let rec go () =
        match (peek st, peek2 st) with
        | Some '*', Some '/' ->
            advance st;
            advance st
        | None, _ -> error st "unterminated comment"
        | _ ->
            advance st;
            go ()
      in
      go ();
      skip_ws st
  | _ -> ()

(* A literal OCaml cannot convert (an int past [max_int], an exponent with
   no digits) is a lexical error at the literal's start. *)
let lex_number st =
  let start = st.pos and line = st.line and col = st.col in
  let convert conv what text =
    match conv text with
    | Some v -> v
    | None -> raise (Error { line; col; message = what ^ ": " ^ text })
  in
  while (match peek st with Some c -> is_digit c | None -> false) do
    advance st
  done;
  let is_float =
    match (peek st, peek2 st) with
    | Some '.', Some c when is_digit c -> true
    | Some '.', (Some _ | None) -> true
    | _ -> false
  in
  if is_float then begin
    advance st;
    while (match peek st with Some c -> is_digit c | None -> false) do
      advance st
    done;
    (match peek st with
     | Some ('e' | 'E') ->
         advance st;
         (match peek st with Some ('+' | '-') -> advance st | _ -> ());
         while (match peek st with Some c -> is_digit c | None -> false) do
           advance st
         done
     | _ -> ());
    Token.FLOAT
      (convert float_of_string_opt "malformed float literal"
         (String.sub st.src start (st.pos - start)))
  end
  else
    Token.INT
      (convert int_of_string_opt "integer literal out of range"
         (String.sub st.src start (st.pos - start)))

let lex_ident st =
  let start = st.pos in
  while (match peek st with Some c -> is_alnum c | None -> false) do
    advance st
  done;
  let s = String.sub st.src start (st.pos - start) in
  if List.mem s Token.keywords then Token.KW s else Token.IDENT s

let lex_string st =
  advance st;
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated string literal"
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek st with
        | Some 'n' -> Buffer.add_char buf '\n'; advance st; go ()
        | Some 't' -> Buffer.add_char buf '\t'; advance st; go ()
        | Some c -> Buffer.add_char buf c; advance st; go ()
        | None -> error st "unterminated escape")
    | Some c ->
        Buffer.add_char buf c;
        advance st;
        go ()
  in
  go ();
  Token.STRING (Buffer.contents buf)

let section_ops =
  [ "=="; "!="; "<="; ">="; "&&"; "||"; "+"; "-"; "*"; "/"; "%"; "<"; ">" ]

(* Try to lex an operator section "( op )" starting at the '('. *)
let try_section st =
  let save = (st.pos, st.line, st.col) in
  advance st (* '(' *);
  skip_ws st;
  let matched =
    List.find_opt
      (fun op ->
        let l = String.length op in
        st.pos + l <= String.length st.src
        && String.sub st.src st.pos l = op)
      section_ops
  in
  match matched with
  | Some op ->
      let l = String.length op in
      for _ = 1 to l do
        advance st
      done;
      skip_ws st;
      if peek st = Some ')' then begin
        advance st;
        Some (Token.OPSECTION op)
      end
      else begin
        let p, li, c = save in
        st.pos <- p;
        st.line <- li;
        st.col <- c;
        None
      end
  | None ->
      let p, li, c = save in
      st.pos <- p;
      st.line <- li;
      st.col <- c;
      None

let two_char_puncts =
  [ "->"; "=="; "!="; "<="; ">="; "&&"; "||"; "++"; "--"; "+="; "-="; "*=";
    "/="; "%=" ]

let lex_punct st =
  let two =
    if st.pos + 2 <= String.length st.src then
      Some (String.sub st.src st.pos 2)
    else None
  in
  match two with
  | Some p when List.mem p two_char_puncts ->
      advance st;
      advance st;
      Token.PUNCT p
  | _ ->
      let c = match peek st with Some c -> c | None -> assert false in
      advance st;
      Token.PUNCT (String.make 1 c)

let tokenize src =
  let st = { src; pos = 0; line = 1; col = 1 } in
  let toks = ref [] in
  let emit line col tok = toks := { Token.tok; line; col } :: !toks in
  let rec go () =
    skip_ws st;
    let line = st.line and col = st.col in
    match peek st with
    | None -> emit line col Token.EOF
    | Some c when is_digit c ->
        emit line col (lex_number st);
        go ()
    | Some c when is_alpha c ->
        emit line col (lex_ident st);
        go ()
    | Some '$' ->
        advance st;
        let start = st.pos in
        while (match peek st with Some c -> is_alnum c | None -> false) do
          advance st
        done;
        if st.pos = start then error st "expected identifier after '$'";
        emit line col (Token.TYVAR (String.sub st.src start (st.pos - start)));
        go ()
    | Some '"' ->
        emit line col (lex_string st);
        go ()
    | Some '\'' ->
        advance st;
        let c =
          match peek st with
          | Some '\\' ->
              advance st;
              (match peek st with
               | Some 'n' -> '\n'
               | Some 't' -> '\t'
               | Some c -> c
               | None -> error st "unterminated char literal")
          | Some c -> c
          | None -> error st "unterminated char literal"
        in
        advance st;
        if peek st <> Some '\'' then error st "unterminated char literal";
        advance st;
        emit line col (Token.CHAR c);
        go ()
    | Some '(' -> (
        match try_section st with
        | Some tok ->
            emit line col tok;
            go ()
        | None ->
            advance st;
            emit line col (Token.PUNCT "(");
            go ())
    | Some
        ( ')' | '{' | '}' | '[' | ']' | ';' | ',' | '.' | '<' | '>' | '='
        | '+' | '-' | '*' | '/' | '%' | '&' | '|' | '!' | '?' | ':' ) ->
        emit line col (lex_punct st);
        go ()
    | Some c -> error st (Printf.sprintf "unexpected character %C" c)
  in
  go ();
  List.rev !toks
