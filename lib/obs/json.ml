(* Minimal JSON values: enough for the BENCH_*.json snapshots and the
   stats exporter.  The toolchain has no JSON library and must not grow
   one (see bin/lint.ml), so parsing and printing live here.  The printer
   is deterministic (object members keep insertion order) and the parser
   accepts exactly the JSON this repo emits plus ordinary whitespace. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape = Tstm_util.Json_string.escape

let float_to_json f =
  match Float.classify_float f with
  | Float.FP_nan | Float.FP_infinite ->
      (* NaN/inf are not JSON; clamp to null-like 0 rather than emit
         garbage. *)
      "0.0"
  | _ ->
      if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
      else Printf.sprintf "%.17g" f

let rec print_buf ?(indent = 0) b v =
  let pad n = Buffer.add_string b (String.make n ' ') in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> Buffer.add_string b (float_to_json f)
  | String s ->
      Buffer.add_char b '"';
      escape b s;
      Buffer.add_char b '"'
  | List [] -> Buffer.add_string b "[]"
  | List items ->
      Buffer.add_string b "[";
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '\n';
          pad (indent + 2);
          print_buf ~indent:(indent + 2) b item)
        items;
      Buffer.add_char b '\n';
      pad indent;
      Buffer.add_char b ']'
  | Obj [] -> Buffer.add_string b "{}"
  | Obj members ->
      Buffer.add_string b "{";
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '\n';
          pad (indent + 2);
          Buffer.add_char b '"';
          escape b k;
          Buffer.add_string b "\": ";
          print_buf ~indent:(indent + 2) b item)
        members;
      Buffer.add_char b '\n';
      pad indent;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 4096 in
  print_buf b v;
  Buffer.add_char b '\n';
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

type cursor = { s : string; mutable pos : int }

let error c msg =
  raise (Parse_error (Printf.sprintf "at byte %d: %s" c.pos msg))

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> error c (Printf.sprintf "expected %C, found %C" ch x)
  | None -> error c (Printf.sprintf "expected %C, found end of input" ch)

let parse_keyword c kw v =
  let n = String.length kw in
  if c.pos + n <= String.length c.s && String.sub c.s c.pos n = kw then begin
    c.pos <- c.pos + n;
    v
  end
  else error c (Printf.sprintf "expected %s" kw)

let parse_string_body c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> error c "unterminated string"
    | Some '"' ->
        advance c;
        Buffer.contents b
    | Some '\\' -> (
        advance c;
        match peek c with
        | Some '"' -> advance c; Buffer.add_char b '"'; go ()
        | Some '\\' -> advance c; Buffer.add_char b '\\'; go ()
        | Some '/' -> advance c; Buffer.add_char b '/'; go ()
        | Some 'n' -> advance c; Buffer.add_char b '\n'; go ()
        | Some 't' -> advance c; Buffer.add_char b '\t'; go ()
        | Some 'r' -> advance c; Buffer.add_char b '\r'; go ()
        | Some 'b' -> advance c; Buffer.add_char b '\b'; go ()
        | Some 'f' -> advance c; Buffer.add_char b '\012'; go ()
        | Some 'u' ->
            advance c;
            if c.pos + 4 > String.length c.s then error c "truncated \\u escape";
            let hex = String.sub c.s c.pos 4 in
            let code =
              try int_of_string ("0x" ^ hex)
              with Failure _ -> error c "bad \\u escape"
            in
            c.pos <- c.pos + 4;
            (* Only the control-character range this repo ever emits. *)
            if code < 0x80 then Buffer.add_char b (Char.chr code)
            else Buffer.add_char b '?';
            go ()
        | _ -> error c "bad escape")
    | Some ch when Char.code ch < 0x20 -> error c "raw control character"
    | Some ch ->
        advance c;
        Buffer.add_char b ch;
        go ()
  in
  go ()

(* JSON's number grammar: [-]digits[.digits][(e|E)[+|-]digits]. *)
let parse_number c =
  let start = c.pos in
  let digits () =
    let d0 = c.pos in
    while match peek c with Some '0' .. '9' -> true | _ -> false do
      advance c
    done;
    if c.pos = d0 then error c "expected a digit"
  in
  let skip ch = if peek c = Some ch then (advance c; true) else false in
  ignore (skip '-');
  digits ();
  if skip '.' then digits ();
  if skip 'e' || skip 'E' then begin
    ignore (skip '+' || skip '-');
    digits ()
  end;
  let text = String.sub c.s start (c.pos - start) in
  match int_of_string_opt text with
  | Some i -> Int i
  | None ->
      (* Fractions, exponents and integers beyond OCaml's int range. *)
      Float (float_of_string text)

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> error c "unexpected end of input"
  | Some '"' -> String (parse_string_body c)
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin
        advance c;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws c;
          let k = parse_string_body c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              members ((k, v) :: acc)
          | Some '}' ->
              advance c;
              Obj (List.rev ((k, v) :: acc))
          | _ -> error c "expected ',' or '}'"
        in
        members []
      end
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin
        advance c;
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              items (v :: acc)
          | Some ']' ->
              advance c;
              List (List.rev (v :: acc))
          | _ -> error c "expected ',' or ']'"
        in
        items []
      end
  | Some 't' -> parse_keyword c "true" (Bool true)
  | Some 'f' -> parse_keyword c "false" (Bool false)
  | Some 'n' -> parse_keyword c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> error c (Printf.sprintf "unexpected %C" ch)

let of_string s =
  let c = { s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length s then error c "trailing garbage";
  v

let of_string_opt s = try Some (of_string s) with Parse_error _ -> None

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member k = function Obj ms -> List.assoc_opt k ms | _ -> None

let to_int = function
  | Int i -> Some i
  | Float f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_str = function String s -> Some s | _ -> None
let to_list = function List l -> Some l | _ -> None
let to_obj = function Obj ms -> Some ms | _ -> None
