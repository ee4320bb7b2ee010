(* Pure renderers: findings in, string out.  The binary does the
   printing (printf-in-lib applies to this library too). *)

let buf_add = Buffer.add_string

let human ~files_checked ~rules findings =
  let b = Buffer.create 1024 in
  List.iter
    (fun (f : Finding.t) ->
      buf_add b
        (Printf.sprintf "%s:%d:%d: [%s] %s: %s\n" f.path f.line f.col f.rule
           (Finding.severity_string f.severity)
           f.message))
    findings;
  (match findings with
  | [] ->
      buf_add b
        (Printf.sprintf "lint: OK (%d files, %d rules)\n" files_checked rules)
  | fs ->
      let n = List.length fs in
      buf_add b
        (Printf.sprintf "lint: %d finding%s\n" n (if n = 1 then "" else "s")));
  Buffer.contents b

(* GitHub Actions workflow commands: one annotation per finding, shown
   inline on the PR diff.  Columns are 1-based there. *)
let github_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '%' -> buf_add b "%25"
      | '\n' -> buf_add b "%0A"
      | '\r' -> buf_add b "%0D"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let github findings =
  let b = Buffer.create 1024 in
  List.iter
    (fun (f : Finding.t) ->
      buf_add b
        (Printf.sprintf "::%s file=%s,line=%d,col=%d,title=%s::%s\n"
           (match f.severity with
           | Finding.Error -> "error"
           | Finding.Warning -> "warning")
           f.path f.line (f.col + 1) f.rule
           (github_escape f.message)))
    findings;
  Buffer.contents b

let json_escape s =
  let b = Buffer.create (String.length s) in
  Tstm_util.Json_string.escape b s;
  Buffer.contents b

let json ~files_checked findings =
  let b = Buffer.create 1024 in
  buf_add b "{\n  \"version\": \"tstm-lint/1\",\n";
  buf_add b (Printf.sprintf "  \"files_checked\": %d,\n" files_checked);
  buf_add b "  \"findings\": [";
  List.iteri
    (fun i (f : Finding.t) ->
      if i > 0 then buf_add b ",";
      buf_add b
        (Printf.sprintf
           "\n    { \"rule\": \"%s\", \"severity\": \"%s\", \"file\": \
            \"%s\", \"line\": %d, \"col\": %d, \"message\": \"%s\" }"
           (json_escape f.rule)
           (Finding.severity_string f.severity)
           (json_escape f.path) f.line f.col (json_escape f.message)))
    findings;
  if findings <> [] then buf_add b "\n  ";
  buf_add b "]\n}\n";
  Buffer.contents b

let rule_table rules =
  let b = Buffer.create 1024 in
  List.iter
    (fun (r : Rule.t) ->
      buf_add b
        (Printf.sprintf "%-22s %-7s scope: %s\n%22s   %s\n" r.Rule.id
           (Finding.severity_string r.Rule.severity)
           r.Rule.scope_doc "" r.Rule.doc))
    rules;
  Buffer.contents b
