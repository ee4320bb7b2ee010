(* Teeth for Tstm_lint (lib/lint).

   Three layers of bite:

   - the fixture corpus under test/lint_fixtures must produce *exactly*
     the findings its `lint: expect` directives declare — per rule, at
     the exact file:line;
   - the suppression discipline round-trips in memory (allow masks,
     unknown ids and stale allows are findings themselves);
   - the comment/string false-positive class of the grep-era lint stays
     dead (identifiers inside comments and string literals are invisible
     to AST rules).

   The corpus lives in source_tree deps, so these tests run from the
   test/ build directory where `lint_fixtures/` is a direct child. *)

open Tstm_lint

(* Under `dune runtest` the cwd is the test build directory (the corpus
   is a direct child); under `dune exec` from the root it is not. *)
let corpus =
  if Sys.file_exists "lint_fixtures" then "lint_fixtures"
  else "test/lint_fixtures"

(* ------------------------------------------------------------------ *)
(* Fixture corpus                                                      *)
(* ------------------------------------------------------------------ *)

let test_teeth_clean () =
  let { Engine.mismatches; expectations } = Engine.teeth ~roots:[ corpus ] () in
  List.iter (fun m -> Printf.printf "mismatch: %s\n" m) mismatches;
  Alcotest.(check (list string)) "no teeth mismatches" [] mismatches;
  (* Every rule is represented: at least one expectation per shipped rule
     plus the meta rules exercised by the suppression fixtures. *)
  Alcotest.(check bool)
    (Printf.sprintf "expectation floor (got %d)" expectations)
    true (expectations >= 15)

(* The teeth harness proves set equality; these spot checks nail a few
   exact (path, line, rule) triples so a bulk regression in both the
   rules *and* the expect comments cannot slip through unnoticed. *)
let find_all ~roots =
  (Engine.run ~roots ()).Engine.findings

let test_exact_lines () =
  let findings = find_all ~roots:[ corpus ] in
  let has ~path ~line ~rule =
    List.exists
      (fun (f : Finding.t) ->
        f.path = path && f.line = line && f.rule = rule)
      findings
  in
  let expect ~path ~line ~rule =
    Alcotest.(check bool)
      (Printf.sprintf "%s:%d %s" path line rule)
      true
      (has ~path ~line ~rule)
  in
  expect ~path:(corpus ^ "/lib/fix/bad_printf.ml") ~line:2 ~rule:"printf-in-lib";
  expect ~path:(corpus ^ "/lib/fix/bad_random.ml") ~line:2 ~rule:"stdlib-random";
  expect ~path:(corpus ^ "/lib/fix/bad_obj.ml") ~line:2 ~rule:"obj-cast";
  expect ~path:(corpus ^ "/lib/fix/bad_external.ml") ~line:2
    ~rule:"external-decl";
  expect ~path:(corpus ^ "/lib/fix/bad_wallclock.ml") ~line:2 ~rule:"wallclock";
  expect ~path:(corpus ^ "/lib/fix/bad_marshal.ml") ~line:2
    ~rule:"marshal-outside-exec";
  expect ~path:(corpus ^ "/lib/fix/bad_catchall.ml") ~line:4
    ~rule:"catch-all-handler";
  expect ~path:(corpus ^ "/lib/fix/bad_missing_mli.ml") ~line:1
    ~rule:"mli-coverage";
  expect ~path:(corpus ^ "/lib/fix/bad_tap_pairing.ml") ~line:3
    ~rule:"tap-pairing";
  expect ~path:(corpus ^ "/lib/fix/bad_parse.ml") ~line:1 ~rule:"parse-error";
  expect
    ~path:(corpus ^ "/lib/tinystm/bad_lock_pairing.ml")
    ~line:3 ~rule:"stm-lock-pairing";
  expect
    ~path:(corpus ^ "/lib/tinystm/bad_exit_release.ml")
    ~line:9 ~rule:"stm-lock-pairing";
  expect
    ~path:(corpus ^ "/lib/tinystm/bad_exit_release.ml")
    ~line:12 ~rule:"stm-lock-pairing";
  expect
    ~path:(corpus ^ "/lib/tinystm/bad_vmm_charge.ml")
    ~line:3 ~rule:"vmm-charge";
  expect
    ~path:(corpus ^ "/lib/tinystm/bad_runtime_layering.ml")
    ~line:3 ~rule:"layering";
  expect ~path:(corpus ^ "/lib/vmm/bad_layering.ml") ~line:3 ~rule:"layering";
  expect
    ~path:(corpus ^ "/lib/tinystm/bad_san_layering.ml")
    ~line:3 ~rule:"layering";
  expect
    ~path:(corpus ^ "/lib/tinystm/bad_plan_layering.ml")
    ~line:4 ~rule:"layering";
  expect ~path:(corpus ^ "/lib/vmm/dune") ~line:3 ~rule:"layering";
  expect ~path:(corpus ^ "/bin/bad_random_cli.ml") ~line:2
    ~rule:"stdlib-random"

let test_clean_fixtures_clean () =
  (* The ok_* halves of every pair: each must contribute zero findings. *)
  let findings = find_all ~roots:[ corpus ] in
  let offenders =
    List.filter
      (fun (f : Finding.t) ->
        let base = Filename.basename f.path in
        String.length base >= 3 && String.sub base 0 3 = "ok_")
      findings
  in
  Alcotest.(check (list string))
    "ok_* fixtures are clean"
    []
    (List.map
       (fun (f : Finding.t) ->
         Printf.sprintf "%s:%d [%s]" f.path f.line f.rule)
       offenders)

(* ------------------------------------------------------------------ *)
(* Suppression round trip (in memory)                                  *)
(* ------------------------------------------------------------------ *)

let check ?(path = "lib/fake/m.ml") text =
  Engine.check_source ~path ~text ()

let rules_of fs = List.map (fun (f : Finding.t) -> f.rule) fs

let test_allow_masks () =
  let bare = check "let f msg = Printf.printf \"%s\" msg\n" in
  Alcotest.(check (list string)) "unsuppressed fires" [ "printf-in-lib" ]
    (rules_of bare);
  let masked =
    check
      "let f msg = Printf.printf \"%s\" msg (* lint: allow printf-in-lib \
       — logging shim *)\n"
  in
  Alcotest.(check (list string)) "allow masks same line" [] (rules_of masked);
  let masked_next =
    check
      "(* lint: allow printf-in-lib — logging shim *)\n\
       let f msg = Printf.printf \"%s\" msg\n"
  in
  Alcotest.(check (list string)) "allow masks next line" []
    (rules_of masked_next)

let test_allow_unknown_id () =
  let fs = check "let x = 1 (* lint: allow no-such-rule — typo *)\n" in
  Alcotest.(check (list string)) "unknown id is a finding"
    [ "suppression-unknown" ] (rules_of fs);
  (* The message teaches: it must mention at least one real id. *)
  (match fs with
  | [ f ] ->
      Alcotest.(check bool) "message lists known ids" true
        (let needle = "obj-cast" in
         let n = String.length needle and m = String.length f.message in
         let rec at i = i + n <= m && (String.sub f.message i n = needle || at (i + 1)) in
         at 0)
  | _ -> Alcotest.fail "expected exactly one finding");
  let missing_reason = check "let x = 1 (* lint: allow obj-cast *)\n" in
  Alcotest.(check (list string)) "missing reason is a finding"
    [ "suppression-unknown" ]
    (rules_of missing_reason)

let test_allow_stale () =
  let fs = check "let x = 1 (* lint: allow obj-cast — nothing here *)\n" in
  Alcotest.(check (list string)) "stale allow is a finding"
    [ "suppression-stale" ] (rules_of fs)

let test_meta_unsuppressable () =
  (* Suppressing the suppression checker must not work. *)
  let fs =
    check
      "let x = 1 (* lint: allow suppression-stale — gaming the system *)\n"
  in
  Alcotest.(check (list string)) "meta rules cannot be suppressed"
    [ "suppression-unknown" ] (rules_of fs)

(* [external-decl] sees declarations in signatures and nested modules,
   and exempts only Shm's implementation. *)
let test_external_scope () =
  let ext = "external get : int ref -> int = \"%field0\"\n" in
  Alcotest.(check (list string)) "nested module" [ "external-decl" ]
    (rules_of (check ("module M = struct " ^ ext ^ "end\n")));
  Alcotest.(check (list string)) "signature" [ "external-decl" ]
    (rules_of (check ~path:"bin/m.mli" ext));
  Alcotest.(check (list string)) "Shm's own .mli" [ "external-decl" ]
    (rules_of (check ~path:"lib/runtime/shm.mli" ext));
  Alcotest.(check (list string)) "Shm itself" []
    (rules_of (check ~path:"lib/runtime/shm.ml" ext))

(* ------------------------------------------------------------------ *)
(* Comment/string false positives (the grep-era bug class)             *)
(* ------------------------------------------------------------------ *)

let test_comment_string_invisible () =
  let fs =
    check
      "(* Random.int would be bad; Obj.magic worse. *)\n\
       let doc = \"never call Unix.gettimeofday or Marshal.to_string\"\n\
       let ok = String.length doc\n"
  in
  Alcotest.(check (list string)) "comments and strings are invisible" []
    (rules_of fs)

let test_nested_comment_suppression () =
  (* A directive inside a nested comment is still a directive; a fake
     directive inside a string literal is not. *)
  let fs = check "let s = \"(* lint: allow obj-cast — fake *)\"\n" in
  Alcotest.(check (list string)) "directive in string ignored" []
    (rules_of fs)

(* ------------------------------------------------------------------ *)
(* Registry and reporters                                              *)
(* ------------------------------------------------------------------ *)

let test_registry () =
  let ids = Rules.ids in
  let sorted = List.sort_uniq compare ids in
  Alcotest.(check int) "rule ids unique" (List.length ids)
    (List.length sorted);
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "%s is kebab-case" id)
        true
        (String.length id > 0
        && String.for_all
             (fun c -> (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-')
             id))
    ids;
  Alcotest.(check bool) "meta ids are known" true
    (List.for_all (fun id -> List.mem id Rules.known_ids) Rules.meta_ids)

let test_reporters () =
  let f =
    Finding.v ~rule:"obj-cast" ~severity:Finding.Error ~path:"lib/a.ml"
      ~line:7 ~col:4 "Obj.magic defeats the type system"
  in
  let gh = Report.github [ f ] in
  Alcotest.(check bool) "github format is a workflow command" true
    (String.length gh > 9 && String.sub gh 0 8 = "::error ");
  Alcotest.(check bool) "github column is 1-based" true
    (let needle = "line=7,col=5" in
     let n = String.length needle and m = String.length gh in
     let rec at i = i + n <= m && (String.sub gh i n = needle || at (i + 1)) in
     at 0);
  let js = Report.json ~files_checked:1 [ f ] in
  Alcotest.(check bool) "json names the schema" true
    (let needle = "tstm-lint/1" in
     let n = String.length needle and m = String.length js in
     let rec at i = i + n <= m && (String.sub js i n = needle || at (i + 1)) in
     at 0);
  let human = Report.human ~files_checked:1 ~rules:11 [] in
  Alcotest.(check bool) "clean human report says OK" true
    (let needle = "lint: OK" in
     let n = String.length needle and m = String.length human in
     let rec at i = i + n <= m && (String.sub human i n = needle || at (i + 1)) in
     at 0)

let () =
  Alcotest.run "lint"
    [
      ( "teeth",
        [
          Alcotest.test_case "corpus matches expectations" `Quick
            test_teeth_clean;
          Alcotest.test_case "exact file:line spot checks" `Quick
            test_exact_lines;
          Alcotest.test_case "clean fixtures stay clean" `Quick
            test_clean_fixtures_clean;
        ] );
      ( "suppression",
        [
          Alcotest.test_case "allow masks same/next line" `Quick
            test_allow_masks;
          Alcotest.test_case "unknown id rejected" `Quick test_allow_unknown_id;
          Alcotest.test_case "stale allow rejected" `Quick test_allow_stale;
          Alcotest.test_case "meta rules unsuppressable" `Quick
            test_meta_unsuppressable;
        ] );
      ( "false-positives",
        [
          Alcotest.test_case "comments and strings invisible" `Quick
            test_comment_string_invisible;
          Alcotest.test_case "directive in string ignored" `Quick
            test_nested_comment_suppression;
        ] );
      ( "framework",
        [
          Alcotest.test_case "registry sane" `Quick test_registry;
          Alcotest.test_case "reporters" `Quick test_reporters;
          Alcotest.test_case "external-decl scope" `Quick test_external_scope;
        ] );
    ]
