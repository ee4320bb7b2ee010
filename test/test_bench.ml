(* The wall-clock observability layer's pure parts: the minimal JSON
   printer/parser, the Tm_stats JSON export, BENCH_* snapshot
   serialization, the noise-aware regression comparator, and the
   monotonic clock. *)

module Json = Tstm_obs.Json
module Bench = Tstm_obs.Bench
module Mono = Tstm_obs.Monotonic
module Stats = Tstm_tm.Tm_stats

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let rec json_equal a b =
  match (a, b) with
  | Json.Null, Json.Null -> true
  | Json.Bool x, Json.Bool y -> x = y
  | Json.Int x, Json.Int y -> x = y
  | Json.Float x, Json.Float y -> x = y
  | Json.String x, Json.String y -> x = y
  | Json.List x, Json.List y ->
      List.length x = List.length y && List.for_all2 json_equal x y
  | Json.Obj x, Json.Obj y ->
      List.length x = List.length y
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> k1 = k2 && json_equal v1 v2)
           x y
  | _ -> false

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("null", Json.Null);
        ("t", Json.Bool true);
        ("f", Json.Bool false);
        ("int", Json.Int (-42));
        ("float", Json.Float 0.2);
        ("big", Json.Float 684468.38385923917);
        ("intf", Json.Float 20.0);
        ("str", Json.String "a \"quoted\"\nline\tand \\ backslash");
        ("empty_l", Json.List []);
        ("empty_o", Json.Obj []);
        ( "nested",
          Json.List [ Json.Int 1; Json.Obj [ ("k", Json.String "v") ] ] );
      ]
  in
  let s = Json.to_string v in
  let v' = Json.of_string s in
  Alcotest.(check bool) "round-trips structurally" true (json_equal v v');
  Alcotest.(check string) "reprint is byte-identical" s (Json.to_string v');
  (* Non-integral floats must survive: this was a real printer bug (every
     finite non-integral float clamped to 0.0). *)
  (match Option.bind (Json.member "float" v') Json.to_float with
  | Some f -> Alcotest.(check (float 1e-12)) "0.2 survives" 0.2 f
  | None -> Alcotest.fail "float member lost");
  match Option.bind (Json.member "big" v') Json.to_float with
  | Some f ->
      Alcotest.(check (float 1e-6)) "17 digits survive" 684468.38385923917 f
  | None -> Alcotest.fail "big member lost"

let test_json_nonfinite () =
  (* NaN/inf are not JSON: the printer clamps rather than emitting tokens
     the parser (or any other tool) would reject. *)
  let s = Json.to_string (Json.List [ Json.Float Float.nan; Json.Float Float.infinity ]) in
  match Json.of_string s with
  | Json.List [ Json.Float a; Json.Float b ] ->
      Alcotest.(check (float 0.0)) "nan clamped" 0.0 a;
      Alcotest.(check (float 0.0)) "inf clamped" 0.0 b
  | _ -> Alcotest.fail "unexpected shape"

let test_json_errors () =
  let rejects s =
    Alcotest.(check bool)
      (Printf.sprintf "rejects %S" s)
      true
      (Json.of_string_opt s = None)
  in
  List.iter rejects
    [
      "";
      "{";
      "[1,]";
      "{\"a\" 1}";
      "{\"a\":}";
      "tru";
      "1 2";
      "{\"a\": 1} x";
      "\"unterminated";
      "\"raw\ncontrol\"";
      "-";
      "1.";
      "-.5";
      "1.e5";
      "2e";
      "1e+";
    ];
  Alcotest.(check bool)
    "accepts surrounding whitespace" true
    (Json.of_string_opt "  { \"a\" : [ 1 , 2 ] }\n" <> None);
  Alcotest.(check bool)
    "accepts every number form" true
    (Json.of_string_opt "[-0, 1.5e-3, 2E+10, 7e2, 12345678901234567890]"
    <> None)

let prop_json_escape_roundtrip =
  (* [Json.escape] writes the Chrome trace's strings; whatever bytes it is
     given, the reader must get the same string back. *)
  QCheck.Test.make ~name:"escape then parse is the identity" ~count:500
    QCheck.(string_gen Gen.char)
    (fun s ->
      let b = Buffer.create (String.length s + 2) in
      Buffer.add_char b '"';
      Json.escape b s;
      Buffer.add_char b '"';
      match Json.of_string_opt (Buffer.contents b) with
      | Some (Json.String s') -> s' = s
      | _ -> false)

let test_json_accessors () =
  let v = Json.of_string "{\"i\": 3, \"f\": 2.5, \"fi\": 4.0, \"s\": \"x\"}" in
  Alcotest.(check (option int)) "to_int Int" (Some 3)
    (Option.bind (Json.member "i" v) Json.to_int);
  Alcotest.(check (option int))
    "to_int integral Float" (Some 4)
    (Option.bind (Json.member "fi" v) Json.to_int);
  Alcotest.(check (option int)) "to_int non-integral" None
    (Option.bind (Json.member "f" v) Json.to_int);
  Alcotest.(check (option (float 0.0)))
    "to_float Int" (Some 3.0)
    (Option.bind (Json.member "i" v) Json.to_float);
  Alcotest.(check (option string)) "member missing" None
    (Option.bind (Json.member "zzz" v) Json.to_str)

(* ------------------------------------------------------------------ *)
(* Tm_stats JSON round-trip                                            *)
(* ------------------------------------------------------------------ *)

let test_stats_roundtrip () =
  let s = Stats.create () in
  s.Stats.commits <- 101;
  s.Stats.commits_read_only <- 7;
  s.Stats.aborts_read_conflict <- 11;
  s.Stats.aborts_write_conflict <- 13;
  s.Stats.aborts_validation <- 17;
  s.Stats.aborts_rollover <- 19;
  s.Stats.aborts_killed <- 23;
  s.Stats.reads <- 1009;
  s.Stats.writes <- 227;
  s.Stats.extensions <- 29;
  s.Stats.validations <- 31;
  s.Stats.val_locks_processed <- 3001;
  s.Stats.val_locks_skipped <- 41;
  s.Stats.escalations <- 3;
  s.Stats.backoff_cycles <- 777;
  s.Stats.max_retries_seen <- 9;
  s.Stats.cm_switches <- 2;
  for i = 0 to Stats.retry_hist_buckets - 1 do
    s.Stats.retry_hist.(i) <- i * i
  done;
  match Stats.of_json (Stats.to_json s) with
  | Error e -> Alcotest.fail e
  | Ok s' ->
      (* A second serialization is the cheapest full-field comparison. *)
      Alcotest.(check string)
        "all counters survive"
        (Json.to_string (Stats.to_json s))
        (Json.to_string (Stats.to_json s'));
      Alcotest.(check int) "aborts recompute" (Stats.aborts s) (Stats.aborts s')

(* Property-style: any counter combination survives the JSON round-trip,
   fairness counters (kills, retry ceilings, CM switches) and the full
   retry histogram included — not just the hand-picked values above. *)
let test_stats_roundtrip_random () =
  let g = Tstm_util.Xrand.create 0xbe5c in
  let r () = Tstm_util.Xrand.int g 1_000_000 in
  for iter = 1 to 100 do
    let s = Stats.create () in
    s.Stats.commits <- r ();
    s.Stats.commits_read_only <- r ();
    s.Stats.aborts_read_conflict <- r ();
    s.Stats.aborts_write_conflict <- r ();
    s.Stats.aborts_validation <- r ();
    s.Stats.aborts_rollover <- r ();
    s.Stats.aborts_killed <- r ();
    s.Stats.reads <- r ();
    s.Stats.writes <- r ();
    s.Stats.extensions <- r ();
    s.Stats.validations <- r ();
    s.Stats.val_locks_processed <- r ();
    s.Stats.val_locks_skipped <- r ();
    s.Stats.escalations <- r ();
    s.Stats.backoff_cycles <- r ();
    s.Stats.max_retries_seen <- r ();
    s.Stats.cm_switches <- r ();
    for i = 0 to Stats.retry_hist_buckets - 1 do
      s.Stats.retry_hist.(i) <- r ()
    done;
    match Stats.of_json (Stats.to_json s) with
    | Error e -> Alcotest.fail (Printf.sprintf "iteration %d: %s" iter e)
    | Ok s' ->
        if Json.to_string (Stats.to_json s) <> Json.to_string (Stats.to_json s')
        then
          Alcotest.fail
            (Printf.sprintf "iteration %d: round-trip changed the record" iter)
  done

let test_stats_of_json_errors () =
  (match Stats.of_json (Json.Obj [ ("commits", Json.Int 1) ]) with
  | Ok _ -> Alcotest.fail "accepted a truncated object"
  | Error e ->
      Alcotest.(check bool)
        "names the missing field" true
        (String.length e > 0));
  match Stats.of_json Json.Null with
  | Ok _ -> Alcotest.fail "accepted null"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Bench snapshots                                                     *)
(* ------------------------------------------------------------------ *)

let sample thr =
  { Bench.thr; elapsed_s = 0.1; commits = int_of_float (thr /. 10.0); aborts = 1 }

let cell ?(stm = "tinystm-wb") ?(domains = 2) thrs =
  {
    Bench.stm;
    structure = "rbtree";
    domains;
    workload = "uniform";
    size = 256;
    update_pct = 20.0;
    samples = List.map sample thrs;
    stats = Json.Obj [ ("tm", Json.Obj [ ("commits", Json.Int 42) ]) ];
  }

let snap cells =
  {
    Bench.rev = "deadbee";
    created_unix = 1.75e9;
    duration_s = 0.2;
    warmup_s = 0.05;
    reps = 3;
    host =
      {
        Bench.cores = 8;
        ocaml = "5.1.1";
        os_type = "Unix";
        word_size = 64;
        clock_res_ns = 30;
      };
    cells;
  }

let test_snapshot_roundtrip () =
  let t = snap [ cell [ 100.5; 110.25; 90.75 ]; cell ~domains:4 [ 50.0 ] ] in
  let s = Bench.to_string t in
  match Bench.of_string s with
  | Error e -> Alcotest.fail e
  | Ok t' ->
      Alcotest.(check string) "byte-stable round-trip" s (Bench.to_string t');
      Alcotest.(check int) "cells survive" 2 (List.length t'.Bench.cells);
      Alcotest.(check (float 1e-9))
        "mean recomputed identically" (Bench.cell_mean (List.hd t.Bench.cells))
        (Bench.cell_mean (List.hd t'.Bench.cells))

(* First-occurrence substring replacement (avoids a Str dependency). *)
let replace ~sub ~by s =
  let n = String.length sub in
  let rec find i =
    if i + n > String.length s then None
    else if String.sub s i n = sub then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> s
  | Some i ->
      String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)

let test_snapshot_schema_guard () =
  let s = Bench.to_string (snap []) in
  let bad = replace ~sub:"tstm-bench/1" ~by:"tstm-bench/999" s in
  match Bench.of_string bad with
  | Ok _ -> Alcotest.fail "accepted an unknown schema"
  | Error e ->
      Alcotest.(check bool)
        "mentions the schema" true
        (String.length e > 0)

let test_cell_stats () =
  let c = cell [ 100.0; 100.0; 100.0 ] in
  Alcotest.(check (float 1e-9)) "mean" 100.0 (Bench.cell_mean c);
  Alcotest.(check (float 1e-9)) "ci95 of constant samples" 0.0
    (Bench.cell_ci95 c);
  Alcotest.(check (float 1e-9)) "ci95 of one sample" 0.0
    (Bench.cell_ci95 (cell [ 123.0 ]));
  (* Two samples: ci95 = t975(1) * sd / sqrt 2 with sd = |a-b| / sqrt 2. *)
  let c2 = Bench.cell_ci95 (cell [ 90.0; 110.0 ]) in
  Alcotest.(check (float 1e-6)) "ci95 of two samples" (12.706 *. 10.0) c2

let test_compare_thresholds () =
  let compare_one old_thrs new_thrs =
    let v =
      Bench.compare
        ~old_snap:(snap [ cell old_thrs ])
        ~new_snap:(snap [ cell new_thrs ])
        ()
    in
    match v.Bench.deltas with
    | [ d ] -> (d, v)
    | _ -> Alcotest.fail "expected one delta"
  in
  (* Clear regression: tight samples, 20% drop > 10% threshold. *)
  let d, v = compare_one [ 100.0; 100.0; 100.0 ] [ 80.0; 80.0; 80.0 ] in
  Alcotest.(check bool) "clear drop flags" true d.Bench.regression;
  Alcotest.(check int) "counted" 1 v.Bench.regressions;
  (* Small drop: beyond noise (zero CI) but below the percent floor. *)
  let d, _ = compare_one [ 100.0; 100.0; 100.0 ] [ 95.0; 95.0; 95.0 ] in
  Alcotest.(check bool) "5% drop is tolerated" false d.Bench.regression;
  (* Noisy drop: 20% down but the new samples' CI swallows it. *)
  let d, _ =
    compare_one [ 100000.0; 100000.0; 100000.0 ] [ 40000.0; 120000.0; 80000.0 ]
  in
  Alcotest.(check bool) "noise masks the drop" false d.Bench.regression;
  (* Improvement never flags. *)
  let d, _ = compare_one [ 100.0; 100.0; 100.0 ] [ 200.0; 200.0; 200.0 ] in
  Alcotest.(check bool) "improvement ok" false d.Bench.regression;
  (* The percent floor is adjustable. *)
  let v =
    Bench.compare ~threshold_pct:2.0
      ~old_snap:(snap [ cell [ 100.0; 100.0; 100.0 ] ])
      ~new_snap:(snap [ cell [ 95.0; 95.0; 95.0 ] ])
      ()
  in
  Alcotest.(check int) "tighter floor flags 5%" 1 v.Bench.regressions

let test_compare_matching () =
  let v =
    Bench.compare
      ~old_snap:(snap [ cell [ 1.0 ]; cell ~domains:4 [ 1.0 ] ])
      ~new_snap:(snap [ cell [ 1.0 ]; cell ~stm:"tl2" [ 1.0 ] ])
      ()
  in
  Alcotest.(check int) "one matched delta" 1 (List.length v.Bench.deltas);
  Alcotest.(check (list string))
    "old-only cell reported missing"
    [ "tinystm-wb/rbtree/d4/uniform/n256/u20" ]
    v.Bench.missing;
  Alcotest.(check (list string))
    "new-only cell reported added"
    [ "tl2/rbtree/d2/uniform/n256/u20" ]
    v.Bench.added

let test_compare_disjoint () =
  (* Entirely disjoint cell sets: nothing to diff.  The verdict must say
     so explicitly rather than printing an empty table that reads as "no
     regressions". *)
  let v =
    Bench.compare
      ~old_snap:(snap [ cell [ 1.0 ]; cell ~domains:4 [ 1.0 ] ])
      ~new_snap:(snap [ cell ~stm:"tl2" [ 1.0 ] ])
      ()
  in
  Alcotest.(check int) "no deltas" 0 (List.length v.Bench.deltas);
  Alcotest.(check int) "no regressions" 0 v.Bench.regressions;
  let rendered = Bench.render_verdict v in
  let contains sub =
    let n = String.length sub and m = String.length rendered in
    let rec go i = i + n <= m && (String.sub rendered i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool)
    "diagnostic names the problem" true
    (contains "no comparable cells");
  Alcotest.(check bool) "counts the old-only cells" true (contains "2 only in old");
  Alcotest.(check bool) "counts the new-only cells" true (contains "1 only in new")

(* ------------------------------------------------------------------ *)
(* repro compare CLI driver: unreadable / newer-schema inputs           *)
(* ------------------------------------------------------------------ *)

let with_temp_file content f =
  let path = Filename.temp_file "tstm_bench_test" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      output_string oc content;
      close_out oc;
      f path)

let test_compare_cli_robustness () =
  let good = Bench.to_string (snap [ cell [ 100.0; 100.0; 100.0 ] ]) in
  let newer = replace ~sub:"tstm-bench/1" ~by:"tstm-bench/999" good in
  let run ~report_only old_c new_c =
    with_temp_file old_c (fun old_path ->
        with_temp_file new_c (fun new_path ->
            Tstm_exec.Cli.run_bench_compare ~threshold:10.0 ~report_only
              ~old_path ~new_path ()))
  in
  (* A snapshot from a newer binary must fail loudly, not misreport. *)
  Alcotest.(check bool)
    "newer schema fails the comparison" false
    (run ~report_only:false good newer);
  Alcotest.(check bool)
    "newer schema under --report-only still exits clean" true
    (run ~report_only:true good newer);
  (* Malformed JSON likewise. *)
  Alcotest.(check bool)
    "garbage input fails the comparison" false
    (run ~report_only:false good "{not json");
  Alcotest.(check bool)
    "garbage input under --report-only still exits clean" true
    (run ~report_only:true good "{not json");
  (* A missing file is a load failure, not a crash. *)
  Alcotest.(check bool)
    "missing file fails the comparison" false
    (with_temp_file good (fun old_path ->
         Tstm_exec.Cli.run_bench_compare ~threshold:10.0 ~report_only:false
           ~old_path ~new_path:"/nonexistent/BENCH_missing.json" ()));
  (* Identical healthy snapshots still compare clean end to end. *)
  Alcotest.(check bool)
    "healthy snapshots pass" true
    (run ~report_only:false good good)

(* ------------------------------------------------------------------ *)
(* Monotonic clock                                                     *)
(* ------------------------------------------------------------------ *)

let test_monotonic () =
  let prev = ref (Mono.now_ns ()) in
  for _ = 1 to 10_000 do
    let t = Mono.now_ns () in
    if t < !prev then Alcotest.fail "clock went backwards";
    prev := t
  done;
  let t0 = Mono.now_ns () in
  Unix.sleepf 0.01;
  let dt = Mono.elapsed_s ~since:t0 in
  Alcotest.(check bool)
    (Printf.sprintf "10ms sleep measures as %.4fs" dt)
    true
    (dt >= 0.009 && dt < 1.0);
  Alcotest.(check bool) "resolution is positive" true (Mono.resolution_ns () >= 1)

let () =
  Alcotest.run "bench"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "nonfinite" `Quick test_json_nonfinite;
          Alcotest.test_case "errors" `Quick test_json_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "json-props",
        List.map QCheck_alcotest.to_alcotest [ prop_json_escape_roundtrip ] );
      ( "tm-stats",
        [
          Alcotest.test_case "roundtrip" `Quick test_stats_roundtrip;
          Alcotest.test_case "roundtrip random" `Quick
            test_stats_roundtrip_random;
          Alcotest.test_case "errors" `Quick test_stats_of_json_errors;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "roundtrip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "schema guard" `Quick test_snapshot_schema_guard;
          Alcotest.test_case "cell stats" `Quick test_cell_stats;
        ] );
      ( "compare",
        [
          Alcotest.test_case "thresholds" `Quick test_compare_thresholds;
          Alcotest.test_case "matching" `Quick test_compare_matching;
          Alcotest.test_case "disjoint" `Quick test_compare_disjoint;
          Alcotest.test_case "cli robustness" `Quick
            test_compare_cli_robustness;
        ] );
      ( "monotonic",
        [ Alcotest.test_case "monotonic" `Quick test_monotonic ] );
    ]
