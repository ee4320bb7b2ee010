(* Tests for the observability subsystem (Tstm_obs): ring buffers,
   histograms, contention attribution, exporters, and the guarantee that a
   Null sink leaves simulated runs bit-identical. *)

module Obs = Tstm_obs
module W = Tstm_harness.Workload
module S = Tstm_harness.Scenario

let ev = Obs.Event.Tx_begin
let stamp ts cpu = { Obs.Ring.ts; cpu; ev }

(* ------------------------------------------------------------------ *)
(* Ring                                                                *)
(* ------------------------------------------------------------------ *)

let test_ring_growth () =
  let r = Obs.Ring.create ~capacity:1024 () in
  for i = 0 to 499 do
    Obs.Ring.push r (stamp i 0)
  done;
  Alcotest.(check int) "length" 500 (Obs.Ring.length r);
  Alcotest.(check int) "nothing dropped" 0 (Obs.Ring.dropped r);
  let ts = List.map (fun s -> s.Obs.Ring.ts) (Obs.Ring.to_list r) in
  Alcotest.(check (list int)) "oldest-first order" (List.init 500 Fun.id) ts

let test_ring_wraparound () =
  let r = Obs.Ring.create ~capacity:8 () in
  for i = 0 to 19 do
    Obs.Ring.push r (stamp i 1)
  done;
  Alcotest.(check int) "length capped" 8 (Obs.Ring.length r);
  Alcotest.(check int) "capacity" 8 (Obs.Ring.capacity r);
  Alcotest.(check int) "dropped" 12 (Obs.Ring.dropped r);
  let ts = List.map (fun s -> s.Obs.Ring.ts) (Obs.Ring.to_list r) in
  Alcotest.(check (list int))
    "keeps the newest, oldest first"
    [ 12; 13; 14; 15; 16; 17; 18; 19 ]
    ts;
  Obs.Ring.clear r;
  Alcotest.(check int) "clear empties" 0 (Obs.Ring.length r);
  Alcotest.(check int) "clear resets dropped" 0 (Obs.Ring.dropped r)

(* ------------------------------------------------------------------ *)
(* Histo                                                               *)
(* ------------------------------------------------------------------ *)

let test_histo_buckets () =
  let b = Obs.Histo.bucket_of in
  Alcotest.(check int) "0 -> bucket 0" 0 (b 0);
  Alcotest.(check int) "negative clamps to bucket 0" 0 (b (-5));
  Alcotest.(check int) "1 -> bucket 1" 1 (b 1);
  Alcotest.(check int) "2 -> bucket 2" 2 (b 2);
  Alcotest.(check int) "3 -> bucket 2" 2 (b 3);
  Alcotest.(check int) "4 -> bucket 3" 3 (b 4);
  Alcotest.(check int) "7 -> bucket 3" 3 (b 7);
  Alcotest.(check int) "8 -> bucket 4" 4 (b 8);
  Alcotest.(check int) "1024 -> bucket 11" 11 (b 1024);
  for k = 1 to 20 do
    Alcotest.(check int)
      (Printf.sprintf "lower_bound %d is in bucket %d" k k)
      k
      (b (Obs.Histo.lower_bound k));
    Alcotest.(check int)
      (Printf.sprintf "upper_bound %d is in bucket %d" k k)
      k
      (b (Obs.Histo.upper_bound k))
  done

let test_histo_stats () =
  let h = Obs.Histo.create () in
  List.iter (Obs.Histo.record h) [ 0; 1; 2; 3; 100; 1000 ];
  Alcotest.(check int) "count" 6 (Obs.Histo.count h);
  Alcotest.(check int) "sum is exact" 1106 (Obs.Histo.sum h);
  Alcotest.(check int) "max" 1000 (Obs.Histo.max_value h);
  Alcotest.(check int) "bucket 2 holds {2,3}" 2 (Obs.Histo.bucket_count h 2);
  (* p50 of 6 samples: cumulative 3/6 reached at bucket 2 -> upper bound 3 *)
  Alcotest.(check int) "p50" 3 (Obs.Histo.percentile h 50.0);
  (* p100 is capped by the true maximum, not the bucket upper bound *)
  Alcotest.(check int) "p100 capped at max" 1000 (Obs.Histo.percentile h 100.0);
  let snap = Obs.Histo.copy h in
  List.iter (Obs.Histo.record h) [ 7; 7; 7 ];
  let d = Obs.Histo.diff h ~since:snap in
  Alcotest.(check int) "diff count" 3 (Obs.Histo.count d);
  Alcotest.(check int) "diff sum" 21 (Obs.Histo.sum d);
  Alcotest.(check int) "diff bucket" 3 (Obs.Histo.bucket_count d 3)

(* ------------------------------------------------------------------ *)
(* Contend                                                             *)
(* ------------------------------------------------------------------ *)

let test_contend () =
  let c = Obs.Contend.create () in
  for _ = 1 to 5 do
    Obs.Contend.record c ~label:"locks" ~line:3 ~same_word:true
  done;
  for _ = 1 to 2 do
    Obs.Contend.record c ~label:"locks" ~line:3 ~same_word:false
  done;
  Obs.Contend.record c ~label:"mem" ~line:0 ~same_word:false;
  Alcotest.(check int) "total" 8 (Obs.Contend.total_transfers c);
  match Obs.Contend.entries c with
  | [ e1; e2 ] ->
      Alcotest.(check string) "hottest label" "locks" e1.Obs.Contend.label;
      Alcotest.(check int) "hottest transfers" 7 e1.Obs.Contend.transfers;
      Alcotest.(check int) "true conflicts" 5 e1.Obs.Contend.true_conflicts;
      Alcotest.(check int) "false sharing" 2 e1.Obs.Contend.false_sharing;
      Alcotest.(check string) "second label" "mem" e2.Obs.Contend.label
  | l -> Alcotest.failf "expected 2 entries, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Observed runs: determinism, JSON validity, Null-sink neutrality     *)
(* ------------------------------------------------------------------ *)

let spec =
  W.make ~structure:W.List ~initial_size:64 ~update_pct:20.0 ~nthreads:4
    ~duration:0.002 ~seed:7 ()

let observed () =
  S.run_intset_observed ~stm:"tinystm-wb" ~period:0.0005 ~n_periods:4 spec

let test_trace_deterministic () =
  let _, c1, m1 = observed () in
  let _, c2, m2 = observed () in
  Alcotest.(check string)
    "same seed, byte-identical traces"
    (Obs.Export.chrome_trace c1)
    (Obs.Export.chrome_trace c2);
  Alcotest.(check string)
    "same seed, byte-identical metrics CSV"
    (Obs.Metrics.to_csv m1) (Obs.Metrics.to_csv m2);
  Alcotest.(check string)
    "same seed, byte-identical contention report"
    (Obs.Export.top_contended ~n:5 c1)
    (Obs.Export.top_contended ~n:5 c2)

let test_trace_json_valid () =
  let _, c, m = observed () in
  let json = Obs.Export.chrome_trace c in
  Alcotest.(check bool) "trace is valid JSON" true
    (Obs.Json.of_string_opt json <> None);
  (* The trace actually recorded transactions on several CPU tracks. *)
  let contains sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has tx slices" true (contains "\"name\":\"tx\"" json);
  Alcotest.(check bool)
    "has per-CPU track metadata" true
    (contains "thread_name" json);
  let csv = Obs.Metrics.to_csv m in
  Alcotest.(check int)
    "one CSV row per period (plus header)" 5
    (List.length
       (String.split_on_char '\n' (String.trim csv)));
  Alcotest.(check bool)
    "CSV has the latency columns" true
    (contains "p99_commit_cycles" csv)

let test_json_validator_rejects () =
  (* [Json.of_string_opt] is the one check the trace and snapshot exports
     are held to, so it must reject junk as well as accept the traces. *)
  let rejects s =
    Alcotest.(check bool)
      (Printf.sprintf "rejects %S" s)
      true
      (Obs.Json.of_string_opt s = None)
  in
  List.iter rejects
    [
      "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "{\"a\":1}extra"; "";
      "\"raw\001control\"";
    ];
  (* A real trace damaged three ways: cut short, trailing garbage, and a
     raw newline spliced into its first string. *)
  let _, c, _ = observed () in
  let json = Obs.Export.chrome_trace c in
  let q = String.index json '"' in
  List.iter rejects
    [
      String.sub json 0 (String.length json / 2);
      json ^ "]";
      String.sub json 0 (q + 1) ^ "\n"
      ^ String.sub json (q + 1) (String.length json - q - 1);
    ]

let test_null_sink_neutral () =
  (* The whole point of the probe gate: a run with the sink collecting and
     the sanitizer armed must report exactly the same simulated results as
     a disarmed one, on every registered STM. *)
  List.iter
    (fun (e : Tstm_tm.Registry.entry) ->
      let stm = e.Tstm_tm.Registry.name in
      let run () = S.run_intset ~stm spec in
      let r_null = run () in
      let collector = Obs.Sink.collector () in
      let r_obs, findings =
        Obs.Sink.with_sink (Obs.Sink.Collect collector) (fun () ->
            Tstm_san.San.with_armed ~ncpus:spec.W.nthreads run)
      in
      Alcotest.(check int) (stm ^ " commits identical") r_null.W.commits
        r_obs.W.commits;
      Alcotest.(check int) (stm ^ " aborts identical") r_null.W.aborts
        r_obs.W.aborts;
      Alcotest.(check (float 0.0))
        (stm ^ " throughput identical")
        r_null.W.throughput r_obs.W.throughput;
      Alcotest.(check int) (stm ^ " sanitizer clean") 0 (List.length findings);
      Alcotest.(check bool)
        (stm ^ ": the collecting run did record events")
        true
        (Array.exists (fun r -> Obs.Ring.length r > 0) collector.Obs.Sink.rings))
    (Tstm_tm.Registry.all ());
  Alcotest.(check bool)
    "sink restored to Null" true
    (Obs.Sink.current () = Obs.Sink.Null);
  Alcotest.(check bool) "probe gate off again" false (Tstm_tm.Probe.on ())

(* The probe gate is on exactly while some hook system is armed, and the
   scoped arming helpers restore it even when their body raises. *)
let test_probe_gate () =
  let module Plan = Tstm_chaos.Plan in
  let module San = Tstm_san.San in
  let config = Plan.Sim Plan.sim_default in
  let on = Tstm_tm.Probe.on in
  let check msg want = Alcotest.(check bool) msg want (on ()) in
  let collect () = Obs.Sink.install (Obs.Sink.Collect (Obs.Sink.collector ())) in
  let systems =
    [
      ("sink", collect, fun () -> Obs.Sink.install Obs.Sink.Null);
      ("plan", (fun () -> Plan.activate ~config ~seed:1 ()), Plan.deactivate);
      ("san", (fun () -> San.arm ~ncpus:2 ()), San.disarm);
    ]
  in
  check "off with nothing armed" false;
  List.iter
    (fun (name, arm, disarm) ->
      arm ();
      check (name ^ " alone turns the gate on") true;
      disarm ();
      check (name ^ " disarmed turns it off") false)
    systems;
  (* All three armed: the gate stays on until the last one is disarmed. *)
  List.iter (fun (_, arm, _) -> arm ()) systems;
  List.iteri
    (fun i (name, _, disarm) ->
      disarm ();
      check
        (Printf.sprintf "after disarming %s (%d left)" name (2 - i))
        (i < 2))
    (List.rev systems);
  let raises name f =
    let body () =
      check (name ^ " body sees the gate on") true;
      raise Exit
    in
    (match f body with
    | _ -> Alcotest.failf "%s body did not raise" name
    | exception Exit -> ());
    check (name ^ " restores the gate after a raise") false
  in
  raises "Plan.with_plan" (fun body -> Plan.with_plan ~config ~seed:1 body);
  raises "San.with_armed" (fun body -> fst (San.with_armed ~ncpus:2 body));
  raises "Sink.with_sink" (fun body ->
      Obs.Sink.with_sink (Obs.Sink.Collect (Obs.Sink.collector ())) body)

let test_tl2_observed () =
  let _, c, m =
    S.run_intset_observed ~stm:"tl2" ~period:0.0005 ~n_periods:2 spec
  in
  Alcotest.(check bool)
    "TL2 trace valid JSON" true
    (Obs.Json.of_string_opt (Obs.Export.chrome_trace c) <> None);
  Alcotest.(check bool)
    "TL2 recorded commits" true
    (Obs.Histo.count c.Obs.Sink.commit_latency > 0);
  Alcotest.(check int) "TL2 metrics rows" 2 (Obs.Metrics.n_rows m)

(* An instance's trace stamps come from the kind it was created with,
   never from where the caller happens to run: outside any run, a
   simulated instance stamps 0 (no virtual time has passed) and a
   real-domain one stamps positive, non-decreasing wall-clock ns. *)
let trace_outside_any_run (module M : Tstm_tm.Tm_intf.STM) =
  let c = Obs.Sink.collector () in
  Obs.Sink.with_sink (Obs.Sink.Collect c) (fun () ->
      let tuning = { Tstm_tm.Tm_intf.default_tuning with n_locks = 64 } in
      let t = M.create ~tuning ~memory_words:64 () in
      let a = M.atomically t (fun tx -> M.alloc tx 2) in
      for i = 1 to 3 do
        M.atomically t (fun tx -> M.write tx a (M.read tx (a + 1) + i))
      done);
  List.map (fun s -> s.Obs.Ring.ts) (Obs.Ring.to_list c.Obs.Sink.rings.(0))

let test_clock_by_kind () =
  Tstm_tm.Registry.fold
    (fun () (e : Tstm_tm.Registry.entry) ->
      let sim = trace_outside_any_run e.sim in
      Alcotest.(check bool) (e.name ^ ": sim events") true (sim <> []);
      List.iter (Alcotest.(check int) (e.name ^ ": sim stamps 0") 0) sim;
      let real = trace_outside_any_run e.real in
      Alcotest.(check bool) (e.name ^ ": real events") true (real <> []);
      ignore
        (List.fold_left
           (fun prev ts ->
             Alcotest.(check bool)
               (Printf.sprintf "%s: real stamp %d > 0, >= %d" e.name ts prev)
               true
               (ts > 0 && ts >= prev);
             ts)
           0 real))
    ()

(* A sharded sink takes each note's shard from the [cpu] the probe passes,
   the recording domain's id, with no hook installed: one commit on each of
   two domains lands in that domain's shard.  Every registry entry. *)
let test_sharded_routing () =
  List.iter
    (fun (e : Tstm_tm.Registry.entry) ->
      let (module M) = e.real in
      let t = M.create ~memory_words:1024 () in
      let a = M.atomically t (fun tx -> M.alloc tx 2) in
      let shards = Array.init 2 (fun _ -> Obs.Sink.collector ()) in
      Obs.Sink.with_sink (Obs.Sink.Sharded shards) (fun () ->
          Tstm_runtime.Runtime.run M.kind ~nthreads:2 (fun tid ->
              M.atomically t (fun tx -> M.write tx (a + tid) tid)));
      Array.iteri
        (fun i c ->
          let name = Printf.sprintf "%s: shard %d commits" e.name i in
          Alcotest.(check int) name 1 (Obs.Histo.count c.Obs.Sink.commit_latency))
        shards)
    (Tstm_tm.Registry.all ())

let () =
  Alcotest.run "tstm_obs"
    [
      ( "ring",
        [
          Alcotest.test_case "growth keeps order" `Quick test_ring_growth;
          Alcotest.test_case "wrap-around" `Quick test_ring_wraparound;
        ] );
      ( "histo",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_histo_buckets;
          Alcotest.test_case "stats and diff" `Quick test_histo_stats;
        ] );
      ("contend", [ Alcotest.test_case "attribution" `Quick test_contend ]);
      ( "export",
        [
          Alcotest.test_case "deterministic traces" `Quick
            test_trace_deterministic;
          Alcotest.test_case "trace JSON + CSV shape" `Quick
            test_trace_json_valid;
          Alcotest.test_case "validator rejects junk" `Quick
            test_json_validator_rejects;
        ] );
      ( "sink",
        [
          Alcotest.test_case "Null sink neutrality" `Quick
            test_null_sink_neutral;
          Alcotest.test_case "probe gate" `Quick test_probe_gate;
          Alcotest.test_case "TL2 observed run" `Quick test_tl2_observed;
          Alcotest.test_case "clock by kind" `Quick test_clock_by_kind;
          Alcotest.test_case "sharded routing" `Quick test_sharded_routing;
        ] );
    ]
