(* Tests for the deterministic chaos engine: checker verdicts on hand-built
   histories, bit-identical seed replay, failing-schedule shrinking,
   deliberate-bug detection, and retry-budget escalation to serial
   irrevocable commit. *)

module R = Tstm_runtime.Runtime_sim
module Plan = Tstm_chaos.Plan
module History = Tstm_chaos.History
module Stress = Tstm_harness.Stress
module Scenario = Tstm_harness.Scenario
module Workload = Tstm_harness.Workload
module Config = Tinystm.Config
module Ts = Scenario.Ts
module Tl = Scenario.Tl
module No = Scenario.No

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* History checker                                                     *)
(* ------------------------------------------------------------------ *)

let ev tid inv resp op result = { History.tid; inv; resp; op; result }

let accepted ?(final = []) evs =
  match History.check ~final evs with Ok () -> true | Error _ -> false

let test_checker_sequential () =
  let evs =
    [
      ev 0 0 1 (History.Add 1) true;
      ev 0 2 3 (History.Contains 1) true;
      ev 0 4 5 (History.Remove 1) true;
      ev 0 6 7 (History.Contains 1) false;
    ]
  in
  check_bool "sequential history accepted" true (accepted evs)

let test_checker_impossible_result () =
  check_bool "contains-true with no add rejected" false
    (accepted [ ev 0 0 1 (History.Contains 5) true ]);
  check_bool "remove-true with no add rejected" false
    (accepted [ ev 0 0 1 (History.Remove 5) true ]);
  check_bool "duplicate add-true rejected" false
    (accepted ~final:[ 1 ]
       [ ev 0 0 1 (History.Add 1) true; ev 1 2 3 (History.Add 1) true ])

let test_checker_final_contents () =
  let add = [ ev 0 0 1 (History.Add 1) true ] in
  check_bool "final must contain the added key" false (accepted add);
  check_bool "correct final accepted" true (accepted ~final:[ 1 ] add);
  check_bool "phantom final element rejected" false (accepted ~final:[ 9 ] [])

let test_checker_overlap_commutes () =
  (* The Contains invokes first but overlaps the Add; linearizing the Add
     first explains both results. *)
  let evs =
    [ ev 0 0 10 (History.Contains 1) true; ev 1 1 5 (History.Add 1) true ]
  in
  check_bool "overlapping ops may reorder" true (accepted ~final:[ 1 ] evs)

let test_checker_real_time_order () =
  (* Same pair but disjoint in real time: the Contains responded before the
     Add was invoked, so no linearization can explain [true]. *)
  let evs =
    [ ev 0 0 1 (History.Contains 1) true; ev 1 5 6 (History.Add 1) true ]
  in
  check_bool "real-time order enforced" false (accepted ~final:[ 1 ] evs)

let test_checker_diagnostic_mentions_stuck_op () =
  match
    History.check ~final:[] [ ev 0 0 1 (History.Contains 7) true ]
  with
  | Ok () -> Alcotest.fail "expected a violation"
  | Error msg ->
      check_bool "diagnostic names the stuck operation" true
        (let sub = History.op_to_string (History.Contains 7) in
         let len = String.length sub in
         let rec find i =
           i + len <= String.length msg
           && (String.sub msg i len = sub || find (i + 1))
         in
         find 0)

(* ------------------------------------------------------------------ *)
(* Deterministic replay and shrinking                                  *)
(* ------------------------------------------------------------------ *)

let test_run_one_deterministic () =
  let spec = { Stress.default with Stress.seed = 7 } in
  let r1 = Stress.run_one spec in
  let r2 = Stress.run_one spec in
  check_bool "same spec, bit-identical report" true (r1 = r2);
  check_bool "chaos actually fired" true (r1.Stress.injected > 0);
  check_bool "no violation on a clean STM" true (r1.Stress.violation = None)

let test_seeds_explore_distinct_schedules () =
  let fingerprints =
    List.init 5 (fun seed ->
        let r = Stress.run_one { Stress.default with Stress.seed = seed } in
        (r.Stress.injected, r.Stress.commits, r.Stress.aborts))
  in
  let distinct = List.sort_uniq compare fingerprints in
  check_bool "different seeds yield different schedules" true
    (List.length distinct > 1)

let test_site_limit_respected () =
  let r = Stress.run_one { Stress.default with Stress.site_limit = Some 5 } in
  check_bool "at most 5 injections fired" true (r.Stress.injected <= 5)

let test_replay_at_injected_cap_reproduces () =
  (* Shrinker soundness: capping at exactly the number of sites that fired
     replays the uncapped run bit-identically. *)
  let spec = { Stress.default with Stress.seed = 3 } in
  let base = Stress.run_one spec in
  let capped =
    Stress.run_one { spec with Stress.site_limit = Some base.Stress.injected }
  in
  check_int "same injections" base.Stress.injected capped.Stress.injected;
  check_int "same events" base.Stress.events capped.Stress.events;
  check_int "same commits" base.Stress.commits capped.Stress.commits;
  check_int "same aborts" base.Stress.aborts capped.Stress.aborts

(* ------------------------------------------------------------------ *)
(* Deliberate bugs are caught, and the printed seed replays             *)
(* ------------------------------------------------------------------ *)

let find_bug_failure bug stms =
  let base = { Stress.default with Stress.bug = Some bug } in
  let sweep =
    Stress.sweep ~seeds:10 ~stms ~structures:[ Workload.List ] base
  in
  sweep.Stress.first_failure

let test_skip_extension_caught_and_replays () =
  match find_bug_failure Plan.Skip_extension [ "tinystm-wb" ] with
  | None -> Alcotest.fail "skip-extension bug not caught within 10 seeds"
  | Some (spec, r) ->
      check_bool "verdict is a violation" true (r.Stress.violation <> None);
      (* The failing spec replays to the same verdict, bit for bit. *)
      let replay = Stress.run_one spec in
      check_bool "replay is bit-identical" true (replay = r);
      (* And it shrinks to a re-executed failing site budget. *)
      (match Stress.shrink spec r with
      | None -> Alcotest.fail "shrink lost the failure"
      | Some s ->
          check_bool "shrunk limit still fails" true
            (s.Stress.report.Stress.violation <> None);
          check_bool "shrunk limit is no larger" true
            (s.Stress.limit <= r.Stress.injected))

let test_skip_validation_caught () =
  let caught kind =
    match find_bug_failure Plan.Skip_validation [ kind ] with
    | Some _ -> true
    | None -> false
  in
  check_bool "skip-validation caught on some STM within 10 seeds" true
    (List.exists caught Scenario.all_stms)

(* ------------------------------------------------------------------ *)
(* Retry-budget escalation to irrevocable commit                       *)
(* ------------------------------------------------------------------ *)

(* Hot counter under forced preemption: every increment must land exactly
   once even when transactions exhaust their retry budget and escalate to
   the serial-irrevocable path. *)
module Hot (T : Tstm_tm.Tm_intf.TM) = struct
  let run t ~nthreads ~iters =
    let a = T.atomically t (fun tx -> T.alloc tx 1) in
    T.atomically t (fun tx -> T.write tx a 0);
    T.reset_stats t;
    Plan.with_plan ~config:(Sim Plan.sim_default) ~seed:1 (fun () ->
        R.run ~nthreads (fun _ ->
            for _ = 1 to iters do
              T.atomically t (fun tx -> T.write tx a (T.read tx a + 1))
            done));
    let v = T.atomically t (fun tx -> T.read tx a) in
    (v, T.stats t)
end

module Hot_ts = Hot (Ts)
module Hot_tl = Hot (Tl)
module Hot_no = Hot (No)

let check_escalation name (v, stats) ~expect =
  check_int (name ^ ": exact counter value") expect v;
  check_bool (name ^ ": at least one escalation") true
    (stats.Tstm_tm.Tm_stats.escalations >= 1);
  check_bool (name ^ ": backoff cycles recorded") true
    (stats.Tstm_tm.Tm_stats.backoff_cycles > 0)

let test_escalation_tinystm strategy () =
  let t =
    Ts.create
      ~config:(Config.make ~n_locks:64 ~strategy ())
      ~max_retries:4 ~memory_words:256 ()
  in
  check_escalation
    (Config.strategy_to_string strategy)
    (Hot_ts.run t ~nthreads:8 ~iters:50)
    ~expect:400

let test_escalation_tl2 () =
  let t = Tl.create ~n_locks:64 ~max_retries:4 ~memory_words:256 () in
  check_escalation "tl2" (Hot_tl.run t ~nthreads:8 ~iters:50) ~expect:400

let test_escalation_norec () =
  let t = No.create ~max_retries:4 ~memory_words:256 () in
  check_escalation "norec" (Hot_no.run t ~nthreads:8 ~iters:50) ~expect:400

let test_no_escalation_without_budget () =
  (* max_retries = 0 disables the watchdog: same workload, zero
     escalations, still the exact count. *)
  let t =
    Ts.create ~config:(Config.make ~n_locks:64 ()) ~memory_words:256 ()
  in
  let v, stats = Hot_ts.run t ~nthreads:8 ~iters:50 in
  check_int "exact counter value" 400 v;
  check_int "no escalations" 0 stats.Tstm_tm.Tm_stats.escalations

let test_max_retries_validated () =
  (try
     ignore (Ts.create ~max_retries:(-1) ~memory_words:64 ());
     Alcotest.fail "negative max_retries accepted (tinystm)"
   with Invalid_argument _ -> ());
  (try
     ignore (Tl.create ~max_retries:(-1) ~memory_words:64 ());
     Alcotest.fail "negative max_retries accepted (tl2)"
   with Invalid_argument _ -> ());
  try
    ignore (No.create ~max_retries:(-1) ~memory_words:64 ());
    Alcotest.fail "negative max_retries accepted (norec)"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Plan API corners                                                    *)
(* ------------------------------------------------------------------ *)

let test_config_validated () =
  let bad config =
    try
      Plan.with_plan ~config ~seed:0 (fun () -> ());
      false
    with Invalid_argument _ -> true
  in
  let sim = Plan.sim_default and real = Plan.real_default in
  check_bool "jitter_pct out of range" true
    (bad (Sim { sim with jitter_pct = -1.0 }));
  check_bool "preempt_pct out of range" true
    (bad (Sim { sim with preempt_pct = 101.0 }));
  check_bool "jitter_max < 1" true (bad (Sim { sim with jitter_max = 0 }));
  check_bool "crash_pct out of range" true
    (bad (Real { real with crash_pct = -0.5 }));
  check_bool "oom_pct out of range" true
    (bad (Real { real with oom_pct = 100.5 }));
  check_bool "crash_pct + hang_pct > 100" true
    (bad (Real { real with crash_pct = 60.0; hang_pct = 50.0 }));
  check_bool "hang_us < 1" true (bad (Real { real with hang_us = 0 }));
  check_bool "defaults accepted" false
    (bad (Sim sim) || bad (Real real))

let test_inactive_plan_is_silent () =
  Plan.deactivate ();
  check_bool "disabled" true (not (Plan.enabled ()));
  List.iter
    (fun point ->
      check_bool (Plan.point_name point ^ " proceeds") true
        (Plan.at point ~tid:0 = Proceed))
    [ Charge; Lock_cas; Clock_read; Commit; Abort; Alloc ];
  check_int "no injections" 0 (Plan.fired ());
  check_int "no decisions" 0 (Plan.decisions ())

(* The real sampler's replay discipline: thread t's k-th decision is a
   function of (seed, t, k) alone, whatever the interleaving, and the
   limit is exact even when domains race for it. *)
let real_config =
  Plan.Real { crash_pct = 20.0; hang_pct = 20.0; hang_us = 50; oom_pct = 30.0 }

let real_points = Plan.[| Clock_read; Commit; Abort; Alloc |]

let draws ~tid n =
  List.init n (fun k -> Plan.at real_points.(k mod 4) ~tid)

let test_real_sampler_interleaving () =
  let n = 400 in
  let run order =
    Plan.with_plan ~config:real_config ~seed:9 (fun () ->
        let out = Array.make 2 [] in
        List.iter (fun tid -> out.(tid) <- draws ~tid n) order;
        check_int "every draw counted" (2 * n) (Plan.decisions ());
        out)
  in
  let zero_first = run [ 0; 1 ] and one_first = run [ 1; 0 ] in
  let racing =
    Plan.with_plan ~config:real_config ~seed:9 (fun () ->
        let d = Domain.spawn (fun () -> draws ~tid:1 n) in
        let mine = draws ~tid:0 n in
        [| mine; Domain.join d |])
  in
  check_bool "some decisions fire" true
    (List.exists (fun d -> d <> Plan.Proceed) zero_first.(0));
  for tid = 0 to 1 do
    let name = Printf.sprintf "tid %d" tid in
    check_bool (name ^ ": tid 1 first = tid 0 first") true
      (one_first.(tid) = zero_first.(tid));
    check_bool (name ^ ": racing domains = tid 0 first") true
      (racing.(tid) = zero_first.(tid))
  done

let test_real_limit_exact_under_race () =
  let limit = 37 in
  let fired ds = List.length (List.filter (fun d -> d <> Plan.Proceed) ds) in
  Plan.with_plan ~config:real_config ~limit ~seed:4 (fun () ->
      let d = Domain.spawn (fun () -> draws ~tid:1 2_000) in
      let mine = draws ~tid:0 2_000 in
      let theirs = Domain.join d in
      check_int "fired = limit" limit (Plan.fired ());
      check_int "decisions that fired = limit" limit
        (fired mine + fired theirs))

let () =
  Alcotest.run "chaos"
    [
      ( "history checker",
        [
          Alcotest.test_case "sequential accepted" `Quick
            test_checker_sequential;
          Alcotest.test_case "impossible results rejected" `Quick
            test_checker_impossible_result;
          Alcotest.test_case "final contents checked" `Quick
            test_checker_final_contents;
          Alcotest.test_case "overlapping ops commute" `Quick
            test_checker_overlap_commutes;
          Alcotest.test_case "real-time order enforced" `Quick
            test_checker_real_time_order;
          Alcotest.test_case "diagnostic names stuck op" `Quick
            test_checker_diagnostic_mentions_stuck_op;
        ] );
      ( "deterministic replay",
        [
          Alcotest.test_case "run_one is deterministic" `Quick
            test_run_one_deterministic;
          Alcotest.test_case "seeds explore distinct schedules" `Quick
            test_seeds_explore_distinct_schedules;
          Alcotest.test_case "site limit respected" `Quick
            test_site_limit_respected;
          Alcotest.test_case "cap at injected reproduces" `Quick
            test_replay_at_injected_cap_reproduces;
        ] );
      ( "bug detection",
        [
          Alcotest.test_case "skip-extension caught, replays, shrinks"
            `Quick test_skip_extension_caught_and_replays;
          Alcotest.test_case "skip-validation caught" `Quick
            test_skip_validation_caught;
        ] );
      ( "irrevocable escalation",
        [
          Alcotest.test_case "write-back hot counter" `Quick
            (test_escalation_tinystm Config.Write_back);
          Alcotest.test_case "write-through hot counter" `Quick
            (test_escalation_tinystm Config.Write_through);
          Alcotest.test_case "tl2 hot counter" `Quick test_escalation_tl2;
          Alcotest.test_case "norec hot counter" `Quick test_escalation_norec;
          Alcotest.test_case "no escalation without budget" `Quick
            test_no_escalation_without_budget;
          Alcotest.test_case "max_retries validated" `Quick
            test_max_retries_validated;
        ] );
      ( "plan api",
        [
          Alcotest.test_case "config validated" `Quick test_config_validated;
          Alcotest.test_case "inactive plan silent" `Quick
            test_inactive_plan_is_silent;
          Alcotest.test_case "real sampler: same draws in any interleaving"
            `Quick test_real_sampler_interleaving;
          Alcotest.test_case "real sampler: limit exact under a race" `Quick
            test_real_limit_exact_under_race;
        ] );
    ]
