(* Golden determinism of the multi-process sweep runner: the merged result
   of any plan must be byte-identical whatever the worker count, the
   completion order, or mid-job worker crashes (which requeue).  Verified
   by marshalling the outcome arrays and comparing digests — any bit of
   any result row differing fails the test. *)

module F = Tstm_harness.Figures
module W = Tstm_harness.Workload
module St = Tstm_harness.Stress
module Job = Tstm_exec.Job
module Plan = Tstm_exec.Plan
module Pool = Tstm_exec.Pool

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fingerprint (res : Plan.result) =
  Digest.to_hex (Digest.string (Marshal.to_string res.Plan.outcomes []))

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Pool mechanics (cheap jobs, no simulator)                           *)
(* ------------------------------------------------------------------ *)

let test_pool_rows_in_rank_order () =
  let v =
    Pool.map ~jobs:4 ~label:(fun i -> string_of_int i) (fun rank -> rank * 10) 9
  in
  check_bool "no failures" true (Pool.ok v);
  Array.iteri
    (fun i row -> check_bool "row matches rank" true (row = Some (i * 10)))
    v.Pool.rows

let test_pool_exception_fails_without_retry () =
  let v =
    Pool.map ~jobs:2
      ~label:(fun i -> string_of_int i)
      (fun rank -> if rank = 1 then failwith "boom" else rank)
      3
  in
  check_int "one failure" 1 (List.length v.Pool.failures);
  let f = List.hd v.Pool.failures in
  check_int "failed rank" 1 f.Pool.rank;
  (* A job-level exception is deterministic: retrying would fail the same
     way, so the pool must not burn attempts on it. *)
  check_int "single attempt" 1 f.Pool.attempts;
  check_bool "reason carries the exception" true
    (contains ~sub:"boom" f.Pool.reason);
  check_bool "other rows unaffected" true
    (v.Pool.rows.(0) = Some 0 && v.Pool.rows.(2) = Some 2)

let test_pool_timeout_kills_and_reports () =
  let v =
    Pool.map ~jobs:2 ~timeout:0.2 ~retries:0
      ~label:(fun i -> string_of_int i)
      (fun rank ->
        if rank = 0 then
          while true do
            ()
          done;
        7)
      2
  in
  check_bool "healthy row survives" true (v.Pool.rows.(1) = Some 7);
  check_int "one failure" 1 (List.length v.Pool.failures);
  let f = List.hd v.Pool.failures in
  check_int "spinning rank failed" 0 f.Pool.rank;
  check_bool "reason is the timeout" true (contains ~sub:"timeout" f.Pool.reason)

let test_plan_dedupes_equal_jobs () =
  let j = Job.Stress_run { St.default with St.seed = 0 } in
  let progress = ref 0 in
  let res =
    Plan.execute ~jobs:2
      ~on_progress:(fun p ->
        if p.Pool.status = Tstm_obs.Progress.Finished then incr progress)
      [| j; j; j |]
  in
  check_bool "all three outcomes present" true
    (Array.for_all (fun o -> o <> None) res.Plan.outcomes);
  check_bool "shared outcomes are equal" true
    (res.Plan.outcomes.(0) = res.Plan.outcomes.(1)
    && res.Plan.outcomes.(1) = res.Plan.outcomes.(2));
  (* Structural dedupe: the three plan entries ran as one job. *)
  check_int "evaluated once" 1 !progress

(* ------------------------------------------------------------------ *)
(* Golden determinism: figures                                         *)
(* ------------------------------------------------------------------ *)

(* Render the assembled figures the way the CLI would (CSV form), so the
   comparison covers the full plan -> evaluate -> assemble path. *)
let render_figures profile ns (res : Plan.result) =
  let buf = Buffer.create 4096 in
  let cursor = ref 0 in
  List.iter
    (fun n ->
      let cells = F.plan profile n in
      let values =
        Array.init (Array.length cells) (fun i ->
            match res.Plan.outcomes.(!cursor + i) with
            | Some (Job.Cell_value v) -> v
            | _ -> Alcotest.fail "missing figure cell")
      in
      cursor := !cursor + Array.length cells;
      List.iter
        (fun o ->
          Buffer.add_string buf
            (match o with
            | F.Table t -> Tstm_util.Series.table_to_csv t
            | F.Surface s -> Tstm_util.Series.surface_to_csv s))
        (F.assemble profile n values))
    ns;
  Buffer.contents buf

let golden_figs = [ 7; 10 ]

let test_figures_jobs_invariant () =
  let plan = Plan.figures F.quick golden_figs in
  let a = Plan.execute ~jobs:1 plan in
  let b = Plan.execute ~jobs:4 plan in
  check_bool "jobs=1 all ok" true (Plan.ok a);
  check_bool "jobs=4 all ok" true (Plan.ok b);
  Alcotest.(check string) "outcomes byte-identical" (fingerprint a)
    (fingerprint b);
  Alcotest.(check string)
    "rendered figures byte-identical"
    (render_figures F.quick golden_figs a)
    (render_figures F.quick golden_figs b)

(* ------------------------------------------------------------------ *)
(* Golden determinism: stress sweep                                    *)
(* ------------------------------------------------------------------ *)

let stress_pairs specs (res : Plan.result) =
  Array.mapi
    (fun i o ->
      match o with
      | Some (Job.Stress_report r) -> (specs.(i), r)
      | _ -> Alcotest.fail "missing stress report")
    res.Plan.outcomes

let test_stress_jobs_invariant () =
  let specs =
    St.plan ~seeds:20 ~stms:[ "tinystm-wb" ] ~structures:[ W.List ] St.default
  in
  let plan = Array.map (fun s -> Job.Stress_run s) specs in
  let a = Plan.execute ~jobs:1 plan in
  let b = Plan.execute ~jobs:4 plan in
  check_bool "jobs=1 all ok" true (Plan.ok a);
  check_bool "jobs=4 all ok" true (Plan.ok b);
  Alcotest.(check string) "reports byte-identical" (fingerprint a)
    (fingerprint b);
  let sa = St.summarize (stress_pairs specs a) in
  let sb = St.summarize (stress_pairs specs b) in
  check_bool "summaries equal" true (sa = sb);
  check_int "all runs counted" (Array.length specs) sa.St.runs

(* ------------------------------------------------------------------ *)
(* Pinned golden digests: the default contention manager is invisible  *)
(* ------------------------------------------------------------------ *)

(* Digests of the quick-profile figure CSVs, the ablation table and the
   tuner trace, captured before the contention-management layer existed.
   The default policy (backoff) must replay the historical runs
   byte-identically — any virtual-time or RNG-stream drift on the default
   path moves these digests and fails here. *)

module Abl = Tstm_harness.Ablation
module Scenario = Tstm_harness.Scenario

let digest s = Digest.to_hex (Digest.string s)

let test_pinned_figures_digest () =
  let plan = Plan.figures F.quick golden_figs in
  let res = Plan.execute ~jobs:1 plan in
  check_bool "all cells ok" true (Plan.ok res);
  Alcotest.(check string)
    "figures 7+10 digest pinned" "c4830843617461c335712e43584d56e4"
    (digest (render_figures F.quick golden_figs res))

let test_pinned_ablation_digest () =
  (* The Cost points perturb the simulator's cost model; the remaining
     points all run the production model and are what the default CM must
     not disturb. *)
  let pts =
    List.filter (function Abl.Cost _ -> false | _ -> true) Abl.default_points
  in
  let rows = List.map Abl.run_point pts in
  Alcotest.(check string)
    "ablation digest pinned" "e5c71cbcd9630a1bdd832ff30e30d371"
    (digest (String.concat "\n" (List.map Abl.render rows)))

let test_pinned_tune_digest () =
  let spec =
    W.make ~structure:W.List ~initial_size:128 ~update_pct:20.0 ~nthreads:4
      ~duration:1.0 ~seed:42 ()
  in
  let tr = Scenario.run_intset_autotuned ~period:0.002 ~n_steps:5 spec in
  let rendered =
    String.concat ""
      (List.map
         (fun (st : Tstm_tuning.Tuner.step) ->
           Printf.sprintf "%s %.3f %s\n"
             (Tinystm.Config.to_string st.Tstm_tuning.Tuner.config)
             st.Tstm_tuning.Tuner.throughput
             (Tstm_tuning.Tuner.move_label st.Tstm_tuning.Tuner.move))
         tr.Scenario.steps)
  in
  Alcotest.(check string)
    "tuner-trace digest pinned" "1281dbff72cfffefd31e4a3de57546d6"
    (digest rendered)

(* The per-family flagship cell (Fig. 3b, 8 threads) under the production
   cost model: one throughput per algorithm family, so a virtual-time drift
   in TL2 or NOrec moves this digest even though the figures pinned above
   run TinySTM only. *)
let test_pinned_family_baseline_digest () =
  let baseline =
    List.filter
      (function Abl.Cost { label; _ } -> label = "baseline" | _ -> false)
      Abl.default_points
  in
  check_int "one baseline point" 1 (List.length baseline);
  Alcotest.(check string)
    "family baseline digest pinned" "8680b5f9b17b9e5e9f6a25c86ea03806"
    (digest (String.concat "\n" (List.map Abl.render (List.map Abl.run_point baseline))))

(* The hot-spot storm on every registered STM under the contention
   managers that reach serial escalation, watchdog level switches and the
   priority paths; the rendered lines are the ones `repro storm` prints. *)
let test_pinned_storm_digest () =
  let module Storm = Tstm_harness.Storm in
  let lines =
    List.concat_map
      (fun (cm, watchdog) ->
        List.map
          (fun stm ->
            let r =
              Storm.run_one { Storm.default with Storm.stm; cm; watchdog }
            in
            Format.asprintf "%s %-10s %a" cm stm Storm.pp_report r)
          Scenario.all_stms)
      [ ("suicide", true); ("karma", false); ("greedy", false);
        ("serialize:4", false) ]
  in
  Alcotest.(check string)
    "storm digest pinned" "4ed246b6354c9db2c559668bca606bf6"
    (digest (String.concat "\n" lines))

(* One short traced run per registered STM: the Chrome trace, the
   contention report and the histogram summary.  The second pass runs under
   a chaos plan with a priority-publishing contention manager, so an event
   timestamp read before (instead of after) a forced preemption, or a moved
   shared-memory access on the priority path, changes this digest. *)
let test_pinned_traced_digest () =
  let module Obs = Tstm_obs in
  let spec =
    W.make ~structure:W.List ~initial_size:64 ~update_pct:20.0 ~nthreads:4
      ~duration:0.002 ~seed:7 ()
  in
  let traced ?cm stm =
    let _, c, _ =
      Scenario.run_intset_observed ~stm ?cm ~period:0.0005 ~n_periods:2 spec
    in
    String.concat "\n"
      [
        stm;
        Obs.Export.chrome_trace c;
        Obs.Export.top_contended ~n:10 c;
        Obs.Export.histo_summary c;
      ]
  in
  let plain = List.map (fun stm -> traced stm) Scenario.all_stms in
  let chaotic =
    List.map
      (fun stm ->
        Tstm_chaos.Plan.(with_plan ~config:(Sim sim_default) ~seed:11)
          (fun () -> traced ~cm:Tstm_cm.Cm.Karma stm))
      Scenario.all_stms
  in
  Alcotest.(check string)
    "traced-run digest pinned" "63c8a8cff27b17894e44a1eed1d065aa"
    (digest (String.concat "\n" (plain @ chaotic)))

(* Stress seeds over every registered STM with chaos and the sanitizer
   armed; the second block escalates to serial-irrevocable runs under a
   priority-publishing contention manager. *)
let test_pinned_chaos_stress_digest () =
  let render (spec, (r : St.report)) =
    Printf.sprintf "%s seed=%d cm=%s retries=%d %s injected=%d decisions=%d \
                    events=%d commits=%d aborts=%d escalations=%d%s"
      spec.St.stm spec.St.seed spec.St.cm spec.St.max_retries
      (match r.St.violation with None -> "ok" | Some v -> v)
      r.St.injected r.St.decisions r.St.events r.St.commits r.St.aborts
      r.St.escalations
      (String.concat ""
         (List.map (fun f -> "\n  " ^ Tstm_san.San.render f) r.St.san_findings))
  in
  let sweep base =
    St.plan ~seeds:3 ~stms:Scenario.all_stms ~structures:[ W.List ] base
    |> Array.to_list
    |> List.map (fun spec -> render (spec, St.run_one spec))
  in
  let lines =
    sweep { St.default with St.san = true }
    @ sweep
        { St.default with St.san = true; cm = "karma"; max_retries = 2 }
  in
  Alcotest.(check string)
    "chaos-stress digest pinned" "cea7a710e62506c2fa04e2e0d7c91e78"
    (digest (String.concat "\n" lines))

(* Every registered STM on the simulated list under a real-sampler fault
   plan: stalls and allocation failures only (a crash would escape the
   scheduler), with the sink collecting.  The per-tid hash sampler's
   decisions, the counts they move and the traced fault sequence are
   pinned, so a sampler that draws at a different point, in a different
   order or from a different index moves this digest. *)
let test_pinned_real_sampler_digest () =
  let module Plan = Tstm_chaos.Plan in
  let module Ring = Tstm_obs.Ring in
  let spec =
    W.make ~structure:W.List ~initial_size:64 ~update_pct:20.0 ~nthreads:4
      ~duration:0.002 ~seed:5 ()
  in
  let config =
    Plan.Real { crash_pct = 0.0; hang_pct = 0.5; hang_us = 1; oom_pct = 2.0 }
  in
  let run stm =
    Plan.with_plan ~config ~seed:3 (fun () ->
        let r, c, _ =
          Scenario.run_intset_observed ~stm ~period:0.001 ~n_periods:2 spec
        in
        let faults = Buffer.create 256 in
        Array.iter
          (fun ring ->
            Ring.iter ring (fun { Ring.ts; cpu; ev } ->
                match ev with
                | Tstm_obs.Event.Tx_fault { kind; point } ->
                    Printf.bprintf faults "\n  %d %d %s %s" cpu ts kind point
                | _ -> ()))
          c.Tstm_obs.Sink.rings;
        Printf.sprintf
          "%s fired=%d decisions=%d commits=%d aborts_alloc=%d \
           faults_hang=%d%s"
          stm (Plan.fired ()) (Plan.decisions ()) r.W.commits
          r.W.stats.Tstm_tm.Tm_stats.aborts_alloc
          r.W.stats.Tstm_tm.Tm_stats.faults_hang (Buffer.contents faults))
  in
  let lines = List.map run Scenario.all_stms in
  Alcotest.(check string)
    "real-sampler digest pinned" "c34ab8ff081a20c209906619bfeb36dc"
    (digest (String.concat "\n" lines))

(* ------------------------------------------------------------------ *)
(* Crash recovery: a SIGKILLed worker is requeued, output unchanged    *)
(* ------------------------------------------------------------------ *)

let test_killed_worker_retried () =
  let specs =
    St.plan ~seeds:6 ~stms:[ "tinystm-wb" ] ~structures:[ W.List ] St.default
  in
  let plan = Array.map (fun s -> Job.Stress_run s) specs in
  let clean = Plan.execute ~jobs:2 plan in
  let crashes = ref 0 in
  let sabotaged =
    Plan.execute ~jobs:2
      ~on_progress:(fun p ->
        match p.Pool.status with
        | Tstm_obs.Progress.Crashed _ -> incr crashes
        | _ -> ())
      ~sabotage:(fun ~rank ~attempt -> rank = 3 && attempt = 1)
      plan
  in
  check_int "exactly one worker was killed" 1 !crashes;
  check_bool "retry recovered every job" true (Plan.ok sabotaged);
  Alcotest.(check string)
    "merged output unchanged by the crash" (fingerprint clean)
    (fingerprint sabotaged)

let () =
  Alcotest.run "exec"
    [
      ( "pool",
        [
          Alcotest.test_case "rows in rank order" `Quick
            test_pool_rows_in_rank_order;
          Alcotest.test_case "exception fails without retry" `Quick
            test_pool_exception_fails_without_retry;
          Alcotest.test_case "timeout kills and reports" `Quick
            test_pool_timeout_kills_and_reports;
          Alcotest.test_case "plan dedupes equal jobs" `Quick
            test_plan_dedupes_equal_jobs;
        ] );
      ( "golden",
        [
          Alcotest.test_case "figures: jobs=1 = jobs=4" `Quick
            test_figures_jobs_invariant;
          Alcotest.test_case "stress: jobs=1 = jobs=4" `Quick
            test_stress_jobs_invariant;
          Alcotest.test_case "killed worker retried, output unchanged" `Quick
            test_killed_worker_retried;
          Alcotest.test_case "pinned digest: figures" `Quick
            test_pinned_figures_digest;
          Alcotest.test_case "pinned digest: ablation" `Quick
            test_pinned_ablation_digest;
          Alcotest.test_case "pinned digest: tuner trace" `Quick
            test_pinned_tune_digest;
          Alcotest.test_case "pinned digest: family baseline" `Quick
            test_pinned_family_baseline_digest;
          Alcotest.test_case "pinned digest: storm" `Quick
            test_pinned_storm_digest;
          Alcotest.test_case "pinned digest: traced run" `Quick
            test_pinned_traced_digest;
          Alcotest.test_case "pinned digest: chaos stress" `Quick
            test_pinned_chaos_stress_digest;
          Alcotest.test_case "pinned digest: real sampler" `Quick
            test_pinned_real_sampler_digest;
        ] );
    ]
