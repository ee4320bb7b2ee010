(* Command-line entry point: regenerate paper figures, run individual
   experiment points on the simulated multicore runtime, and time the real
   hardware (Bechamel microbenchmarks, wall-clock BENCH_*.json snapshots
   and their noise-aware comparison).

   Every simulated sweep (figures, the ablation, parameter sweeps, stress
   seeds) is decomposed into Tstm_exec jobs and evaluated on a
   multi-process pool: `--jobs N` forks N workers, and because results
   merge in plan order, stdout is byte-identical for any N. *)

open Cmdliner
module F = Tstm_harness.Figures
module W = Tstm_harness.Workload
module S = Tstm_harness.Scenario
module San = Tstm_san.San
module Cli = Tstm_exec.Cli
module Job = Tstm_exec.Job
module Plan = Tstm_exec.Plan

let print_san_findings fs =
  Printf.printf "\nsanitizer findings (%d):\n" (List.length fs);
  List.iter (fun f -> Printf.printf "  %s\n" (San.render f)) fs

let fig_cmd =
  let fig_n =
    Arg.(
      required
      & pos 0 (some int) None
      & info [] ~docv:"N" ~doc:"Figure number (2-12).")
  in
  let run profile csv jobs n =
    if List.mem n F.fig_numbers then
      if Cli.run_figures ?csv ~jobs ~profile [ n ] then `Ok ()
      else `Error (false, Printf.sprintf "figure %d incomplete" n)
    else `Error (false, Printf.sprintf "no figure %d (valid: 2-12)" n)
  in
  Cmd.v (Cmd.info "fig" ~doc:"Regenerate one paper figure")
    Term.(
      ret (const run $ Cli.profile_arg $ Cli.csv_arg $ Cli.jobs_arg $ fig_n))

let all_cmd =
  let run profile csv jobs =
    if not (Cli.run_figures ?csv ~jobs ~profile F.fig_numbers) then exit 1
  in
  Cmd.v (Cmd.info "all" ~doc:"Regenerate every figure (2-12)")
    Term.(const run $ Cli.profile_arg $ Cli.csv_arg $ Cli.jobs_arg)

let list_cmd =
  let run () =
    List.iter
      (fun n -> Printf.printf "fig %2d  %s\n" n (F.describe n))
      F.fig_numbers
  in
  Cmd.v (Cmd.info "list" ~doc:"List the reproducible figures")
    Term.(const run $ const ())

let run_cmd =
  let stats_json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-json" ] ~docv:"FILE"
          ~doc:
            "Also write the run's aggregated transaction statistics \
             (Tm_stats) as JSON to $(docv) — the same counter export the \
             BENCH_*.json snapshots embed.")
  in
  let run structure stm size updates overwrites threads duration locks_exp
      shifts hierarchy seed cm pattern trace metrics_csv top_contended periods
      san stats_json jobs =
    match
      W.make ~structure ~initial_size:size ~update_pct:updates
        ~overwrite_pct:overwrites ~nthreads:threads ~duration ~seed ~pattern ()
    with
    | exception Invalid_argument msg -> `Error (false, msg)
    | spec ->
    let observing =
      trace <> None || metrics_csv <> None || top_contended <> None
    in
    let point =
      {
        Job.p_stm = stm;
        p_spec = spec;
        p_n_locks = 1 lsl locks_exp;
        p_shifts = shifts;
        p_hierarchy = hierarchy;
        p_cm = cm;
        p_periods = max 1 periods;
        p_observe = observing;
        p_san = san;
      }
    in
    match Cli.eval_point ~jobs point with
    | Error reason ->
        Printf.eprintf "run failed: %s\n" reason;
        exit 1
    | Ok o ->
        Option.iter
          (fun c -> print_string (Tstm_obs.Export.histo_summary c))
          o.Job.collector;
        (match trace with
        | Some path ->
            Tstm_obs.Export.write_chrome_trace ~path
              (Option.get o.Job.collector);
            Printf.printf "(trace written to %s)\n" path
        | None -> ());
        (match metrics_csv with
        | Some path ->
            Tstm_obs.Metrics.write ~path (Option.get o.Job.metrics);
            Printf.printf "(metrics CSV written to %s)\n" path
        | None -> ());
        (match top_contended with
        | Some n ->
            print_string
              (Tstm_obs.Export.top_contended ~n (Option.get o.Job.collector))
        | None -> ());
        Format.printf "%s %s size=%d updates=%.0f%% threads=%d: %a@."
          (S.stm_label stm)
          (W.structure_to_string structure)
          size updates threads W.pp_result o.Job.result;
        Format.printf "  stats: %a@." Tstm_tm.Tm_stats.pp o.Job.result.W.stats;
        (match stats_json with
        | Some path ->
            let oc = open_out path in
            output_string oc
              (Tstm_obs.Json.to_string
                 (Tstm_tm.Tm_stats.to_json o.Job.result.W.stats));
            close_out oc;
            Printf.printf "(stats JSON written to %s)\n" path
        | None -> ());
        if san then begin
          Printf.printf "  san: %s\n" o.Job.san_summary;
          if o.Job.san_findings <> [] then begin
            print_san_findings o.Job.san_findings;
            exit 1
          end
        end;
        `Ok ()
  in
  Cmd.v (Cmd.info "run" ~doc:"Run a single experiment point")
    Term.(
      ret
        (const run $ Cli.structure_arg $ Cli.stm_arg $ Cli.size_arg
        $ Cli.updates_arg $ Cli.overwrites_arg $ Cli.threads_arg
        $ Cli.duration_arg $ Cli.locks_exp_arg $ Cli.shifts_arg
        $ Cli.hierarchy_arg $ Cli.seed_arg $ Cli.cm_arg $ Cli.workload_arg
        $ Cli.trace_arg $ Cli.metrics_csv_arg $ Cli.top_contended_arg
        $ Cli.periods_arg $ Cli.san_arg $ stats_json_arg $ Cli.jobs_arg))

let ablation_cmd =
  let run jobs = if not (Cli.run_ablation ~jobs ()) then exit 1 in
  Cmd.v
    (Cmd.info "ablation"
       ~doc:
         "Cost-model ablation: the Fig. 3b comparison under altered \
          simulator cost constants, bounded-wait contention management and \
          the size of the hierarchical array")
    Term.(const run $ Cli.jobs_arg)

let sweep_cmd =
  let axis_conv =
    Arg.enum
      [
        ("locks-exp", `Locks);
        ("shifts", `Shifts);
        ("hierarchy", `Hierarchy);
        ("threads", `Threads);
        ("size", `Size);
        ("updates", `Updates);
      ]
  in
  let axis_arg =
    Arg.(
      required
      & pos 0 (some axis_conv) None
      & info [] ~docv:"AXIS"
          ~doc:
            "Swept parameter: locks-exp, shifts, hierarchy, threads, size or \
             updates.")
  in
  let values_arg =
    Arg.(
      required
      & pos 1 (some (list float)) None
      & info [] ~docv:"VALUES" ~doc:"Comma-separated axis values.")
  in
  let run structure stm size updates threads duration locks_exp shifts
      hierarchy seed cm pattern csv jobs axis values =
    (* Sweeping a knob the STM does not have would tabulate a flat line of
       noise; the capability declaration turns that into a typed error. *)
    match
      (match axis with
      | `Locks | `Shifts | `Hierarchy ->
          Tstm_tm.Registry.require stm "lock_array"
      | `Threads | `Size | `Updates -> ())
    with
    | exception Tstm_tm.Tm_intf.Capability_error _ ->
        `Error
          ( false,
            Printf.sprintf
              "axis %s needs a lock array, which STM %S does not have \
               (capability lock_array = false)"
              (match axis with
              | `Locks -> "locks-exp"
              | `Shifts -> "shifts"
              | _ -> "hierarchy")
              (Tstm_tm.Registry.canonical stm) )
    | exception Invalid_argument msg -> `Error (false, msg)
    | () ->
    let point v =
      let i = int_of_float v in
      let size = if axis = `Size then i else size in
      let updates = if axis = `Updates then v else updates in
      let threads = if axis = `Threads then i else threads in
      let locks_exp = if axis = `Locks then i else locks_exp in
      let shifts = if axis = `Shifts then i else shifts in
      let hierarchy = if axis = `Hierarchy then i else hierarchy in
      let spec =
        W.make ~structure ~initial_size:size ~update_pct:updates
          ~nthreads:threads ~duration ~seed ~pattern ()
      in
      {
        Job.p_stm = stm;
        p_spec = spec;
        p_n_locks = 1 lsl locks_exp;
        p_shifts = shifts;
        p_hierarchy = hierarchy;
        p_cm = cm;
        p_periods = 1;
        p_observe = false;
        p_san = false;
      }
    in
    match List.map point values with
    | exception Invalid_argument msg -> `Error (false, msg)
    | points ->
    let outcomes = Cli.eval_points ~jobs points in
    if Array.exists (fun o -> o = None) outcomes then begin
      Printf.eprintf "sweep incomplete: some points failed\n";
      exit 1
    end;
    let results =
      Array.to_list
        (Array.map (fun o -> (Option.get o).Job.result) outcomes)
    in
    let axis_label =
      match axis with
      | `Locks -> "log2(#locks)"
      | `Shifts -> "#shifts"
      | `Hierarchy -> "h"
      | `Threads -> "threads"
      | `Size -> "size"
      | `Updates -> "update%"
    in
    let table =
      {
        Tstm_util.Series.title =
          Printf.sprintf "sweep %s: %s %s" axis_label (S.stm_label stm)
            (W.structure_to_string structure);
        x_label = axis_label;
        x = Array.of_list values;
        columns =
          [
            ( "throughput k/s",
              Array.of_list
                (List.map (fun r -> r.W.throughput /. 1e3) results) );
            ( "aborts k/s",
              Array.of_list
                (List.map (fun r -> r.W.abort_rate /. 1e3) results) );
          ];
      }
    in
    Tstm_util.Series.print_table table;
    (match csv with
    | Some dir ->
        Cli.ensure_dir dir;
        Cli.save_csv dir (F.Table table)
    | None -> ());
    `Ok ()
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Sweep one tuning/workload axis and tabulate")
    Term.(
      ret
        (const run $ Cli.structure_arg $ Cli.stm_arg $ Cli.size_arg
        $ Cli.updates_arg $ Cli.threads_arg $ Cli.duration_arg
        $ Cli.locks_exp_arg $ Cli.shifts_arg $ Cli.hierarchy_arg $ Cli.seed_arg
        $ Cli.cm_arg $ Cli.workload_arg $ Cli.csv_arg $ Cli.jobs_arg $ axis_arg
        $ values_arg))

let tune_cmd =
  let steps_arg =
    Arg.(
      value & opt int 15 & info [ "steps" ] ~doc:"Tuning configuration steps.")
  in
  let period_arg =
    Arg.(
      value & opt float 0.002
      & info [ "period" ] ~doc:"Measurement period (virtual seconds).")
  in
  let run structure size updates threads steps period seed =
    match
      W.make ~structure ~initial_size:size ~update_pct:updates
        ~nthreads:threads ~duration:1.0 ~seed ()
    with
    | exception Invalid_argument msg -> `Error (false, msg)
    | spec ->
    let tr = S.run_intset_autotuned ~period ~n_steps:steps spec in
    Printf.printf "step  config                         thr(k/s)  move\n";
    List.iteri
      (fun i (s : Tstm_tuning.Tuner.step) ->
        Printf.printf "%4d  %-30s %8.0f  %s\n" (i + 1)
          (Tinystm.Config.to_string s.Tstm_tuning.Tuner.config)
          (s.Tstm_tuning.Tuner.throughput /. 1000.0)
          (Tstm_tuning.Tuner.move_label s.Tstm_tuning.Tuner.move))
      tr.S.steps;
    `Ok ()
  in
  Cmd.v (Cmd.info "tune" ~doc:"Run the dynamic tuner and print its path")
    Term.(
      ret
        (const run $ Cli.structure_arg $ Cli.size_arg $ Cli.updates_arg
        $ Cli.threads_arg $ steps_arg $ period_arg $ Cli.seed_arg))

let stress_cmd =
  let module St = Tstm_harness.Stress in
  let print_report (spec : St.spec) (r : St.report) =
    Printf.printf
      "%s %s seed=%d: %d ops checked, %d commits, %d aborts, %d escalations, \
       %d/%d injections fired -> %s\n"
      spec.St.stm
      (W.structure_to_string spec.St.structure)
      spec.St.seed r.St.events r.St.commits r.St.aborts r.St.escalations
      r.St.injected r.St.decisions
      (match (r.St.violation, r.St.san_findings) with
      | Some _, _ -> "VIOLATION"
      | None, _ :: _ -> "SANITIZER FINDING"
      | None, [] ->
          if spec.St.san then "serializable, san-clean" else "serializable")
  in
  let report_failure spec (r : St.report) =
    (match r.St.violation with
    | Some msg -> Printf.printf "\nserializability violation:\n%s\n" msg
    | None -> ());
    if r.St.san_findings <> [] then print_san_findings r.St.san_findings;
    match St.shrink spec r with
    | Some { St.limit; report = _ } ->
        let shrunk = { spec with St.site_limit = Some limit } in
        Printf.printf
          "shrunk to %d injection site%s (from %d fired)\nminimal repro: %s\n"
          limit
          (if limit = 1 then "" else "s")
          r.St.injected
          (Cli.Stress.replay shrunk)
    | None ->
        Printf.printf "could not shrink; repro: %s\n" (Cli.Stress.replay spec)
  in
  let run (c : Cli.Stress.t) =
    let base = c.spec in
    let stms = if c.all_stms then S.all_stms else [ base.St.stm ] in
    let structures =
      if c.all_structures then [ W.List; W.Rbtree; W.Skiplist; W.Hashset ]
      else [ base.St.structure ]
    in
    if c.single then begin
      (* Replay mode: one seed, full detail per run, always sequential
         (shrinking re-executes interactively anyway). *)
      let failed = ref false in
      List.iter
        (fun stm ->
          List.iter
            (fun structure ->
              let spec = { base with St.stm; structure } in
              let r = St.run_one spec in
              print_report spec r;
              if St.failed r then begin
                failed := true;
                report_failure spec r
              end)
            structures)
        stms;
      if !failed then exit 1
    end
    else begin
      let specs = St.plan ~seeds:c.seeds ~stms ~structures base in
      let plan = Array.map (fun s -> Job.Stress_run s) specs in
      let res = Cli.execute ~jobs:c.jobs plan in
      (* Summarize the prefix up to the first permanently-failed job: a
         sequential sweep past that point is unknowable, so the verdict
         only counts runs it would provably have reached. *)
      let n = Array.length specs in
      let complete =
        let rec go i =
          if i >= n then n
          else
            match res.Plan.outcomes.(i) with
            | None -> i
            | Some _ -> go (i + 1)
        in
        go 0
      in
      let pairs =
        Array.init complete (fun i ->
            match res.Plan.outcomes.(i) with
            | Some (Job.Stress_report r) -> (specs.(i), r)
            | _ -> assert false)
      in
      let sw = St.summarize pairs in
      Printf.printf
        "stress: %d runs (%d seeds x %d stm x %d structures), %d ops \
         checked, %d injections, %d commits, %d aborts, %d escalations\n"
        sw.St.runs c.seeds (List.length stms)
        (List.length structures)
        sw.St.total_events sw.St.total_injected sw.St.total_commits
        sw.St.total_aborts sw.St.total_escalations;
      match sw.St.first_failure with
      | Some (spec, r) ->
          print_report spec r;
          report_failure spec r;
          exit 1
      | None ->
          if complete < n then begin
            Printf.eprintf
              "sweep inconclusive: run %d of %d never produced a report\n"
              (complete + 1) n;
            exit 1
          end;
          Printf.printf "zero %s\n"
            (if base.St.san then
               "serializability violations or sanitizer findings"
             else "serializability violations")
    end
  in
  Cmd.v
    (Cmd.info "stress"
       ~doc:
         "Chaos stress: sweep seeded schedule perturbations and check every \
          history for serializability")
    Term.(const run $ Cli.Stress.term)

let storm_cmd =
  let module Storm = Tstm_harness.Storm in
  let print_report stm (r : Storm.report) =
    Format.printf "%-10s %a@." stm Storm.pp_report r
  in
  let run (c : Cli.Storm.t) =
    let stms = if c.all_stms then S.all_stms else [ c.spec.Storm.stm ] in
    let specs =
      Array.of_list (List.map (fun stm -> { c.spec with Storm.stm }) stms)
    in
    let plan = Array.map (fun s -> Job.Storm_run s) specs in
    let res = Cli.execute ~jobs:c.jobs plan in
    (* The livelock expectation is a lock-array property: symmetric
       hold-and-wait needs at least two locks.  An STM without one (a
       single global seqlock) is obstruction-free on this workload — the
       CAS winner always commits — so under --expect-livelock it must
       instead complete. *)
    let expects_livelock stm =
      c.expect_livelock
      && (Tstm_tm.Registry.capabilities stm).Tstm_tm.Tm_intf.lock_array
    in
    let failed = ref false in
    Array.iteri
      (fun i outcome ->
        match outcome with
        | Some (Job.Storm_report r) ->
            print_report specs.(i).Storm.stm r;
            let expects = expects_livelock specs.(i).Storm.stm in
            let bad =
              if expects then
                if c.spec.Storm.watchdog then r.Storm.livelocks = 0
                else r.Storm.completed
              else not r.Storm.completed
            in
            if bad then begin
              failed := true;
              Printf.printf "  FAILED: %s; repro: %s\n"
                (if expects then "expected a livelock"
                 else "incomplete (some thread missed its quota)")
                (Cli.Storm.replay specs.(i))
            end
        | _ ->
            failed := true;
            Printf.printf "%s: storm run produced no report\n"
              specs.(i).Storm.stm)
      res.Plan.outcomes;
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "storm"
       ~doc:
         "Hot-spot RMW storm: the progress-guarantee workload (pairs of \
          threads hammering the same words in opposite orders)")
    Term.(const run $ Cli.Storm.term)

let fault_cmd =
  let module FR = Tstm_harness.Fault_run in
  let module BReal = Tstm_harness.Bench_real in
  let run (c : Cli.Fault.t) =
    let stms = if c.all_stms then BReal.stm_names else [ c.spec.FR.stm ] in
    match FR.plan ~seeds:c.seeds ~stms ~kinds:(Cli.Fault.kinds c) c.spec with
    | exception Invalid_argument msg -> `Error (false, msg)
    | specs ->
        (* Real-domain runs cannot be forked into the job pool; the sweep
           is sequential and in-process. *)
        let failed = ref false in
        let total_fired = ref 0 in
        Array.iter
          (fun (spec : FR.spec) ->
            match FR.run_one spec with
            | exception Invalid_argument msg ->
                failed := true;
                Printf.printf "fault: %s\n" msg
            | r ->
                total_fired := !total_fired + r.FR.fired;
                Printf.printf
                  "fault %s %s %s seed=%d: %d/%d injections fired, %d \
                   commits, %d crashes healed (%d requeues), %d hangs \
                   detected / %d recovered, %d alloc aborts, %d capacity \
                   verdicts -> %s\n"
                  spec.FR.stm
                  (FR.kind_name spec.FR.kind)
                  (W.structure_to_string spec.FR.structure)
                  spec.FR.seed r.FR.fired r.FR.decisions r.FR.commits
                  r.FR.heal.crashes_healed r.FR.heal.requeues
                  r.FR.heal.hangs_detected r.FR.heal.hangs_recovered
                  r.FR.aborts_alloc r.FR.capacities
                  (if FR.healed r then "healed" else "FAILED");
                if not (FR.healed r) then begin
                  failed := true;
                  (match r.FR.error with
                  | Some e -> Printf.printf "  ESCAPED: %s\n" e
                  | None -> ());
                  List.iter
                    (fun v -> Printf.printf "  VIOLATION: %s\n" v)
                    r.FR.violations;
                  if r.FR.leak_words <> 0 then
                    Printf.printf "  LEAK: %d words after drain\n"
                      r.FR.leak_words;
                  Printf.printf "  repro: %s\n" (Cli.Fault.replay spec)
                end)
          specs;
        if c.expect_heal && !total_fired = 0 then begin
          failed := true;
          Printf.printf "fault: --expect-heal, but no injection ever fired\n"
        end;
        if !failed then exit 1;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "fault"
       ~doc:
         "Fault-injection sweep on real domains: seeded crash/hang/OOM \
          plans that the runtime must heal (respawn-and-requeue, bounded \
          alloc retry) with zero arena drift")
    Term.(ret (const run $ Cli.Fault.term))

let serve_cmd =
  let module Sv = Tstm_service.Service in
  let module Slo = Tstm_obs.Slo in
  let module Plan = Tstm_chaos.Plan in
  (* A --real run stays in-process: its fault plan is process-global.  The
     plan is armed afresh around each run; its summary is the note. *)
  let run_in_process (c : Cli.Serve.t) spec =
    match c.fault_seed with
    | None -> (Sv.run_one spec, "")
    | Some seed ->
        Plan.activate ~config:Sv.fault_burst ?limit:c.fault_limit ~seed ();
        let note = ref "" in
        let finish () =
          note := Plan.summary ();
          Plan.deactivate ()
        in
        let r = Fun.protect ~finally:finish (fun () -> Sv.run_one spec) in
        (r, !note)
  in
  let run (c : Cli.Serve.t) =
    let base = c.spec in
    let stms = if c.all_stms then S.all_stms else [ base.Sv.stm ] in
    let sheds = if c.all_sheds then Sv.all_sheds else [ base.Sv.shed ] in
    let specs =
      if c.seeds <= 1 then
        Array.of_list
          (List.concat_map
             (fun stm -> List.map (fun shed -> { base with Sv.stm; shed }) sheds)
             stms)
      else Sv.plan ~seeds:c.seeds ~stms ~sheds base
    in
    let outcomes =
      match base.Sv.kind with
      | Tstm_runtime.Shm.Simulated ->
          let plan = Array.map (fun s -> Job.Serve_run s) specs in
          Array.map
            (function
              | Some (Job.Serve_report r) -> Some (r, "") | Some _ | None -> None)
            (Cli.execute ~jobs:c.jobs plan).Tstm_exec.Plan.outcomes
      | Domains -> Array.map (fun s -> Some (run_in_process c s)) specs
    in
    let hz = Sv.cycles_per_second base.Sv.kind in
    let failed = ref false in
    Array.iteri
      (fun i outcome ->
        let spec = specs.(i) in
        match outcome with
        | Some (r, note) ->
            Printf.printf
              "serve %s %s shed=%s seed=%d: capacity=%.0f/s offered=%.0f/s \
               goodput=%.0f/s (%.0f%% of capacity)\n"
              spec.Sv.stm
              (Sv.backend_to_string spec.Sv.backend)
              (Sv.shed_to_string spec.Sv.shed)
              spec.Sv.seed r.Sv.capacity r.Sv.offered r.Sv.goodput
              (if r.Sv.capacity > 0.0 then 100.0 *. r.Sv.goodput /. r.Sv.capacity
               else 0.0);
            print_string
              (Slo.render ~cycles_to_ms:(fun c -> float_of_int c /. hz *. 1e3)
                 r.Sv.slo);
            Printf.printf "  peak queue depth=%d hot dispatches=%d%s\n"
              r.Sv.max_depth r.Sv.hot_dispatches
              (match r.Sv.wd with
              | Some w ->
                  Printf.sprintf " watchdog: %s (livelocks=%d starvations=%d)"
                    (Tstm_runtime.Watchdog.level_to_string
                       w.Tstm_runtime.Watchdog.snap_level)
                    w.Tstm_runtime.Watchdog.snap_livelocks
                    w.Tstm_runtime.Watchdog.snap_starvations
              | None -> "");
            if spec.Sv.san then
              Printf.printf "  san: %d finding(s)\n"
                (List.length r.Sv.san_findings);
            if note <> "" || r.Sv.crash_faults + r.Sv.breaker_trips > 0 then
              Printf.printf
                "  crash faults=%d (retried %d) breaker: %d trip(s), final %s\n"
                r.Sv.crash_faults r.Sv.faults_retried r.Sv.breaker_trips
                (Tstm_service.Breaker.state_to_string r.Sv.breaker_state);
            if note <> "" then Printf.printf "  fault plan: %s\n" note;
            (match c.metrics_csv with
            | Some path ->
                Tstm_obs.Metrics.write ~path
                  (Sv.per_period_metrics ~periods:c.periods r);
                Printf.printf "(per-period SLO CSV written to %s)\n" path
            | None -> ());
            if Sv.failed r then begin
              failed := true;
              List.iter
                (fun v -> Printf.printf "  VIOLATION: %s\n" v)
                r.Sv.violations;
              if r.Sv.san_findings <> [] then
                print_san_findings r.Sv.san_findings;
              if r.Sv.leak_words <> 0 then
                Printf.printf "  LEAK: %d words after drain\n" r.Sv.leak_words;
              Printf.printf "  repro: %s\n" (Cli.Serve.replay spec)
            end
        | None ->
            failed := true;
            Printf.printf "serve %s shed=%s seed=%d: no report\n" spec.Sv.stm
              (Sv.shed_to_string spec.Sv.shed)
              spec.Sv.seed)
      outcomes;
    if !failed then exit 1;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Open-loop overload service: arrival-driven sessions against a \
          sharded transactional backend with admission control, per-request \
          deadlines/retry budgets and a load-shedding policy ladder")
    Term.(ret (const run $ Cli.Serve.term))

(* Bechamel microbenchmarks of the real-hardware hot paths: transactional
   read/write/commit for every STM of [Bench_real.stms], plus the lock-word
   and Bloom-filter primitives. *)
module Micro = struct
  open Bechamel
  open Toolkit
  module Br = Tstm_harness.Bench_real
  module Intf = Tstm_tm.Tm_intf

  (* Per STM: a 4096-lock instance holding 1024 written words, timed on a
     100-read transaction (plain and read-only) and a 10-word
     read-modify-write transaction. *)
  let stm_tests (name, _, m) =
    let module S = (val m : Br.STM) in
    let t =
      S.create
        ~tuning:{ Intf.default_tuning with Intf.n_locks = 4096 }
        ~memory_words:65536 ()
    in
    let base = S.atomically t (fun tx -> S.alloc tx 1024) in
    S.atomically t (fun tx ->
        for i = 0 to 1023 do
          S.write tx (base + i) i
        done);
    let reads ?read_only () =
      Staged.stage (fun () ->
          S.atomically ?read_only t (fun tx ->
              let s = ref 0 in
              for i = 0 to 99 do
                s := !s + S.read tx (base + i)
              done;
              !s))
    in
    [
      Test.make ~name:(name ^ ": 100-read tx") (reads ());
      Test.make ~name:(name ^ ": 100-read ro-tx") (reads ~read_only:true ());
      Test.make ~name:(name ^ ": 10-rmw tx")
        (Staged.stage (fun () ->
             S.atomically t (fun tx ->
                 for i = 0 to 9 do
                   S.write tx (base + i) (S.read tx (base + i) + 1)
                 done)));
    ]

  let tests () =
    [
      Test.make ~name:"lockenc encode+decode"
        (Staged.stage (fun () ->
             let w = Tinystm.Lockenc.unlocked ~version:123456 ~incarnation:3 in
             Tinystm.Lockenc.version w + Tinystm.Lockenc.incarnation w));
      Test.make ~name:"bloom add+query"
        (Staged.stage
           (let b = Tstm_util.Bloom.create () in
            fun () ->
              Tstm_util.Bloom.clear b;
              ignore (Tstm_util.Bloom.check_add b 42);
              Tstm_util.Bloom.may_contain b 42));
    ]
    @ List.concat_map stm_tests Br.stms

  let run () =
    print_endline "=== Microbenchmarks (real runtime, single domain) ===";
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instance = Instance.monotonic_clock in
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
    in
    List.iter
      (fun test ->
        let results = Benchmark.all cfg [ instance ] test in
        let analyzed = Analyze.all ols instance results in
        Hashtbl.iter
          (fun name ols_result ->
            match Analyze.OLS.estimates ols_result with
            | Some [ est ] -> Printf.printf "%-28s %10.1f ns/run\n%!" name est
            | _ -> Printf.printf "%-28s (no estimate)\n%!" name)
          analyzed)
      (tests ());
    print_newline ()
end

let micro_cmd =
  Cmd.v
    (Cmd.info "micro"
       ~doc:"Bechamel microbenchmarks of the STM hot paths on real hardware")
    Term.(const Micro.run $ const ())

let real_cmd =
  let run stm all_stms structure domains size updates seed pattern duration
      warmup reps observe out =
    let stms =
      if all_stms then Tstm_harness.Bench_real.stm_names else [ stm ]
    in
    if
      not
        (Cli.run_bench_real ?out ~stms ~structure ~domains ~pattern ~size
           ~update_pct:updates ~seed ~duration ~warmup ~reps ~observe ())
    then exit 1
  in
  Cmd.v
    (Cmd.info "real"
       ~doc:
         "Wall-clock benchmark on real domains: Synchrobench-style timed \
          repetitions per (STM, structure, domain-count) cell, human table \
          on stdout and a machine-readable BENCH_*.json snapshot with \
          --out.")
    Term.(
      const run $ Cli.stm_arg $ Cli.all_stms_flag $ Cli.real_structure_arg
      $ Cli.domains_arg $ Cli.size_arg $ Cli.updates_arg $ Cli.seed_arg
      $ Cli.workload_arg $ Cli.real_duration_arg $ Cli.warmup_arg
      $ Cli.reps_arg $ Cli.observe_flag $ Cli.out_arg)

let compare_cmd =
  let old_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"OLD.json" ~doc:"Baseline snapshot.")
  in
  let new_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"NEW.json" ~doc:"Candidate snapshot.")
  in
  let run threshold report_only old_path new_path =
    if
      not
        (Cli.run_bench_compare ~threshold ~report_only ~old_path ~new_path ())
    then exit 1
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Compare two BENCH_*.json snapshots cell by cell and exit non-zero \
          on a regression beyond noise (see --threshold; --report-only \
          always exits 0).")
    Term.(
      const run $ Cli.threshold_arg $ Cli.report_only_flag $ old_arg $ new_arg)

let () =
  let doc = "TinySTM (PPoPP'08) reproduction: figures and experiments" in
  let info = Cmd.info "repro" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            fig_cmd;
            all_cmd;
            list_cmd;
            run_cmd;
            sweep_cmd;
            tune_cmd;
            stress_cmd;
            storm_cmd;
            serve_cmd;
            fault_cmd;
            ablation_cmd;
            micro_cmd;
            real_cmd;
            compare_cmd;
          ]))
