(* Benchmark harness:

     dune exec bench/main.exe                 micro + ablation + all figures
     dune exec bench/main.exe -- --full       same, paper-size profile
     dune exec bench/main.exe -- --fig 6      one figure (quick)
     dune exec bench/main.exe -- --fig 6 --jobs 4
                                              same, on 4 worker processes
     dune exec bench/main.exe -- --micro      Bechamel microbenchmarks only
     dune exec bench/main.exe -- --ablation   cost-model ablation sweep
     dune exec bench/main.exe -- --trace t.json --metrics-csv m.csv \
                                  --top-contended 10
                                              observed flagship run
                                              (list 256, 20%, 8 threads)
     dune exec bench/main.exe -- real --stm tl2 --structure rbtree \
                                  --domains 1,2 --duration 0.2 --reps 3 \
                                  --out BENCH_x.json
                                              wall-clock bench on real
                                              domains, snapshot JSON
     dune exec bench/main.exe -- compare OLD.json NEW.json
                                              noise-aware regression check
                                              between two snapshots

   The figure drivers regenerate every figure of the paper's evaluation
   (Figs. 2-12) on the simulated 8-core runtime; the microbenchmarks time
   the real-hardware hot paths (transactional read/write/commit for every
   STM of [Bench_real.stms], plus lock-word and Bloom-filter primitives).
   All simulated sweeps route through Tstm_exec: `--jobs N` fans the
   independent runs out to N worker processes with byte-identical
   stdout. *)

open Bechamel
open Toolkit
open Cmdliner

module F = Tstm_harness.Figures
module W = Tstm_harness.Workload
module Br = Tstm_harness.Bench_real
module Intf = Tstm_tm.Tm_intf
module Cli = Tstm_exec.Cli
module Job = Tstm_exec.Job

(* ------------------------------------------------------------------ *)
(* Microbenchmarks (Bechamel, real runtime)                            *)
(* ------------------------------------------------------------------ *)

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

let micro_tests () =
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
            Tstm_util.Bloom.add b 42;
            Tstm_util.Bloom.may_contain b 42));
  ]
  @ List.concat_map stm_tests Br.stms

let run_micro () =
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
    (micro_tests ());
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Observed run                                                        *)
(* ------------------------------------------------------------------ *)

(* The flagship comparison point (Fig. 3b: list, 256 elements, 20% updates,
   8 threads) run under a live observability sink, exporting whatever the
   --trace/--metrics-csv/--top-contended flags asked for. *)
let run_observed ~jobs ~trace ~metrics_csv ~top_contended =
  print_endline "=== Observed run (list 256, 20% updates, 8 threads, WB) ===";
  let spec =
    W.make ~structure:W.List ~initial_size:256 ~update_pct:20.0 ~nthreads:8
      ~duration:0.005 ()
  in
  let point =
    {
      Job.p_stm = "tinystm-wb";
      p_spec = spec;
      p_n_locks = Tinystm.Config.default.Tinystm.Config.n_locks;
      p_shifts = 0;
      p_hierarchy = 1;
      p_cm = "backoff";
      p_periods = 10;
      p_observe = true;
      p_san = false;
    }
  in
  match Cli.eval_point ~jobs point with
  | Error reason ->
      Printf.eprintf "observed run failed: %s\n" reason;
      false
  | Ok o ->
      let collector = Option.get o.Job.collector in
      Format.printf "%a@." W.pp_result o.Job.result;
      print_string (Tstm_obs.Export.histo_summary collector);
      (match trace with
      | Some path ->
          Tstm_obs.Export.write_chrome_trace ~path collector;
          Printf.printf "(trace written to %s)\n" path
      | None -> ());
      (match metrics_csv with
      | Some path ->
          Tstm_obs.Metrics.write ~path (Option.get o.Job.metrics);
          Printf.printf "(metrics CSV written to %s)\n" path
      | None -> ());
      (match top_contended with
      | Some n -> print_string (Tstm_obs.Export.top_contended ~n collector)
      | None -> ());
      print_newline ();
      true

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let fig_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fig" ] ~docv:"N" ~doc:"Run one paper figure (2-12).")

let micro_flag =
  Arg.(value & flag & info [ "micro" ] ~doc:"Bechamel microbenchmarks only.")

let ablation_flag =
  Arg.(
    value & flag
    & info [ "ablation" ] ~doc:"Cost-model ablation sweep only.")

let main profile full jobs fig micro ablation trace metrics_csv top_contended =
  let profile = if full then F.full else profile in
  let observing =
    trace <> None || metrics_csv <> None || top_contended <> None
  in
  let ok =
    if observing then run_observed ~jobs ~trace ~metrics_csv ~top_contended
    else if micro then begin
      run_micro ();
      true
    end
    else if ablation then Cli.run_ablation ~jobs ()
    else
      match fig with
      | Some n ->
          if List.mem n F.fig_numbers then Cli.run_figures ~jobs ~profile [ n ]
          else begin
            Printf.eprintf "no figure %d (valid: 2-12)\n" n;
            false
          end
      | None ->
          run_micro ();
          let ok_abl = Cli.run_ablation ~jobs () in
          let ok_figs = Cli.run_figures ~jobs ~profile F.fig_numbers in
          ok_abl && ok_figs
  in
  if ok then 0 else 1

(* ------------------------------------------------------------------ *)
(* Wall-clock subcommands (real domains)                               *)
(* ------------------------------------------------------------------ *)

let real_cmd =
  let run stm all_stms structure domains size updates seed pattern duration
      warmup reps observe out =
    let stms =
      if all_stms then Tstm_harness.Bench_real.stm_names else [ stm ]
    in
    if
      Cli.run_bench_real ?out ~stms ~structure ~domains ~pattern ~size
        ~update_pct:updates ~seed ~duration ~warmup ~reps ~observe ()
    then 0
    else 1
  in
  Cmd.v
    (Cmd.info "real"
       ~doc:
         "Wall-clock benchmark on real domains: Synchrobench-style timed \
          repetitions per (STM, structure, domain-count) cell, human table \
          on stdout and a machine-readable BENCH_*.json snapshot with \
          --out.")
    Term.(
      const run $ Cli.stm_arg $ Cli.all_stms_flag
      $ Cli.real_structure_arg $ Cli.domains_arg
      $ Cli.size_arg $ Cli.updates_arg $ Cli.seed_arg $ Cli.workload_arg
      $ Cli.real_duration_arg $ Cli.warmup_arg $ Cli.reps_arg
      $ Cli.observe_flag $ Cli.out_arg)

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
    if Cli.run_bench_compare ~threshold ~report_only ~old_path ~new_path ()
    then 0
    else 1
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
  let doc = "TinySTM (PPoPP'08) reproduction: microbenchmarks and figures" in
  let info = Cmd.info "main" ~doc in
  let default =
    Term.(
      const main $ Cli.profile_arg $ Cli.full_flag $ Cli.jobs_arg $ fig_arg
      $ micro_flag $ ablation_flag $ Cli.trace_arg $ Cli.metrics_csv_arg
      $ Cli.top_contended_arg)
  in
  exit (Cmd.eval' (Cmd.group ~default info [ real_cmd; compare_cmd ]))
