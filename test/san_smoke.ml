(* San smoke: a small deterministic seed sweep across all three STM
   variants and all four structures with the happens-before sanitizer
   armed — zero findings expected — plus a teeth spot check that an armed
   protocol bug is flagged.  `dune build @san-smoke` runs it alone; the
   runtest alias folds it into the regular test run. *)

module San = Tstm_san.San
module Stress = Tstm_harness.Stress
module Scenario = Tstm_harness.Scenario
module Workload = Tstm_harness.Workload
module Chaos = Tstm_chaos.Chaos

let () =
  let structures =
    [ Workload.List; Workload.Skiplist; Workload.Rbtree; Workload.Hashset ]
  in
  let base =
    { Stress.default with Stress.max_retries = 6; san = true }
  in
  let r = Stress.sweep ~seeds:2 ~stms:Scenario.all_stms ~structures base in
  Printf.printf
    "san-smoke: %d runs, %d ops checked, %d injections, %d commits, %d \
     aborts, %d escalations\n"
    r.Stress.runs r.Stress.total_events r.Stress.total_injected
    r.Stress.total_commits r.Stress.total_aborts r.Stress.total_escalations;
  (match r.Stress.first_failure with
  | Some (spec, rep) ->
      Printf.eprintf "san-smoke: FAILED\n";
      (match rep.Stress.violation with
      | Some m -> Printf.eprintf "%s\n" m
      | None -> ());
      List.iter
        (fun f -> Printf.eprintf "%s\n" (San.render f))
        rep.Stress.san_findings;
      Printf.eprintf "replay: %s\n" (Tstm_exec.Cli.Stress.replay spec);
      exit 1
  | None -> ());
  (* Teeth spot check: the armed skip-validation bug must produce findings. *)
  let spec =
    {
      base with
      Stress.stm = "tl2";
      per_thread = 8;
      seed = 0;
      bug = Some Chaos.Skip_validation;
    }
  in
  let rep = Stress.run_one spec in
  if rep.Stress.san_findings = [] then begin
    Printf.eprintf
      "san-smoke: FAILED: armed skip-validation produced no findings\n";
    exit 1
  end;
  print_endline "san-smoke: OK (clean sweep, armed bug flagged)"
