(* Chaos smoke: a small deterministic seed sweep across both STMs (all
   three variants) and all four structures, checking every recorded history
   for serializability.  `dune build @chaos-smoke` runs it alone; the
   runtest alias folds it into the regular test run. *)

module Stress = Tstm_harness.Stress
module Scenario = Tstm_harness.Scenario
module Workload = Tstm_harness.Workload

let () =
  let structures =
    [ Workload.List; Workload.Skiplist; Workload.Rbtree; Workload.Hashset ]
  in
  let r =
    Stress.sweep ~seeds:3 ~stms:Scenario.all_stms ~structures
      { Stress.default with Stress.max_retries = 6 }
  in
  Printf.printf
    "chaos-smoke: %d runs, %d ops checked, %d injections, %d commits, %d \
     aborts, %d escalations\n"
    r.Stress.runs r.Stress.total_events r.Stress.total_injected
    r.Stress.total_commits r.Stress.total_aborts r.Stress.total_escalations;
  (match r.Stress.first_failure with
  | Some (spec, rep) ->
      let v = match rep.Stress.violation with Some m -> m | None -> "?" in
      Printf.eprintf "chaos-smoke: FAILED\n%s\nreplay: %s\n" v
        (Tstm_exec.Cli.Stress.replay spec);
      exit 1
  | None -> ());
  if r.Stress.total_injected = 0 then begin
    Printf.eprintf "chaos-smoke: FAILED: no chaos injections fired\n";
    exit 1
  end;
  print_endline "chaos-smoke: OK (zero serializability violations)"
