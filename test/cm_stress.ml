(* CM stress: deterministic seed sweeps proving every contention manager
   preserves serializability on every STM variant and structure — 50 seeds
   of linearizability checking per policy, plus a smaller sweep with the
   happens-before sanitizer armed, plus adversarial key patterns under the
   kill-capable policies.  `dune build @cm-stress` runs it alone; the
   runtest alias folds it into the regular test run. *)

module Stress = Tstm_harness.Stress
module Scenario = Tstm_harness.Scenario
module Workload = Tstm_harness.Workload

let structures =
  [ Workload.List; Workload.Skiplist; Workload.Rbtree; Workload.Hashset ]

let policies = [ "backoff"; "suicide"; "karma"; "greedy"; "serialize:4" ]

let fail_with label (spec, (rep : Stress.report)) =
  Printf.eprintf "cm-stress: FAILED (%s)\n" label;
  (match rep.Stress.violation with
  | Some m -> Printf.eprintf "%s\n" m
  | None -> ());
  List.iter
    (fun f -> Printf.eprintf "%s\n" (Tstm_san.San.render f))
    rep.Stress.san_findings;
  Printf.eprintf "replay: %s\n" (Tstm_exec.Cli.Stress.replay spec);
  exit 1

let sweep label ~seeds spec =
  let r = Stress.sweep ~seeds ~stms:Scenario.all_stms ~structures spec in
  Printf.printf "cm-stress: %-24s %4d runs, %7d ops, %6d commits, %6d aborts\n"
    label r.Stress.runs r.Stress.total_events r.Stress.total_commits
    r.Stress.total_aborts;
  (match r.Stress.first_failure with
  | Some failure -> fail_with label failure
  | None -> ());
  r.Stress.runs

let () =
  let base = { Stress.default with Stress.max_retries = 6 } in
  let total = ref 0 in
  (* Serializability: 50 seeds per policy across every STM and structure. *)
  List.iter
    (fun cm ->
      total := !total + sweep cm ~seeds:50 { base with Stress.cm })
    policies;
  (* Same matrix with the happens-before sanitizer armed: the kill path
     (remote aborts) must leave no sanitizer-visible protocol violation. *)
  List.iter
    (fun cm ->
      total :=
        !total + sweep (cm ^ " +san") ~seeds:2 { base with Stress.cm; san = true })
    policies;
  (* Adversarial key patterns under the kill-capable policies: skewed
     contention is where wrongful kills would corrupt histories. *)
  List.iter
    (fun (cm, pattern) ->
      let label =
        Printf.sprintf "%s %s" cm (Workload.pattern_to_string pattern)
      in
      total := !total + sweep label ~seeds:10 { base with Stress.cm; pattern })
    [
      ("karma", Workload.Zipf 1.2);
      ("karma", Workload.Hotspot 4);
      ("greedy", Workload.Zipf 1.2);
      ("greedy", Workload.Bimodal 8);
    ];
  Printf.printf "cm-stress: OK (%d runs, zero violations)\n" !total
