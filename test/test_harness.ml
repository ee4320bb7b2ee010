(* Tests for the benchmark harness: spec validation, population, the
   size-preserving update discipline, determinism, the periodic-control
   driver, scenario dispatch and the auto-tuned runs. *)

module W = Tstm_harness.Workload
module S = Tstm_harness.Scenario
module R = Tstm_runtime.Runtime_sim
module D = Tstm_harness.Driver.Make (R) (S.Ts)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let tiny ?(structure = W.List) ?(size = 64) ?(updates = 20.0)
    ?(overwrites = 0.0) ?(threads = 4) ?(duration = 0.0005) () =
  W.make ~structure ~initial_size:size ~update_pct:updates
    ~overwrite_pct:overwrites ~nthreads:threads ~duration ()

(* ------------------------------------------------------------------ *)
(* Workload                                                           *)
(* ------------------------------------------------------------------ *)

let test_spec_validation () =
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  check_bool "zero size" true (bad (fun () -> W.make ~initial_size:0 ()));
  check_bool "range <= size" true
    (bad (fun () -> W.make ~initial_size:100 ~key_range:100 ()));
  check_bool "mix > 100%" true
    (bad (fun () -> W.make ~update_pct:60.0 ~overwrite_pct:50.0 ()));
  check_bool "no threads" true (bad (fun () -> W.make ~nthreads:0 ()));
  check_bool "no duration" true (bad (fun () -> W.make ~duration:0.0 ()))

let test_spec_defaults () =
  let s = W.make ~initial_size:300 () in
  check_int "range defaults to 2x size" 600 s.W.key_range;
  check_bool "memory sized" true (W.memory_words_for s > 300 * 6)

let test_structure_strings () =
  List.iter
    (fun st ->
      Alcotest.(check (option string))
        "roundtrip"
        (Some (W.structure_to_string st))
        (Option.map W.structure_to_string
           (W.structure_of_string (W.structure_to_string st))))
    [ W.List; W.Rbtree; W.Skiplist; W.Hashset ];
  check_bool "unknown" true (W.structure_of_string "foo" = None)

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)
(* ------------------------------------------------------------------ *)

let make_instance spec =
  S.Ts.create ~kind:R.kind
    ~config:(Tinystm.Config.make ~n_locks:1024 ())
    ~memory_words:(W.memory_words_for spec) ()

let test_populate_exact_size () =
  List.iter
    (fun structure ->
      let spec = tiny ~structure () in
      let t = make_instance spec in
      let ops = D.make_structure t spec.W.structure in
      D.populate t ops spec;
      check_int
        (W.structure_to_string structure ^ " populated size")
        spec.W.initial_size
        (S.Ts.atomically t (fun tx -> ops.D.op_size tx)))
    [ W.List; W.Rbtree; W.Skiplist; W.Hashset ]

let test_run_produces_commits () =
  let spec = tiny () in
  let t = make_instance spec in
  let ops = D.make_structure t spec.W.structure in
  D.populate t ops spec;
  let r, _ = D.run t ops spec in
  check_bool "commits" true (r.W.commits > 0);
  Alcotest.(check (float 1e-6))
    "throughput consistent"
    (float_of_int r.W.commits /. spec.W.duration)
    r.W.throughput

let test_size_preserved_by_updates () =
  let spec = tiny ~size:128 ~updates:100.0 ~duration:0.001 () in
  let t = make_instance spec in
  let ops = D.make_structure t spec.W.structure in
  D.populate t ops spec;
  ignore (D.run t ops spec);
  let final = S.Ts.atomically t (fun tx -> ops.D.op_size tx) in
  (* Each thread holds at most one pending insertion. *)
  check_bool
    (Printf.sprintf "size stays near initial (%d vs 128)" final)
    true
    (abs (final - 128) <= spec.W.nthreads)

let test_run_deterministic () =
  let go () =
    let spec = tiny ~structure:W.Rbtree ~size:256 () in
    let t = make_instance spec in
    let ops = D.make_structure t spec.W.structure in
    D.populate t ops spec;
    let r, _ = D.run t ops spec in
    (r.W.commits, r.W.aborts)
  in
  check_bool "bit-identical" true (go () = go ())

let test_seed_changes_runs () =
  let go seed =
    let spec =
      W.make ~structure:W.List ~initial_size:64 ~nthreads:4 ~duration:0.0005
        ~seed ()
    in
    let t = make_instance spec in
    let ops = D.make_structure t spec.W.structure in
    D.populate t ops spec;
    (fst (D.run t ops spec)).W.commits
  in
  check_bool "different seeds differ" true (go 1 <> go 2)

let test_control_driver_periods () =
  let spec = tiny ~duration:1.0 () in
  let t = make_instance spec in
  let ops = D.make_structure t spec.W.structure in
  D.populate t ops spec;
  let calls = ref [] in
  ignore
    (D.run
       ~control:
         {
           D.period = 0.0005;
           n_periods = 5;
           on_period = (fun idx thr _stats -> calls := (idx, thr) :: !calls);
         }
       t ops spec);
  let calls = List.rev !calls in
  check_int "five periods" 5 (List.length calls);
  List.iteri
    (fun i (idx, thr) ->
      check_int "indices in order" i idx;
      check_bool "throughput positive" true (thr > 0.0))
    calls

let test_control_driver_stats_cumulative () =
  let spec = tiny ~duration:1.0 () in
  let t = make_instance spec in
  let ops = D.make_structure t spec.W.structure in
  D.populate t ops spec;
  let prev = ref (-1) in
  ignore
    (D.run
       ~control:
         {
           D.period = 0.0005;
           n_periods = 4;
           on_period =
             (fun _ _ stats ->
               check_bool "commits non-decreasing" true
                 (stats.Tstm_tm.Tm_stats.commits >= !prev);
               prev := stats.Tstm_tm.Tm_stats.commits);
         }
       t ops spec)

(* ------------------------------------------------------------------ *)
(* Scenario                                                           *)
(* ------------------------------------------------------------------ *)

let test_scenario_all_stms () =
  List.iter
    (fun stm ->
      let r = S.run_intset ~stm (tiny ()) in
      check_bool (S.stm_label stm ^ " commits") true (r.W.commits > 0))
    S.all_stms

let test_scenario_tuning_params_effect () =
  (* Tiny lock array must behave differently (more conflicts) than a big
     one on a contended list: just assert both run and produce commits, and
     that results differ (the parameters are actually applied). *)
  let spec = tiny ~size:128 ~updates:50.0 ~threads:8 ~duration:0.001 () in
  let a = S.run_intset ~stm:"tinystm-wb" ~n_locks:16 spec in
  let b = S.run_intset ~stm:"tinystm-wb" ~n_locks:(1 lsl 16) spec in
  check_bool "both ran" true (a.W.commits > 0 && b.W.commits > 0);
  check_bool "parameters change behaviour" true
    (a.W.commits <> b.W.commits || a.W.aborts <> b.W.aborts)

let test_scenario_vacation () =
  let spec =
    { S.Vac.default_spec with S.Vac.n_relations = 64; n_customers = 64 }
  in
  let r = S.run_vacation ~spec ~nthreads:4 ~duration:0.001 ~seed:3 () in
  check_bool "vacation commits" true (r.W.commits > 0)

let test_autotune_trace_shape () =
  let spec = tiny ~size:128 ~threads:4 ~duration:1.0 () in
  let tr = S.run_intset_autotuned ~period:0.0005 ~n_steps:6 spec in
  check_int "six steps" 6 (List.length tr.S.steps);
  check_int "rates per step" 6 (List.length tr.S.validation_rates);
  List.iter
    (fun (s : Tstm_tuning.Tuner.step) ->
      Tinystm.Config.validate s.Tstm_tuning.Tuner.config;
      check_bool "throughput > 0" true (s.Tstm_tuning.Tuner.throughput > 0.0))
    tr.S.steps

let test_autotune_applies_configs () =
  (* After an auto-tuned run the instance's final config must equal the last
     config the tuner settled on... we can't reach the instance from here,
     but we can at least check the tuner explored more than one config. *)
  let spec = tiny ~size:128 ~threads:4 ~duration:1.0 () in
  let tr = S.run_intset_autotuned ~period:0.0005 ~n_steps:8 spec in
  let distinct =
    List.sort_uniq compare
      (List.map
         (fun (s : Tstm_tuning.Tuner.step) ->
           Tinystm.Config.to_string s.Tstm_tuning.Tuner.config)
         tr.S.steps)
  in
  check_bool "explored several configs" true (List.length distinct >= 2)

(* ------------------------------------------------------------------ *)
(* Registry metadata and the capability API                           *)
(* ------------------------------------------------------------------ *)

module Registry = Tstm_tm.Registry
module Intf = Tstm_tm.Tm_intf

let test_registry_metadata () =
  Alcotest.(check (list string))
    "families in first-registration order"
    [ "tinystm"; "tl2"; "norec" ]
    (Registry.families ());
  Alcotest.(check string) "alias resolves to family" "tinystm"
    (Registry.family "wb");
  let caps = Registry.capabilities "norec" in
  check_bool "norec has no lock array" false caps.Intf.lock_array;
  check_bool "norec extends snapshots" true caps.Intf.snapshot_extension;
  check_bool "tl2 does not extend snapshots" false
    (Registry.capabilities "tl2").Intf.snapshot_extension;
  check_bool "tinystm reconfigures" true
    (Registry.capabilities "tinystm-wb").Intf.dynamic_reconfig;
  check_int "fold visits every entry"
    (List.length (Registry.names ()))
    (Registry.fold (fun n _ -> n + 1) 0);
  check_bool "entry_of unknown is None" true
    (Registry.entry_of "no-such-stm" = None)

let test_registry_require () =
  Registry.require "tinystm-wb" "dynamic_reconfig";
  Registry.require "norec" "snapshot_extension";
  (match Registry.require "norec" "lock_array" with
  | exception Intf.Capability_error { stm = "norec"; capability = "lock_array" }
    -> ()
  | exception e -> Alcotest.fail ("wrong exception: " ^ Printexc.to_string e)
  | () -> Alcotest.fail "missing capability accepted");
  let invalid f = try f (); false with Invalid_argument _ -> true in
  check_bool "unknown capability name rejected" true
    (invalid (fun () -> Registry.require "norec" "warp_drive"));
  check_bool "unknown stm rejected" true
    (invalid (fun () -> Registry.require "no-such-stm" "lock_array"))

let test_configure_capability_error () =
  (* [configure] on a non-reconfigurable STM is the typed error naming the
     STM and the missing capability; on TinySTM it just applies. *)
  List.iter
    (fun stm ->
      let (module M) = Registry.get stm in
      let t = M.create ~memory_words:64 () in
      match M.configure t Intf.default_tuning with
      | exception Intf.Capability_error { stm = s; capability } ->
          Alcotest.(check string) (stm ^ " error names the stm") stm s;
          Alcotest.(check string)
            (stm ^ " error names the capability")
            "dynamic_reconfig" capability
      | () -> Alcotest.fail (stm ^ ": configure should be a capability error"))
    [ "tl2"; "norec" ];
  let (module M) = Registry.get "tinystm-wb" in
  let t = M.create ~memory_words:64 () in
  M.configure t Intf.default_tuning

(* ------------------------------------------------------------------ *)
(* Figures smoke                                                      *)
(* ------------------------------------------------------------------ *)

let smoke_profile =
  {
    Tstm_harness.Figures.label = "smoke";
    dur_tree = 0.0003;
    dur_list = 0.0003;
    threads = [ 1; 2 ];
    fig5_sizes = [ 64 ];
    fig5_updates = [ 0.0; 50.0 ];
    surface_size = 64;
    surface_lock_exps = [ 8; 12 ];
    surface_shifts = [ 0; 2 ];
    fig7_lock_exps = [ 10 ];
    fig7_shifts = [ 0 ];
    fig7_relations = 64;
    fig8_h = [ 4 ];
    fig9_lock_exps = [ 8; 12 ];
    fig9_h = [ 4; 16 ];
    tune_size = 64;
    tune_period = 0.0005;
    tune_steps = 4;
  }

let all_finite (out : Tstm_harness.Figures.output) =
  let check arr = Array.for_all (fun v -> Float.is_finite v) arr in
  match out with
  | Tstm_harness.Figures.Table t ->
      check t.Tstm_util.Series.x
      && List.for_all (fun (_, c) -> check c) t.Tstm_util.Series.columns
  | Tstm_harness.Figures.Surface s ->
      Array.for_all check s.Tstm_util.Series.values

let test_every_figure_smokes () =
  List.iter
    (fun n ->
      let outputs = Tstm_harness.Figures.run_figure smoke_profile n in
      check_bool (Printf.sprintf "figure %d has output" n) true
        (outputs <> []);
      List.iter
        (fun o ->
          check_bool (Printf.sprintf "figure %d finite" n) true (all_finite o))
        outputs)
    Tstm_harness.Figures.fig_numbers

let () =
  Alcotest.run "tstm_harness"
    [
      ( "workload",
        [
          Alcotest.test_case "validation" `Quick test_spec_validation;
          Alcotest.test_case "defaults" `Quick test_spec_defaults;
          Alcotest.test_case "structure strings" `Quick test_structure_strings;
        ] );
      ( "driver",
        [
          Alcotest.test_case "populate size" `Quick test_populate_exact_size;
          Alcotest.test_case "run commits" `Quick test_run_produces_commits;
          Alcotest.test_case "size preserved" `Quick
            test_size_preserved_by_updates;
          Alcotest.test_case "deterministic" `Quick test_run_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_changes_runs;
          Alcotest.test_case "control periods" `Quick
            test_control_driver_periods;
          Alcotest.test_case "control stats" `Quick
            test_control_driver_stats_cumulative;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "all stms" `Quick test_scenario_all_stms;
          Alcotest.test_case "tuning params" `Quick
            test_scenario_tuning_params_effect;
          Alcotest.test_case "vacation" `Quick test_scenario_vacation;
          Alcotest.test_case "autotune trace" `Quick test_autotune_trace_shape;
          Alcotest.test_case "autotune explores" `Quick
            test_autotune_applies_configs;
        ] );
      ( "registry",
        [
          Alcotest.test_case "families + capabilities" `Quick
            test_registry_metadata;
          Alcotest.test_case "require" `Quick test_registry_require;
          Alcotest.test_case "configure capability error" `Quick
            test_configure_capability_error;
        ] );
      ( "figures",
        [ Alcotest.test_case "all figures smoke" `Slow test_every_figure_smokes ] );
    ]
