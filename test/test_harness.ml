(* Tests for the benchmark harness: spec validation, population, the
   size-preserving update discipline, determinism, the periodic-control
   driver, scenario dispatch and the auto-tuned runs. *)

module W = Tstm_harness.Workload
module S = Tstm_harness.Scenario
module D = Tstm_harness.Driver.Make (S.Sim) (S.Ts)

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
  check_int "range defaults to 2x size" 600 s.W.key_range

(* The arena from [memory_words_for] holds the populated structure plus the
   slack it promises ([8 * nthreads + 64] more nodes) on real domains, where
   the lock arrays' reach follows the arena; it is smaller than the former
   one-size rule of 24 words per element plus 8,192. *)
let arena_fits (e : Tstm_tm.Registry.entry) structure () =
  let spec = W.make ~structure ~initial_size:1024 ~nthreads:2 ~seed:3 () in
  let (module M) = e.Tstm_tm.Registry.real in
  let module Dm = Tstm_harness.Driver.Make (M) (M) in
  let words = W.memory_words_for spec in
  let t = M.create ~memory_words:words () in
  let ops = Dm.make_structure t structure in
  Dm.populate t ops spec;
  let extra = (8 * spec.W.nthreads) + 64 in
  let added = ref 0 and k = ref 1 in
  while !added < extra do
    if M.atomically t (fun tx -> ops.Dm.op_add tx !k) then incr added;
    incr k
  done;
  check_int "size" (spec.W.initial_size + extra)
    (M.atomically t ops.Dm.op_size);
  let former = ((spec.W.initial_size + extra) * 24) + 8192 in
  check_bool
    (Printf.sprintf "%d words < former %d" words former)
    true (words < former)

let arena_fits_cases =
  List.concat_map
    (fun (e : Tstm_tm.Registry.entry) ->
      List.map
        (fun s ->
          Alcotest.test_case
            (Printf.sprintf "arena fits %s %s" e.Tstm_tm.Registry.name
               (W.structure_to_string s))
            `Quick (arena_fits e s))
        [ W.List; W.Hashset; W.Rbtree; W.Skiplist ])
    (Tstm_tm.Registry.all ())

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
  S.Ts.create ~kind:S.Sim.kind
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

(* The list's finger population changes only how each insert searches.
   Against a reference loop that inserts every draw with [op_add] from the
   head, every arena word, the live words, the contents, the commits and
   the writes must be identical, while the reads fall to a few per draw.
   Every registry entry, on both runtimes. *)
let populate_identity (module M : Tstm_tm.Tm_intf.STM) label () =
  let module Dm = Tstm_harness.Driver.Make (M) (M) in
  let spec = W.make ~structure:W.List ~initial_size:1024 ~seed:1 () in
  let fresh () =
    let t = M.create ~memory_words:(W.memory_words_for spec) () in
    let ops = Dm.make_structure t W.List in
    M.reset_stats t;
    (t, ops)
  in
  let t, ops = fresh () in
  Dm.populate t ops spec;
  let t_ref, ops_ref = fresh () in
  let g = Tstm_util.Xrand.create spec.W.seed in
  let inserted = ref 0 in
  while !inserted < spec.W.initial_size do
    let v = 1 + Tstm_util.Xrand.int g spec.W.key_range in
    if M.atomically t_ref (fun tx -> ops_ref.Dm.op_add tx v) then incr inserted
  done;
  let stats = M.stats t and stats_ref = M.stats t_ref in
  let module St = Tstm_tm.Tm_stats in
  let draws = stats_ref.St.commits in
  check_int (label ^ " commits") draws stats.St.commits;
  check_int (label ^ " writes") stats_ref.St.writes stats.St.writes;
  check_bool
    (Printf.sprintf "%s reads %d <= 4 per draw (%d draws)" label
       stats.St.reads draws)
    true
    (stats.St.reads <= 4 * draws);
  check_int (label ^ " live words") (M.live_words t_ref) (M.live_words t);
  Alcotest.(check (list int))
    (label ^ " contents")
    (M.atomically t_ref ops_ref.Dm.op_to_list)
    (M.atomically t ops.Dm.op_to_list);
  (* Nothing was freed, so a fresh word comes from the bump pointer. *)
  let bump t = M.atomically t (fun tx -> M.alloc tx 1) in
  let top = bump t in
  check_int (label ^ " bump pointer") (bump t_ref) top;
  let words t =
    M.atomically t (fun tx -> List.init (top - 1) (fun i -> M.read tx (i + 1)))
  in
  check_bool (label ^ " arena words") true (words t = words t_ref)

let populate_identity_cases =
  List.concat_map
    (fun (e : Tstm_tm.Registry.entry) ->
      let case stm where =
        let label = e.Tstm_tm.Registry.name ^ "/" ^ where in
        Alcotest.test_case ("populate identity " ^ label) `Quick
          (populate_identity stm label)
      in
      [
        case e.Tstm_tm.Registry.sim "sim";
        case e.Tstm_tm.Registry.real "domains";
      ])
    (Tstm_tm.Registry.all ())

(* At one thread the two packagings of an STM do the same work: the same
   driver steps from the same seed give equal statistics, live words and
   contents on the simulator and on a domain.  Every registry entry, plus
   TinySTM-WB with a hierarchical array, whose barriers then take the
   hierarchy path on both runtimes. *)
let one_thread_identity (e : Tstm_tm.Registry.entry) tuning structure updates
    () =
  let spec =
    W.make ~structure ~update_pct:updates ~overwrite_pct:5.0 ~nthreads:1
      ~seed:7 ()
  in
  let go (module M : Tstm_tm.Tm_intf.STM) =
    let module Dm = Tstm_harness.Driver.Make (M) (M) in
    let t = M.create ~tuning ~memory_words:(W.memory_words_for spec) () in
    let ops = Dm.make_structure t structure in
    Dm.populate t ops spec;
    M.reset_stats t;
    Tstm_runtime.Runtime.run M.kind ~nthreads:1 (fun tid ->
        let g = Tstm_util.Xrand.create (Dm.thread_seed spec tid) in
        let ctx = Dm.thread_ctx spec tid and pending = ref None in
        for _ = 1 to 1500 do
          Dm.step t ops spec ctx g pending
        done);
    (M.stats t, M.live_words t, M.atomically t ops.Dm.op_to_list)
  in
  let stats = Alcotest.testable Tstm_tm.Tm_stats.pp ( = ) in
  Alcotest.(check (triple stats int (list int)))
    "stats, live words, contents"
    (go e.Tstm_tm.Registry.sim)
    (go e.Tstm_tm.Registry.real)

let one_thread_identity_cases =
  let case ?(h = 1) (e : Tstm_tm.Registry.entry) s u =
    Alcotest.test_case
      (Printf.sprintf "one-thread identity %s %s u=%.0f h=%d"
         e.Tstm_tm.Registry.name (W.structure_to_string s) u h)
      `Quick
      (one_thread_identity e
         { Tstm_tm.Tm_intf.default_tuning with hierarchy = h }
         s u)
  in
  let wb = Option.get (Tstm_tm.Registry.entry_of "tinystm-wb") in
  List.concat_map
    (fun e ->
      List.concat_map (fun s -> [ case e s 0.0; case e s 20.0 ]) [ W.List; W.Rbtree ])
    (Tstm_tm.Registry.all ())
  @ [ case ~h:64 wb W.List 20.0; case ~h:64 wb W.Rbtree 20.0 ]

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

let test_drain_empties () =
  (* After a run, [drain] must leave every structure empty and hand every
     node back to the arena: live words return to the pre-populate
     skeleton, the check the service engines and the fault sweep rely on. *)
  List.iter
    (fun structure ->
      let name = W.structure_to_string structure in
      let spec = tiny ~structure ~size:96 () in
      let t = make_instance spec in
      let ops = D.make_structure t spec.W.structure in
      let skeleton = Tstm_vmm.Vmm.live_words (S.Ts.memory t) in
      D.populate t ops spec;
      ignore (D.run t ops spec);
      D.drain t ops;
      check_int (name ^ " size after drain") 0
        (S.Ts.atomically t (fun tx -> ops.D.op_size tx));
      check_int (name ^ " live words back to skeleton") skeleton
        (Tstm_vmm.Vmm.live_words (S.Ts.memory t)))
    [ W.List; W.Rbtree; W.Skiplist; W.Hashset ]

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
(* Real-hardware bench requests                                       *)
(* ------------------------------------------------------------------ *)

module BR = Tstm_harness.Bench_real

(* An observed cell wider than the sharded sink would drop the notes of
   domains past [Sink.max_cpus].  [run_cell] must refuse it before it
   resolves the STM: the unknown STM name below proves the width check
   came first, and neither request starts a domain. *)
let test_observed_width_bound () =
  let req =
    {
      BR.default_request with
      BR.stm = "no-such-stm";
      domains = Tstm_obs.Sink.max_cpus + 1;
    }
  in
  let p = { BR.duration_s = 0.01; warmup_s = 0.0; reps = 1; observe = true } in
  let error_of p =
    match BR.run_cell req p with
    | Error e -> e
    | Ok _ -> Alcotest.fail "invalid request ran"
  in
  Alcotest.(check string)
    "observed width refused first"
    (Printf.sprintf "an observed cell runs at most %d domains"
       Tstm_obs.Sink.max_cpus)
    (error_of p);
  let unobserved = error_of { p with BR.observe = false } in
  check_bool "unobserved request reaches the stm lookup" true
    (String.starts_with ~prefix:"unknown STM" unobserved)

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

(* ------------------------------------------------------------------ *)
(* Footprint                                                          *)
(* ------------------------------------------------------------------ *)

(* perfbench's list-read spec: a 1,024-key list at 20 % updates, sized for
   two domains. *)
let list_read =
  W.make ~structure:W.List ~initial_size:1024 ~update_pct:20.0 ~nthreads:2
    ~seed:1 ()

(* One registry entry on one domain: the major-heap words that create and
   populate leave live, and the minor words per transaction over 20,000
   driver steps after 1,000 warmup steps.  Both are deterministic. *)
let footprint (e : Tstm_tm.Registry.entry) =
  let (module M) = e.Tstm_tm.Registry.real in
  let module Dm = Tstm_harness.Driver.Make (M) (M) in
  let live () =
    Gc.full_major ();
    (Gc.quick_stat ()).Gc.live_words
  in
  let w0 = live () in
  let t = M.create ~memory_words:(W.memory_words_for list_read) () in
  let ops = Dm.make_structure t W.List in
  Dm.populate t ops list_read;
  let live_words = live () - w0 in
  let per_tx = ref 0.0 in
  Tstm_runtime.Runtime.run M.kind ~nthreads:1 (fun tid ->
      let g = Tstm_util.Xrand.create (Dm.thread_seed list_read tid) in
      let ctx = Dm.thread_ctx list_read tid and pending = ref None in
      for _ = 1 to 1_000 do
        Dm.step t ops list_read ctx g pending
      done;
      M.reset_stats t;
      let m0 = Gc.minor_words () in
      for _ = 1 to 20_000 do
        Dm.step t ops list_read ctx g pending
      done;
      per_tx :=
        (Gc.minor_words () -. m0)
        /. float_of_int (M.stats t).Tstm_tm.Tm_stats.commits);
  (live_words, !per_tx)

(* results/footprint.txt, one [(stm, (live words, minor words per
   transaction))] per row.  [dune test] runs from _build/default/test and
   names the build profile; a direct run from the root is taken to be the
   release build. *)
let footprint_table () =
  let path =
    if Sys.file_exists "../results/footprint.txt" then
      "../results/footprint.txt"
    else "results/footprint.txt"
  in
  let dev = Sys.getenv_opt "BUILD_PROFILE" = Some "dev" in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         if line = "" || line.[0] = '#' then None
         else
           Scanf.sscanf line " %s %d %s %s" (fun stm live release dev_ ->
               Some (stm, (live, if dev then dev_ else release))))

let footprint_cases =
  let table = lazy (footprint_table ()) in
  List.map
    (fun (e : Tstm_tm.Registry.entry) ->
      let name = e.Tstm_tm.Registry.name in
      Alcotest.test_case name `Quick (fun () ->
          let live, per_tx = footprint e in
          let pinned_live, pinned_per_tx =
            match List.assoc_opt name (Lazy.force table) with
            | Some row -> row
            | None -> Alcotest.failf "no row for %s in footprint.txt" name
          in
          check_int "live words after create + populate" pinned_live live;
          Alcotest.(check string)
            "minor words per transaction" pinned_per_tx
            (Printf.sprintf "%.2f" per_tx)))
    (Tstm_tm.Registry.all ())

(* ------------------------------------------------------------------ *)
(* Real-domain histories                                               *)
(* ------------------------------------------------------------------ *)

(* Two domains of an entry's real packaging run random single-operation
   transactions, stamped with the monotonic clock around [atomically], and
   the history must linearize to the final contents.  A checker-budget
   [Error] fails the case like any other.  5,000 operations per domain
   span several milliseconds: a woken pool domain can start that late on
   a busy host, and a shorter history records no overlap. *)
let domains_history (e : Tstm_tm.Registry.entry) structure () =
  let (module M) = e.Tstm_tm.Registry.real in
  let module Dm = Tstm_harness.Driver.Make (M) (M) in
  let nthreads = 2 and per_thread = 5_000 and key_range = 16 in
  let words = W.arena_words structure ~elements:key_range ~nthreads in
  let t = M.create ~memory_words:words () in
  let ops = Dm.make_structure t structure in
  let h = Tstm_chaos.History.create ~nthreads in
  Dm.run_recorded t ops ~nthreads ~per_thread ~key_range ~seed:1 h;
  let final = M.atomically t ops.Dm.op_to_list in
  let events = Tstm_chaos.History.events h in
  check_int "events" (nthreads * per_thread) (List.length events);
  match Tstm_chaos.History.check ~final events with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let domains_history_cases =
  List.concat_map
    (fun (e : Tstm_tm.Registry.entry) ->
      List.map
        (fun s ->
          let name = e.Tstm_tm.Registry.name ^ " " ^ W.structure_to_string s in
          Alcotest.test_case name `Quick (domains_history e s))
        [ W.List; W.Rbtree ])
    (Tstm_tm.Registry.all ())

let test_eval_cell_rejects_hierarchy2 () =
  let module F = Tstm_harness.Figures in
  Alcotest.check_raises "hierarchy2 = 2"
    (Invalid_argument "Figures.eval_cell: hierarchy2 must be 1") (fun () ->
      ignore
        (F.eval_cell
           (F.Intset_cell
              { stm = "tinystm-wb"; n_locks = 1024; shifts = 0; hierarchy = 4;
                hierarchy2 = 2; spec = tiny () })))

let () =
  Alcotest.run "tstm_harness"
    [
      ( "workload",
        [
          Alcotest.test_case "validation" `Quick test_spec_validation;
          Alcotest.test_case "defaults" `Quick test_spec_defaults;
          Alcotest.test_case "structure strings" `Quick test_structure_strings;
        ]
        @ arena_fits_cases );
      ( "driver",
        [
          Alcotest.test_case "populate size" `Quick test_populate_exact_size;
        ]
        @ populate_identity_cases @ one_thread_identity_cases
        @ [
          Alcotest.test_case "run commits" `Quick test_run_produces_commits;
          Alcotest.test_case "size preserved" `Quick
            test_size_preserved_by_updates;
          Alcotest.test_case "drain empties" `Quick test_drain_empties;
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
      ( "bench real",
        [
          Alcotest.test_case "observed width bound" `Quick
            test_observed_width_bound;
        ] );
      ("footprint", footprint_cases);
      ("domains history", domains_history_cases);
      ( "figures",
        [
          Alcotest.test_case "all figures smoke" `Slow test_every_figure_smokes;
          Alcotest.test_case "eval_cell rejects hierarchy2" `Quick
            test_eval_cell_rejects_hierarchy2;
        ] );
    ]
