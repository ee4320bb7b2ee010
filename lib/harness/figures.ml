(* Figure regeneration, decomposed into independent cells.

   Every figure is built twice through the same builder code, parameterised
   by an [eval : cell -> value] callback:

   - [plan] runs the builder with an eval that records each requested cell
     (returning a dummy value) and yields the ordered cell array;
   - [assemble] runs it again with an eval that pops the next value from a
     rank-indexed array and yields the printable outputs.

   Both traversals are structurally identical, so rank [i] of the plan
   always matches value [i] of the assembly — which is what lets the
   multi-process sweep runner ([Tstm_exec]) execute the cells in any order
   on any number of workers and still reassemble byte-identical output.
   [run_figure] is the sequential composition of the three. *)

module Series = Tstm_util.Series
module Config = Tinystm.Config

type profile = {
  label : string;
  dur_tree : float;
  dur_list : float;
  threads : int list;
  fig5_sizes : int list;
  fig5_updates : float list;
  surface_size : int;
  surface_lock_exps : int list;
  surface_shifts : int list;
  fig7_lock_exps : int list;
  fig7_shifts : int list;
  fig7_relations : int;
  fig8_h : int list;
  fig9_lock_exps : int list;
  fig9_h : int list;
  tune_size : int;
  tune_period : float;
  tune_steps : int;
}

let quick =
  {
    label = "quick";
    dur_tree = 0.002;
    dur_list = 0.002;
    threads = [ 1; 2; 4; 8 ];
    fig5_sizes = [ 256; 1024; 4096 ];
    fig5_updates = [ 0.0; 20.0; 60.0; 100.0 ];
    surface_size = 1024;
    surface_lock_exps = [ 8; 12; 16; 20; 24 ];
    surface_shifts = [ 0; 2; 4; 6 ];
    fig7_lock_exps = [ 16; 20; 24 ];
    fig7_shifts = [ 0; 4; 8 ];
    fig7_relations = 2048;
    fig8_h = [ 4; 64 ];
    fig9_lock_exps = [ 8; 12; 16; 20; 24 ];
    fig9_h = [ 4; 16; 64; 256 ];
    tune_size = 1024;
    tune_period = 0.001;
    tune_steps = 12;
  }

let full =
  {
    label = "full";
    dur_tree = 0.005;
    dur_list = 0.004;
    threads = [ 1; 2; 4; 6; 8 ];
    fig5_sizes = [ 256; 512; 1024; 2048; 4096 ];
    fig5_updates = [ 0.0; 20.0; 40.0; 60.0; 80.0; 100.0 ];
    surface_size = 4096;
    surface_lock_exps = [ 8; 12; 16; 20; 24 ];
    surface_shifts = [ 0; 1; 2; 3; 4; 5; 6 ];
    fig7_lock_exps = [ 16; 18; 20; 22; 24 ];
    fig7_shifts = [ 0; 2; 4; 6; 8 ];
    fig7_relations = 8192;
    fig8_h = [ 4; 16; 64 ];
    fig9_lock_exps = [ 8; 10; 12; 14; 16; 18; 20; 22; 24 ];
    fig9_h = [ 4; 16; 64; 256 ];
    tune_size = 4096;
    tune_period = 0.002;
    tune_steps = 20;
  }

type output = Table of Series.table | Surface of Series.surface

let print_output = function
  | Table t -> Series.print_table t
  | Surface s -> Series.print_surface s

(* ------------------------------------------------------------------ *)
(* Cells                                                               *)
(* ------------------------------------------------------------------ *)

type cell =
  | Intset_cell of {
      stm : string;
      n_locks : int;
      shifts : int;
      hierarchy : int;
      hierarchy2 : int;
      spec : Workload.spec;
    }
  | Vacation_cell of {
      n_locks : int;
      shifts : int;
      hierarchy : int;
      n_relations : int;
      nthreads : int;
      duration : float;
      seed : int;
    }
  | Autotune_cell of {
      structure : Workload.structure;
      size : int;
      period : float;
      steps : int;
    }

type value = Result of Workload.result | Trace of Scenario.tune_trace

let cell_label = function
  | Intset_cell { stm; spec; n_locks; shifts; hierarchy; _ } ->
      Printf.sprintf "%s %s n=%d u=%.0f%% t=%d locks=2^%d sh=%d h=%d" stm
        (Workload.structure_to_string spec.Workload.structure)
        spec.Workload.initial_size spec.Workload.update_pct
        spec.Workload.nthreads
        (Tstm_util.Bitops.log2 n_locks)
        shifts hierarchy
  | Vacation_cell { n_locks; shifts; n_relations; _ } ->
      Printf.sprintf "vacation rel=%d locks=2^%d sh=%d" n_relations
        (Tstm_util.Bitops.log2 n_locks)
        shifts
  | Autotune_cell { structure; size; steps; _ } ->
      Printf.sprintf "autotune %s n=%d steps=%d"
        (Workload.structure_to_string structure)
        size steps

(* Autotuned traces are expensive and shared between Figs. 11 and 12, so
   their evaluation is memoised process-wide (the simulator is
   deterministic, so the cache is semantically invisible). *)
let trace_cache : (cell, value) Hashtbl.t = Hashtbl.create 4

let eval_cell cell =
  match cell with
  (* TinySTM has one counter level; the field stays only because the
     frozen benchmark under perfbench/ builds this record. *)
  | Intset_cell { hierarchy2; _ } when hierarchy2 <> 1 ->
      invalid_arg "Figures.eval_cell: hierarchy2 must be 1"
  | Intset_cell { stm; n_locks; shifts; hierarchy; spec; _ } ->
      Result (Scenario.run_intset ~stm ~n_locks ~shifts ~hierarchy spec)
  | Vacation_cell
      { n_locks; shifts; hierarchy; n_relations; nthreads; duration; seed } ->
      let spec =
        {
          Scenario.Vac.default_spec with
          Scenario.Vac.n_relations;
          n_customers = n_relations;
        }
      in
      Result
        (Scenario.run_vacation ~n_locks ~shifts ~hierarchy ~spec ~nthreads
           ~duration ~seed ())
  | Autotune_cell { structure; size; period; steps } -> (
      match Hashtbl.find_opt trace_cache cell with
      | Some v -> v
      | None ->
          let spec =
            Workload.make ~structure ~initial_size:size ~update_pct:20.0
              ~nthreads:8 ~duration:1.0 ()
          in
          let v =
            Trace (Scenario.run_intset_autotuned ~period ~n_steps:steps spec)
          in
          Hashtbl.replace trace_cache cell v;
          v)

(* ------------------------------------------------------------------ *)
(* Builders, parameterised by eval                                     *)
(* ------------------------------------------------------------------ *)

type eval = cell -> value

let res = function
  | Result r -> r
  | Trace _ -> invalid_arg "Figures: cell evaluated to a trace, expected a run"

let trace = function
  | Trace t -> t
  | Result _ ->
      invalid_arg "Figures: cell evaluated to a run, expected a trace"

let default_locks = Config.default.Config.n_locks

let intset (ev : eval) ~stm ?(n_locks = default_locks) ?(shifts = 0)
    ?(hierarchy = 1) spec =
  res
    (ev (Intset_cell { stm; n_locks; shifts; hierarchy; hierarchy2 = 1; spec }))

let kilo x = x /. 1000.0

let duration_of p (structure : Workload.structure) =
  match structure with
  | Workload.List -> p.dur_list
  | Workload.Rbtree | Workload.Skiplist | Workload.Hashset -> p.dur_tree

(* ------------------------------------------------------------------ *)
(* Figures 2-3: throughput vs. threads                                 *)
(* ------------------------------------------------------------------ *)

let threads_table ev p ~title ~structure ~size ~update_pct ~overwrite_pct
    ~measure =
  let columns =
    List.map
      (fun stm ->
        let col =
          List.map
            (fun n ->
              let spec =
                Workload.make ~structure ~initial_size:size
                  ~update_pct ~overwrite_pct ~nthreads:n
                  ~duration:(duration_of p structure) ()
              in
              measure (intset ev ~stm spec))
            p.threads
        in
        (Scenario.stm_label stm, Array.of_list col))
      Scenario.all_stms
  in
  {
    Series.title;
    x_label = "threads";
    x = Array.of_list (List.map float_of_int p.threads);
    columns;
  }

let throughput_k (r : Workload.result) = kilo r.Workload.throughput
let aborts_k (r : Workload.result) = kilo r.Workload.abort_rate

let fig2 ev p =
  [
    Table
      (threads_table ev p
         ~title:"Fig 2a: Red-black tree, 256 elements, 20% updates (x10^3 txs/s)"
         ~structure:Workload.Rbtree ~size:256 ~update_pct:20.0
         ~overwrite_pct:0.0 ~measure:throughput_k);
    Table
      (threads_table ev p
         ~title:"Fig 2b: Red-black tree, 4096 elements, 20% updates (x10^3 txs/s)"
         ~structure:Workload.Rbtree ~size:4096 ~update_pct:20.0
         ~overwrite_pct:0.0 ~measure:throughput_k);
    Table
      (threads_table ev p
         ~title:"Fig 2c: Red-black tree, 4096 elements, 60% updates (x10^3 txs/s)"
         ~structure:Workload.Rbtree ~size:4096 ~update_pct:60.0
         ~overwrite_pct:0.0 ~measure:throughput_k);
  ]

let fig3 ev p =
  [
    Table
      (threads_table ev p
         ~title:"Fig 3a: Linked list, 256 elements, 0% updates (x10^3 txs/s)"
         ~structure:Workload.List ~size:256 ~update_pct:0.0 ~overwrite_pct:0.0
         ~measure:throughput_k);
    Table
      (threads_table ev p
         ~title:"Fig 3b: Linked list, 256 elements, 20% updates (x10^3 txs/s)"
         ~structure:Workload.List ~size:256 ~update_pct:20.0
         ~overwrite_pct:0.0 ~measure:throughput_k);
    Table
      (threads_table ev p
         ~title:"Fig 3c: Linked list, 4096 elements, 20% updates (x10^3 txs/s)"
         ~structure:Workload.List ~size:4096 ~update_pct:20.0
         ~overwrite_pct:0.0 ~measure:throughput_k);
  ]

let fig4 ev p =
  [
    Table
      (threads_table ev p
         ~title:"Fig 4a: Aborts, red-black tree, 4096 elements, 20% updates (x10^3/s)"
         ~structure:Workload.Rbtree ~size:4096 ~update_pct:20.0
         ~overwrite_pct:0.0 ~measure:aborts_k);
    Table
      (threads_table ev p
         ~title:"Fig 4b: Aborts, linked list, 256 elements, 20% updates (x10^3/s)"
         ~structure:Workload.List ~size:256 ~update_pct:20.0
         ~overwrite_pct:0.0 ~measure:aborts_k);
    Table
      (threads_table ev p
         ~title:
           "Fig 4c: Throughput, linked list, 256 elements, 5% overwrites (x10^3 txs/s)"
         ~structure:Workload.List ~size:256 ~update_pct:0.0 ~overwrite_pct:5.0
         ~measure:throughput_k);
  ]

(* ------------------------------------------------------------------ *)
(* Figure 5: size x update-rate surfaces (8 threads)                   *)
(* ------------------------------------------------------------------ *)

let fig5 ev p =
  let surface structure stm =
    let values =
      List.map
        (fun size ->
          Array.of_list
            (List.map
               (fun upd ->
                 let spec =
                   Workload.make ~structure ~initial_size:size ~update_pct:upd
                     ~nthreads:8 ~duration:(duration_of p structure) ()
                 in
                 kilo (intset ev ~stm spec).Workload.throughput)
               p.fig5_updates))
        p.fig5_sizes
    in
    {
      Series.s_title =
        Printf.sprintf "Fig 5: %s, %s, 8 threads (x10^3 txs/s)"
          (Workload.structure_to_string structure)
          (Scenario.stm_label stm);
      row_label = "size";
      col_label = "update%";
      rows = Array.of_list (List.map float_of_int p.fig5_sizes);
      cols = Array.of_list p.fig5_updates;
      values = Array.of_list values;
    }
  in
  List.concat_map
    (fun structure ->
      List.map (fun stm -> Surface (surface structure stm)) Scenario.all_stms)
    [ Workload.Rbtree; Workload.List ]

(* ------------------------------------------------------------------ *)
(* Figures 6-8: locks x shifts surfaces                                *)
(* ------------------------------------------------------------------ *)

let locks_shifts_surface ev p ~title ~structure ~size ~hierarchy ~lock_exps
    ~shifts =
  let values =
    List.map
      (fun s ->
        Array.of_list
          (List.map
             (fun e ->
               let spec =
                 Workload.make ~structure ~initial_size:size ~update_pct:20.0
                   ~nthreads:8 ~duration:(duration_of p structure) ()
               in
               kilo
                 (intset ev ~stm:"tinystm-wb" ~n_locks:(1 lsl e) ~shifts:s
                    ~hierarchy spec)
                   .Workload.throughput)
             lock_exps))
      shifts
  in
  {
    Series.s_title = title;
    row_label = "#shifts";
    col_label = "log2(#locks)";
    rows = Array.of_list (List.map float_of_int shifts);
    cols = Array.of_list (List.map float_of_int lock_exps);
    values = Array.of_list values;
  }

let fig6 ev p =
  [
    Surface
      (locks_shifts_surface ev p
         ~title:
           (Printf.sprintf
              "Fig 6a: red-black tree, h=4, size=%d, 20%% updates, 8 threads (x10^3 txs/s)"
              p.surface_size)
         ~structure:Workload.Rbtree ~size:p.surface_size ~hierarchy:4
         ~lock_exps:p.surface_lock_exps ~shifts:p.surface_shifts);
    Surface
      (locks_shifts_surface ev p
         ~title:
           (Printf.sprintf
              "Fig 6b: linked list, h=4, size=%d, 20%% updates, 8 threads (x10^3 txs/s)"
              p.surface_size)
         ~structure:Workload.List ~size:p.surface_size ~hierarchy:4
         ~lock_exps:p.surface_lock_exps ~shifts:p.surface_shifts);
  ]

let fig7 ev p =
  let values =
    List.map
      (fun s ->
        Array.of_list
          (List.map
             (fun e ->
               let r =
                 res
                   (ev
                      (Vacation_cell
                         {
                           n_locks = 1 lsl e;
                           shifts = s;
                           hierarchy = 4;
                           n_relations = p.fig7_relations;
                           nthreads = 8;
                           duration = p.dur_tree;
                           seed = 7;
                         }))
               in
               kilo r.Workload.throughput)
             p.fig7_lock_exps))
      p.fig7_shifts
  in
  [
    Surface
      {
        Series.s_title =
          Printf.sprintf
            "Fig 7: STAMP Vacation (%d relations), h=4, 8 threads (x10^3 txs/s)"
            p.fig7_relations;
        row_label = "#shifts";
        col_label = "log2(#locks)";
        rows = Array.of_list (List.map float_of_int p.fig7_shifts);
        cols = Array.of_list (List.map float_of_int p.fig7_lock_exps);
        values = Array.of_list values;
      };
  ]

let fig8 ev p =
  List.concat_map
    (fun structure ->
      List.map
        (fun h ->
          Surface
            (locks_shifts_surface ev p
               ~title:
                 (Printf.sprintf
                    "Fig 8: hierarchical %s, h=%d, size=%d, 20%% updates, 8 threads (x10^3 txs/s)"
                    (Workload.structure_to_string structure)
                    h p.surface_size)
               ~structure ~size:p.surface_size ~hierarchy:h
               ~lock_exps:p.surface_lock_exps ~shifts:p.surface_shifts))
        p.fig8_h)
    [ Workload.Rbtree; Workload.List ]

(* ------------------------------------------------------------------ *)
(* Figure 9: improvement percentages along each tuning axis            *)
(* ------------------------------------------------------------------ *)

let improvement_column values =
  let min_v = Array.fold_left Float.min values.(0) values in
  Array.map (fun v -> (v -. min_v) /. min_v *. 100.0) values

let fig9 ev p =
  let run ~structure ~n_locks ~shifts ~hierarchy =
    let spec =
      Workload.make ~structure ~initial_size:p.surface_size ~update_pct:20.0
        ~nthreads:8 ~duration:(duration_of p structure) ()
    in
    (intset ev ~stm:"tinystm-wb" ~n_locks ~shifts ~hierarchy spec)
      .Workload.throughput
  in
  let curve xs f = improvement_column (Array.of_list (List.map f xs)) in
  let left =
    {
      Series.title =
        Printf.sprintf
          "Fig 9a: improvement%% vs #locks (size=%d, 20%%, 8 threads)"
          p.surface_size;
      x_label = "log2(#locks)";
      x = Array.of_list (List.map float_of_int p.fig9_lock_exps);
      columns =
        [
          ( "rbtree h=4 shift=3",
            curve p.fig9_lock_exps (fun e ->
                run ~structure:Workload.Rbtree ~n_locks:(1 lsl e) ~shifts:3
                  ~hierarchy:4) );
          ( "list h=4 shift=2",
            curve p.fig9_lock_exps (fun e ->
                run ~structure:Workload.List ~n_locks:(1 lsl e) ~shifts:2
                  ~hierarchy:4) );
          ( "rbtree h=64 shift=3",
            curve p.fig9_lock_exps (fun e ->
                run ~structure:Workload.Rbtree ~n_locks:(1 lsl e) ~shifts:3
                  ~hierarchy:64) );
          ( "list h=64 shift=2",
            curve p.fig9_lock_exps (fun e ->
                run ~structure:Workload.List ~n_locks:(1 lsl e) ~shifts:2
                  ~hierarchy:64) );
        ];
    }
  in
  let locks22 = 1 lsl 22 in
  let middle =
    {
      Series.title =
        Printf.sprintf
          "Fig 9b: improvement%% vs #shifts (size=%d, 20%%, 8 threads, locks=2^22)"
          p.surface_size;
      x_label = "#shifts";
      x = Array.of_list (List.map float_of_int p.surface_shifts);
      columns =
        [
          ( "rbtree h=4",
            curve p.surface_shifts (fun s ->
                run ~structure:Workload.Rbtree ~n_locks:locks22 ~shifts:s
                  ~hierarchy:4) );
          ( "list h=4",
            curve p.surface_shifts (fun s ->
                run ~structure:Workload.List ~n_locks:locks22 ~shifts:s
                  ~hierarchy:4) );
          ( "rbtree h=64",
            curve p.surface_shifts (fun s ->
                run ~structure:Workload.Rbtree ~n_locks:locks22 ~shifts:s
                  ~hierarchy:64) );
          ( "list h=64",
            curve p.surface_shifts (fun s ->
                run ~structure:Workload.List ~n_locks:locks22 ~shifts:s
                  ~hierarchy:64) );
        ];
    }
  in
  let right =
    {
      Series.title =
        Printf.sprintf
          "Fig 9c: improvement%% vs h (size=%d, 20%%, 8 threads, locks=2^22)"
          p.surface_size;
      x_label = "h";
      x = Array.of_list (List.map float_of_int p.fig9_h);
      columns =
        [
          ( "rbtree shift=3",
            curve p.fig9_h (fun h ->
                run ~structure:Workload.Rbtree ~n_locks:locks22 ~shifts:3
                  ~hierarchy:h) );
          ( "list shift=3",
            curve p.fig9_h (fun h ->
                run ~structure:Workload.List ~n_locks:locks22 ~shifts:3
                  ~hierarchy:h) );
          ( "rbtree shift=2",
            curve p.fig9_h (fun h ->
                run ~structure:Workload.Rbtree ~n_locks:locks22 ~shifts:2
                  ~hierarchy:h) );
          ( "list shift=2",
            curve p.fig9_h (fun h ->
                run ~structure:Workload.List ~n_locks:locks22 ~shifts:2
                  ~hierarchy:h) );
        ];
    }
  in
  [ Table left; Table middle; Table right ]

(* ------------------------------------------------------------------ *)
(* Figures 10-12: dynamic tuning traces                                *)
(* ------------------------------------------------------------------ *)

let autotune_trace ev p structure =
  trace
    (ev
       (Autotune_cell
          {
            structure;
            size = p.tune_size;
            period = p.tune_period;
            steps = p.tune_steps;
          }))

let trace_table title (steps : Tstm_tuning.Tuner.step list) =
  let n = List.length steps in
  let col f = Array.of_list (List.map f steps) in
  {
    Series.title;
    x_label = "step";
    x = Array.init n (fun i -> float_of_int (i + 1));
    columns =
      [
        ( "log2(locks)",
          col (fun s ->
              float_of_int
                (Tstm_util.Bitops.log2 s.Tstm_tuning.Tuner.config.Config.n_locks)) );
        ( "shifts",
          col (fun s -> float_of_int s.Tstm_tuning.Tuner.config.Config.shifts) );
        ( "h",
          col (fun s ->
              float_of_int s.Tstm_tuning.Tuner.config.Config.hierarchy) );
        ( "throughput k/s",
          col (fun s -> kilo s.Tstm_tuning.Tuner.throughput) );
        ( "move",
          col (fun s ->
              float_of_string
                (Tstm_tuning.Tuner.move_label s.Tstm_tuning.Tuner.move)) );
      ];
  }

let fig10 ev p =
  let tr = autotune_trace ev p Workload.Rbtree in
  [
    Table
      (trace_table
         (Printf.sprintf
            "Fig 10: auto-tuning path, red-black tree, size=%d, 8 threads"
            p.tune_size)
         tr.Scenario.steps);
  ]

let fig11 ev p =
  let tr = autotune_trace ev p Workload.List in
  [
    Table
      (trace_table
         (Printf.sprintf
            "Fig 11: auto-tuning path, linked list, size=%d, 8 threads"
            p.tune_size)
         tr.Scenario.steps);
  ]

let fig12 ev p =
  let tr = autotune_trace ev p Workload.List in
  let n = List.length tr.Scenario.validation_rates in
  [
    Table
      {
        Series.title =
          Printf.sprintf
            "Fig 12: validation locks processed vs skipped, linked list, size=%d, auto-tuning (x10^6/s)"
            p.tune_size;
        x_label = "step";
        x = Array.init n (fun i -> float_of_int (i + 1));
        columns =
          [
            ( "processed M/s",
              Array.of_list
                (List.map
                   (fun (pr, _) -> pr /. 1e6)
                   tr.Scenario.validation_rates) );
            ( "skipped M/s",
              Array.of_list
                (List.map
                   (fun (_, sk) -> sk /. 1e6)
                   tr.Scenario.validation_rates) );
          ];
      };
  ]

(* ------------------------------------------------------------------ *)
(* Plan / assemble / run                                               *)
(* ------------------------------------------------------------------ *)

let fig_numbers = [ 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12 ]

let describe = function
  | 2 -> "Red-black tree throughput vs threads (3 panels)"
  | 3 -> "Linked list throughput vs threads (3 panels)"
  | 4 -> "Abort rates (tree, list) and large-write-set list throughput"
  | 5 -> "Throughput vs structure size x update rate, 8 threads"
  | 6 -> "Throughput vs #locks x #shifts (tree, list), h=4"
  | 7 -> "Throughput vs #locks x #shifts, STAMP Vacation"
  | 8 -> "Influence of hierarchical-array size h on the locks/shifts surface"
  | 9 -> "Improvement % along each tuning axis (locks, shifts, h)"
  | 10 -> "Hill-climbing auto-tuning path, red-black tree"
  | 11 -> "Hill-climbing auto-tuning path, linked list"
  | 12 -> "Validation locks processed vs skipped under auto-tuning"
  | _ -> "unknown figure"

let build ev p = function
  | 2 -> fig2 ev p
  | 3 -> fig3 ev p
  | 4 -> fig4 ev p
  | 5 -> fig5 ev p
  | 6 -> fig6 ev p
  | 7 -> fig7 ev p
  | 8 -> fig8 ev p
  | 9 -> fig9 ev p
  | 10 -> fig10 ev p
  | 11 -> fig11 ev p
  | 12 -> fig12 ev p
  | n -> invalid_arg (Printf.sprintf "Figures: no figure %d" n)

(* The dummy values handed out while planning: builders may compute on them
   (ratios, percentages), but the plan-mode outputs are discarded. *)
let dummy_value = function
  | Intset_cell _ | Vacation_cell _ ->
      Result
        {
          Workload.commits = 0;
          aborts = 0;
          throughput = 0.0;
          abort_rate = 0.0;
          stats = Tstm_tm.Tm_stats.create ();
          elapsed = 0.0;
        }
  | Autotune_cell _ ->
      Trace { Scenario.steps = []; validation_rates = [] }

let plan p n =
  let acc = ref [] in
  let ev cell =
    acc := cell :: !acc;
    dummy_value cell
  in
  ignore (build ev p n);
  Array.of_list (List.rev !acc)

let assemble p n values =
  let next = ref 0 in
  let ev _cell =
    if !next >= Array.length values then
      invalid_arg "Figures.assemble: too few values for plan";
    let v = values.(!next) in
    incr next;
    v
  in
  let out = build ev p n in
  if !next <> Array.length values then
    invalid_arg "Figures.assemble: too many values for plan";
  out

let run_figure p n = assemble p n (Array.map eval_cell (plan p n))
