module Ts = Tinystm
module Tl = Tstm_tl2.Tl2
module No = Tstm_norec.Norec
module Vac = Tstm_vacation.Vacation.Make (Ts)
module Config = Tinystm.Config
module Intf = Tstm_tm.Tm_intf
module Registry = Tstm_tm.Registry

module Sim = struct let kind = Tstm_runtime.Shm.Simulated end

let all_stms = Registry.names ()

let stm_label = Registry.label

(* ------------------------------------------------------------------ *)
(* Experiment entry points                                             *)
(* ------------------------------------------------------------------ *)

let default_locks = Config.default.Config.n_locks

let tuning_of ?(n_locks = default_locks) ?(shifts = 0) ?(hierarchy = 1) () =
  { Intf.n_locks; shifts; hierarchy }

let run_intset ~stm ?n_locks ?shifts ?hierarchy ?cm ?watchdog
    (spec : Workload.spec) =
  let (module M) = Registry.get stm in
  let module D = Driver.Make (M) (M) in
  let tuning = tuning_of ?n_locks ?shifts ?hierarchy () in
  let t =
    M.create ~tuning ?cm ?watchdog
      ~memory_words:(Workload.memory_words_for spec) ()
  in
  let ops = D.make_structure t spec.Workload.structure in
  D.populate t ops spec;
  fst (D.run t ops spec)

let run_intset_observed ~stm ?n_locks ?shifts ?hierarchy ?cm ?watchdog
    ?ring_capacity ~period ~n_periods (spec : Workload.spec) =
  let (module M) = Registry.get stm in
  let module D = Driver.Make (M) (M) in
  let tuning = tuning_of ?n_locks ?shifts ?hierarchy () in
  let collector = Tstm_obs.Sink.collector ?ring_capacity () in
  let t =
    M.create ~tuning ?cm ?watchdog
      ~memory_words:(Workload.memory_words_for spec) ()
  in
  let ops = D.make_structure t spec.Workload.structure in
  D.populate t ops spec;
  (* The sink goes live only for the measured run: population noise stays
     out of the trace, and the previous sink (normally [Null]) comes back
     afterwards even on exceptions. *)
  let result, metrics =
    Tstm_obs.Sink.with_sink (Tstm_obs.Sink.Collect collector) (fun () ->
        D.run
          ~control:
            { D.period; n_periods; on_period = (fun _ _ _ -> ()) }
          ~collector t ops spec)
  in
  (result, collector, Option.get metrics)

let run_vacation ?(n_locks = default_locks) ?(shifts = 0) ?(hierarchy = 1)
    ?(spec = Vac.default_spec) ~nthreads ~duration ~seed () =
  let config = Config.make ~n_locks ~shifts ~hierarchy () in
  let t =
    Ts.create ~kind:Sim.kind ~config ~memory_words:(Vac.memory_words_for spec) ()
  in
  let v = Vac.create t in
  let v = Vac.populate v spec ~seed in
  Ts.reset_stats t;
  let now = Tstm_runtime.Runtime.now Sim.kind in
  Tstm_runtime.Runtime.run Sim.kind ~nthreads (fun tid ->
      let g = Tstm_util.Xrand.create (Tstm_util.Bitops.mix ((seed * 131) + tid)) in
      let t0 = now () in
      while now () -. t0 < duration do
        Vac.client_step v spec g
      done);
  let stats = Ts.stats t in
  let commits = stats.Tstm_tm.Tm_stats.commits in
  let aborts = Tstm_tm.Tm_stats.aborts stats in
  {
    Workload.commits;
    aborts;
    throughput = float_of_int commits /. duration;
    abort_rate = float_of_int aborts /. duration;
    stats;
    elapsed = duration;
  }

type tune_trace = {
  steps : Tstm_tuning.Tuner.step list;
  validation_rates : (float * float) list;
}

let tuning_start =
  (* The paper's evaluation starts tuning from 2^8 locks, shift 0 and a
     disabled hierarchical array (§4.3). *)
  Config.make ~n_locks:(1 lsl 8) ~shifts:0 ~hierarchy:1 ()

module D_ts = Driver.Make (Sim) (Ts)

(* The arena size [Workload.memory_words_for] gave before it followed the
   structure's node size.  Each [set_config] makes new lock arrays after the
   arena, and the simulator numbers cache lines in creation order, so the
   tuner's path (Figs. 10-12) moves with the arena size alone. *)
let autotuned_words (spec : Workload.spec) =
  ((spec.initial_size + (8 * spec.nthreads) + 64) * 24) + 8192

let run_intset_autotuned ?(initial = tuning_start) ?(period = 0.002)
    ?(n_steps = 20) ?(tuner_seed = 0x51ce) (spec : Workload.spec) =
  let words = autotuned_words spec in
  let t = Ts.create ~kind:Sim.kind ~config:initial ~memory_words:words () in
  let ops = D_ts.make_structure t spec.Workload.structure in
  D_ts.populate t ops spec;
  let tuner = Tstm_tuning.Tuner.create ~seed:tuner_seed initial in
  let rates = ref [] in
  let prev_proc = ref 0 and prev_skip = ref 0 in
  let step_proc = ref 0 and step_skip = ref 0 and step_periods = ref 0 in
  let on_period _idx throughput (cum : Tstm_tm.Tm_stats.t) =
    step_proc :=
      !step_proc + (cum.Tstm_tm.Tm_stats.val_locks_processed - !prev_proc);
    step_skip :=
      !step_skip + (cum.Tstm_tm.Tm_stats.val_locks_skipped - !prev_skip);
    prev_proc := cum.Tstm_tm.Tm_stats.val_locks_processed;
    prev_skip := cum.Tstm_tm.Tm_stats.val_locks_skipped;
    incr step_periods;
    match Tstm_tuning.Tuner.record tuner throughput with
    | Tstm_tuning.Tuner.Keep_measuring -> ()
    | Tstm_tuning.Tuner.Reconfigure cfg ->
        let span = float_of_int !step_periods *. period in
        rates :=
          (float_of_int !step_proc /. span, float_of_int !step_skip /. span)
          :: !rates;
        step_proc := 0;
        step_skip := 0;
        step_periods := 0;
        if not (Config.equal cfg (Ts.config t)) then Ts.set_config t cfg
  in
  ignore
    (D_ts.run
       ~control:{ D_ts.period; n_periods = 3 * n_steps; on_period }
       t ops spec);
  {
    steps = Tstm_tuning.Tuner.history tuner;
    validation_rates = List.rev !rates;
  }
