(** Top-level experiment entry points on the simulated runtime: one call per
    (STM implementation, workload) pair.  All the figure drivers build on
    these.

    Every [~stm] argument below is a {!Tstm_tm.Registry} name or alias
    (["tinystm-wb"]/["wb"], ["tinystm-wt"]/["wt"], ["tl2"], ["norec"]). *)

module Ts = Tinystm
module Tl = Tstm_tl2.Tl2
module No = Tstm_norec.Norec
module Vac : module type of Tstm_vacation.Vacation.Make (Ts)

module Sim : sig val kind : Tstm_runtime.Shm.kind end
(** [Simulated], the kind every scenario runs at; a raw [Ts] instance
    built for its own config API is built at it. *)

val all_stms : string list
(** {!Tstm_tm.Registry.names}: the registration block lists each family's
    entries together, so report columns of one family stay adjacent. *)

val stm_label : string -> string
(** Display label, e.g. ["TinySTM-WB"]; raises [Invalid_argument] for
    unknown names. *)

val run_intset :
  stm:string ->
  ?n_locks:int ->
  ?shifts:int ->
  ?hierarchy:int ->
  ?cm:Tstm_cm.Cm.policy ->
  ?watchdog:Tstm_runtime.Watchdog.t ->
  Workload.spec ->
  Workload.result
(** Create a fresh instance with the given tuning parameters (TL2 ignores
    [hierarchy]), build and populate the spec's structure, run the
    workload.  [cm] (default [Backoff], byte-identical to the historical
    behaviour) and [watchdog] select the contention manager and arm the
    progress watchdog. *)

val run_intset_observed :
  stm:string ->
  ?n_locks:int ->
  ?shifts:int ->
  ?hierarchy:int ->
  ?cm:Tstm_cm.Cm.policy ->
  ?watchdog:Tstm_runtime.Watchdog.t ->
  ?ring_capacity:int ->
  period:float ->
  n_periods:int ->
  Workload.spec ->
  Workload.result * Tstm_obs.Sink.collector * Tstm_obs.Metrics.t
(** {!run_intset} under a live observability sink: the measured run (not
    the population phase) records events into a fresh collector and one
    metrics row per measurement period; the previous sink is restored on
    return.  Total measured time is [period * n_periods] virtual seconds.
    Deterministic: same spec and seed give byte-identical traces. *)

val run_vacation :
  ?n_locks:int ->
  ?shifts:int ->
  ?hierarchy:int ->
  ?spec:Vac.spec ->
  nthreads:int ->
  duration:float ->
  seed:int ->
  unit ->
  Workload.result
(** The Vacation benchmark on TinySTM write-back (Fig. 7's subject). *)

(** Trace of an auto-tuned run (Figs. 10-12). *)
type tune_trace = {
  steps : Tstm_tuning.Tuner.step list;
      (** one entry per configuration the tuner measured, in order *)
  validation_rates : (float * float) list;
      (** per configuration step: (locks processed/s, locks skipped/s)
          during read-set validation — the data of Fig. 12 *)
}

val run_intset_autotuned :
  ?initial:Tinystm.Config.t ->
  ?period:float ->
  ?n_steps:int ->
  ?tuner_seed:int ->
  Workload.spec ->
  tune_trace
(** Run the workload while the hill-climbing tuner re-tunes the instance
    every [period] seconds (3 measurement periods per configuration step,
    [n_steps] steps).  [initial] defaults to the paper's evaluation start:
    2{^8} locks, 0 shifts, hierarchy disabled. *)
