(** Chaos stress harness: deterministic seed sweeps with black-box
    serializability checking and failing-schedule shrinking.

    Each run is fully determined by its {!spec}: same spec, bit-identical
    schedule, history and verdict.  A failure therefore travels as a spec;
    [Tstm_exec.Cli.Stress.replay] renders it as the `repro stress`
    invocation that replays it.  Specs and reports are pure data ([Marshal]-safe), so a
    sweep decomposes into independent per-spec jobs ({!plan}) whose reports
    reassemble into the sequential verdict ({!summarize}). *)

type spec = {
  stm : string;  (** {!Tstm_tm.Registry} name or alias *)
  structure : Workload.structure;
  nthreads : int;
  per_thread : int;  (** operations per thread *)
  key_range : int;
  seed : int;  (** plan seed, also salts the per-thread op streams *)
  max_retries : int;  (** 0 = no irrevocable escalation *)
  cm : string;
      (** contention-manager name ({!Tstm_cm.Cm.of_string} form); the
          default ["backoff"] replays historical runs byte-identically *)
  pattern : Workload.pattern;  (** adversarial key/rate pattern *)
  site_limit : int option;  (** cap on fired injection sites (shrinking) *)
  bug : Tstm_chaos.Plan.bug option;  (** deliberate protocol bug to arm *)
  window : int;  (** checker window *)
  san : bool;  (** arm the happens-before sanitizer for the run *)
}

val default : spec

type report = {
  violation : string option;  (** checker diagnostic; [None] = serializable *)
  san_findings : Tstm_san.San.finding list;
      (** sanitizer findings; always [[]] when [spec.san] is false *)
  injected : int;  (** chaos injections fired *)
  decisions : int;
  events : int;  (** operations recorded and checked *)
  commits : int;
  aborts : int;
  escalations : int;
}

val failed : report -> bool
(** A run fails when the checker found a violation or the sanitizer
    reported at least one finding. *)

val run_one : spec -> report
(** One deterministic run: fresh instance (STM resolved through
    {!Tstm_tm.Registry}), chaos plan [seed], random single-op transactions,
    serializability check of the recorded history against the structure's
    final contents. *)

type shrunk = { limit : int; report : report }

val shrink : spec -> report -> shrunk option
(** Given a failing report for [spec], find a small injection-site limit
    that still fails (bisection; the returned limit was re-executed and
    seen to fail).  [None] if the report did not fail or shrinking could
    not reproduce the failure under a site cap. *)

type sweep_result = {
  runs : int;
  total_events : int;
  total_injected : int;
  total_escalations : int;
  total_commits : int;
  total_aborts : int;
  first_failure : (spec * report) option;
}

val plan :
  seeds:int ->
  stms:string list ->
  structures:Workload.structure list ->
  spec ->
  spec array
(** The ordered specs of a sweep over seeds [0..seeds-1] (outer) x STMs x
    structures (inner) — rank order equals sequential execution order. *)

val summarize : (spec * report) array -> sweep_result
(** Fold reports in plan order, truncating after the first failed run —
    the verdict an early-exiting sequential sweep would produce.  Entries
    past the first failure are ignored, so the summary is independent of
    how many in-flight parallel runs completed. *)

val sweep :
  ?on_run:(spec -> report -> unit) ->
  seeds:int ->
  stms:string list ->
  structures:Workload.structure list ->
  spec ->
  sweep_result
(** Run the {!plan} in order, stopping at the first failed run
    (serializability violation or sanitizer finding). *)
