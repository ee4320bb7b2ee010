(** The [repro] CLI surface: the cmdliner flag terms its commands parse
    and the drivers that route figures, the ablation sweep and single
    experiment points through the job planner and the multi-process pool.

    Output discipline: deterministic content (figure headers, tables, CSV
    notes) goes to stdout; scheduling-dependent content (progress lines,
    timings, sweep summaries, failure reports) goes to stderr.  stdout is
    therefore byte-identical for any [--jobs] value. *)

(** {1 Flag terms} *)

val profile_arg : Tstm_harness.Figures.profile Cmdliner.Term.t
(** [--profile quick|full]. *)

val jobs_arg : int Cmdliner.Term.t
(** [--jobs N] (default 1). *)

val csv_arg : string option Cmdliner.Term.t
val san_arg : bool Cmdliner.Term.t
val trace_arg : string option Cmdliner.Term.t
val metrics_csv_arg : string option Cmdliner.Term.t
val top_contended_arg : int option Cmdliner.Term.t
val periods_arg : int Cmdliner.Term.t
val structure_arg : Tstm_harness.Workload.structure Cmdliner.Term.t

val stm_arg : string Cmdliner.Term.t
(** Resolves through {!Tstm_tm.Registry} (names and aliases) to the
    canonical name; unknown values list the registered STMs. *)

val size_arg : int Cmdliner.Term.t
val updates_arg : float Cmdliner.Term.t
val overwrites_arg : float Cmdliner.Term.t
val threads_arg : int Cmdliner.Term.t
val duration_arg : float Cmdliner.Term.t
val locks_exp_arg : int Cmdliner.Term.t
val shifts_arg : int Cmdliner.Term.t
val hierarchy_arg : int Cmdliner.Term.t
val seed_arg : int Cmdliner.Term.t

val cm_arg : string Cmdliner.Term.t
(** [--cm CM]: contention-manager name validated through
    {!Tstm_cm.Cm.of_string} and normalised to canonical form; default
    ["backoff"] (the byte-identical historical behaviour). *)

val workload_arg : Tstm_harness.Workload.pattern Cmdliner.Term.t
(** [--workload PATTERN]: adversarial key/rate pattern
    ({!Tstm_harness.Workload.pattern_of_string} forms); default
    [Uniform]. *)

val all_stms_flag : bool Cmdliner.Term.t
(** [--all-stms]: run every registered STM, overriding [--stm]. *)

(** {1 Replayable commands}

    `repro stress`, `storm`, `serve` and `fault` parse their command line
    into an invocation record.  Each flag is declared once, here, and that
    declaration gives both the term and the flag's text on a replay line,
    so a printed repro line parses back to the spec that printed it. *)

module Stress : sig
  type t = {
    spec : Tstm_harness.Stress.spec;
    single : bool;  (** [--seed] given: replay that one seed *)
    seeds : int;
    all_stms : bool;
    all_structures : bool;
    jobs : int;
  }

  val term : t Cmdliner.Term.t

  val replay : Tstm_harness.Stress.spec -> string
  (** The `repro stress ...` line replaying exactly this spec. *)
end

module Storm : sig
  type t = {
    spec : Tstm_harness.Storm.spec;  (** seed 42, cm backoff by default *)
    all_stms : bool;
    expect_livelock : bool;
    jobs : int;
  }

  val term : t Cmdliner.Term.t

  val replay : Tstm_harness.Storm.spec -> string
  (** The `repro storm ...` line replaying exactly this spec. *)
end

module Serve : sig
  type t = {
    spec : Tstm_service.Service.spec;  (** seed defaults to 42 *)
    all_stms : bool;
    all_sheds : bool;
    seeds : int;
    metrics_csv : string option;
    periods : int;
    jobs : int;
    real : bool;
    fault_seed : int option;
    fault_limit : int option;
  }

  val term : t Cmdliner.Term.t
  (** Rejects [--fault-seed]/[--fault-limit] without [--real],
      [--metrics-csv] with more than one run, and, with [--real], every
      simulator-only flag given a non-default value. *)

  val replay : Tstm_service.Service.spec -> string
  (** The `repro serve ...` line replaying exactly this spec. *)
end

module Fault : sig
  type t = {
    spec : Tstm_harness.Fault_run.spec;
    all_kinds : bool;  (** [--kind all] *)
    seeds : int;
    all_stms : bool;
    expect_heal : bool;
  }

  val term : t Cmdliner.Term.t

  val kinds : t -> Tstm_harness.Fault_run.kind list
  (** The kinds to sweep: every kind for [--kind all], else the spec's. *)

  val replay : Tstm_harness.Fault_run.spec -> string
  (** The `repro fault ...` line replaying exactly this spec. *)
end

(** {1 Pooled execution} *)

val execute :
  ?jobs:int ->
  ?timeout:float ->
  ?retries:int ->
  ?sabotage:(rank:int -> attempt:int -> bool) ->
  Plan.t ->
  Plan.result
(** {!Plan.execute} with progress lines, a sweep summary and failure
    reports on stderr. *)

(** {1 CSV output} *)

val save_csv : string -> Tstm_harness.Figures.output -> unit
(** Write one table/surface as [DIR/<sanitized title>.csv]. *)

val ensure_dir : string -> unit

(** {1 Drivers} *)

val run_figures :
  ?csv:string ->
  ?jobs:int ->
  profile:Tstm_harness.Figures.profile ->
  int list ->
  bool
(** Plan the given figures, evaluate all cells on the pool, assemble and
    print each figure in order (CSV per figure under [csv]).  Returns
    [false] — with an incomplete-figure note in place of the missing
    tables — when any cell failed permanently. *)

val run_ablation : ?jobs:int -> unit -> bool
(** The standard cost-model ablation sweep, pooled and printed in plan
    order. *)

val eval_point :
  ?jobs:int -> Job.point -> (Job.point_outcome, string) result
(** Evaluate one experiment point through the planner; rendering is left
    to the caller. *)

val eval_points : ?jobs:int -> Job.point list -> Job.point_outcome option array
(** Evaluate a list of points (the `repro sweep` shape), outcomes in plan
    order; [None] where a point failed permanently. *)

(** {1 Wall-clock bench (real runtime)}

    Flag terms and drivers for [repro real] and [repro compare]: the
    real-hardware benchmark path producing machine-readable
    [BENCH_*.json] snapshots ({!Tstm_obs.Bench}) and the noise-aware
    regression comparator. *)

val real_structure_arg : string Cmdliner.Term.t
(** [--structure STRUCT]: a structure name or ["vacation"]. *)

val domains_arg : int list Cmdliner.Term.t
(** [--domains 1,2,4]: one snapshot cell per domain count. *)

val reps_arg : int Cmdliner.Term.t
val warmup_arg : float Cmdliner.Term.t

val real_duration_arg : float Cmdliner.Term.t
(** [--duration SECONDS]: wall-clock repetition length (default 0.2). *)

val out_arg : string option Cmdliner.Term.t
val observe_flag : bool Cmdliner.Term.t
val threshold_arg : float Cmdliner.Term.t
val report_only_flag : bool Cmdliner.Term.t

val run_bench_real :
  ?out:string ->
  stms:string list ->
  structure:string ->
  domains:int list ->
  pattern:Tstm_harness.Workload.pattern ->
  size:int ->
  update_pct:float ->
  seed:int ->
  duration:float ->
  warmup:float ->
  reps:int ->
  observe:bool ->
  unit ->
  bool
(** Run one cell per (STM, domain count) pair into a single snapshot,
    print the human table on stdout and (with [out]) write the snapshot
    JSON.  Progress and integrity violations go to stderr.  Returns
    [false] when any cell failed or violated an invariant. *)

val run_bench_compare :
  threshold:float ->
  report_only:bool ->
  old_path:string ->
  new_path:string ->
  unit ->
  bool
(** Compare two snapshots ({!Tstm_obs.Bench.compare}) and print the
    verdict on stdout.  Returns [false] when a regression was flagged and
    [report_only] is unset, or when either file fails to load (unreadable,
    malformed, or a newer schema than this binary understands — the
    diagnostic on stderr says which).  With [report_only] set the result
    is always [true]: an informational comparison never fails the run. *)
