(** Versioned, machine-readable wall-clock benchmark snapshots
    ([BENCH_*.json]) and the noise-aware regression comparator.

    A snapshot records one Synchrobench-style protocol run — fixed-duration
    timed repetitions after a warmup, per-cell throughput samples with a
    Student-t 95% confidence interval, merged transaction statistics and
    host metadata — keyed by git revision so the repo accumulates a perf
    trajectory ([BENCH_0001.json], [BENCH_0002.json], …) that CI and later
    PRs can diff mechanically.

    This module is pure data (build/serialize/compare); the harness that
    produces cells on real domains is [Tstm_harness.Bench_real]. *)

val schema : string
(** Format tag embedded in every snapshot (["tstm-bench/1"]); {!of_json}
    rejects anything else. *)

(** One timed repetition of one cell. *)
type sample = {
  thr : float;  (** committed transactions per wall-clock second *)
  elapsed_s : float;  (** measured monotonic duration of the repetition *)
  commits : int;
  aborts : int;
}

(** One benchmark cell: an (STM, structure, domain count, workload)
    combination with its repetition samples. *)
type cell = {
  stm : string;
  structure : string;
  domains : int;
  workload : string;  (** {!Tstm_harness.Workload.pattern_to_string} form *)
  size : int;
  update_pct : float;
  samples : sample list;
  stats : Json.t;  (** merged [Tm_stats.to_json] over all repetitions *)
}

type host = {
  cores : int;  (** [Domain.recommended_domain_count] on the runner *)
  ocaml : string;
  os_type : string;
  word_size : int;
  clock_res_ns : int;  (** observed {!Monotonic.resolution_ns} *)
}

type t = {
  rev : string;  (** git revision the snapshot was taken at *)
  created_unix : float;
  duration_s : float;  (** per-repetition measured duration *)
  warmup_s : float;
  reps : int;
  host : host;
  cells : cell list;
}

val cell_mean : cell -> float
(** Mean throughput over the samples ([0.] when empty). *)

val cell_ci95 : cell -> float
(** Half-width of the Student-t 95% confidence interval of the mean
    ([0.] with fewer than two samples). *)

val host : unit -> host
(** Probe the current machine. *)

(** {1 Serialization} — deterministic; see {!Json.to_string}. *)

val to_json : t -> Json.t
val to_string : t -> string
val of_json : Json.t -> (t, string) result
val of_string : string -> (t, string) result
val write : path:string -> t -> unit
val read : path:string -> (t, string) result

(** {1 Regression comparison} *)

type delta = {
  key : string;
  old_mean : float;
  new_mean : float;
  pct : float;  (** [(new - old) / old * 100]; positive = faster *)
  noise : float;  (** combined 95% CI width as a % of the old mean *)
  regression : bool;
}

type verdict = {
  deltas : delta list;  (** cells present in both snapshots, old order *)
  regressions : int;
  missing : string list;  (** cells of the old snapshot absent from the new *)
  added : string list;  (** cells of the new snapshot absent from the old *)
}

val compare :
  ?threshold_pct:float -> old_snap:t -> new_snap:t -> unit -> verdict
(** Match cells by their key ["stm/structure/dN/workload/nSIZE/uPCT"] and
    flag regressions: a cell regresses when the new mean falls below the
    old one by more than the combined 95% confidence intervals {e and} more
    than [threshold_pct] percent (default 10) — so neither measured noise
    nor small drifts trip CI. *)

val render_verdict : verdict -> string
(** Human table: one line per delta, missing/added notes, summary line. *)

val render : t -> string
(** Human table for a single snapshot (the [repro real] stdout report). *)
