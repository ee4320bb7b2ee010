(** Summary statistics over float samples (used by the harness to aggregate
    repeated throughput measurements). *)

type summary = {
  n : int;
  mean : float;
  min : float;
  max : float;
  stddev : float;
}

val summarize : float array -> summary
(** Requires a non-empty array. *)

val mean : float array -> float
val maximum : float array -> float
