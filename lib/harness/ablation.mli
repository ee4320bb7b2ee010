(** Cost-model ablation sweep: sensitivity of the headline comparison
    (Fig. 3b: list, 256 elements, 20% updates, 8 threads) to the simulator
    cost constants, plus the paper's §3.1 bounded-wait contention
    management and §3.2 hierarchical array.

    Points are pure data and {!run_point} installs the cost model it needs
    before running, so points evaluate independently in any order or
    process — the sweep decomposes into {!Tstm_exec} jobs. *)

type point =
  | Cost of { label : string; params : Tstm_runtime.Cache_model.params }
      (** headline per-family comparison point under altered cost constants *)
  | Conflict_wait of int
      (** bounded wait of [n] attempts on a foreign lock (0 = abort now) *)
  | Hierarchy of int
      (** hierarchical array of size [h] on the validation-heavy list *)

type row =
  | Cost_row of { label : string; cells : (string * float) list }
      (** one throughput cell per registered algorithm family, in
          family-registration order (family name, tx/s) *)
  | Wait_row of { attempts : int; throughput : float; aborts : int }
  | Hierarchy_row of {
      hierarchy : int;
      throughput : float;
      processed : int;  (** validation lock words processed *)
      skipped : int;  (** validation lock words skipped via counters *)
    }

val default_points : point list
(** The standard sweep, in presentation order. *)

val run_point : point -> row
(** Evaluate one point on the simulated runtime (deterministic; configures
    the cost model itself). *)

val point_label : point -> string
(** Short progress-line label. *)

val header : string
(** Section heading printed above the rendered rows. *)

val render : row -> string
(** One output line per row (no trailing newline). *)
