(** Regeneration of every figure in the paper's evaluation (Figs. 2-12),
    decomposed into independently-evaluable cells.

    A figure is described by a builder that requests experiment {!cell}s
    through an [eval] callback.  [plan] runs the builder once, recording the
    cells it asks for; the cells can then be evaluated in any order (and in
    any process — they are serialisable), and [assemble] replays the builder
    feeding the values back in rank order to produce the printable series.
    [run_figure] is the sequential composition of the three; the
    multi-process sweep runner ([Tstm_exec]) farms the middle step out to
    worker processes and still reassembles byte-identical output.

    A {!profile} scales experiment sizes: [quick] for smoke runs, [full]
    for paper-comparable parameters (several minutes of real time for the
    linked-list surfaces). *)

type profile = {
  label : string;
  dur_tree : float;  (** measurement window for tree/hash workloads (s) *)
  dur_list : float;  (** measurement window for list workloads (s) *)
  threads : int list;  (** thread axis of Figs. 2-4 *)
  fig5_sizes : int list;
  fig5_updates : float list;
  surface_size : int;  (** structure size for Figs. 6/8/9 *)
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

val quick : profile
val full : profile

type output =
  | Table of Tstm_util.Series.table
  | Surface of Tstm_util.Series.surface

val print_output : output -> unit

(** One experiment a figure needs: a pure, serialisable description
    (structural equality and [Marshal]-safe — no closures, no custom
    blocks). *)
type cell =
  | Intset_cell of {
      stm : string;  (** registry name, e.g. ["tinystm-wb"] *)
      n_locks : int;
      shifts : int;
      hierarchy : int;
      hierarchy2 : int;
          (** must be 1 ({!eval_cell} raises [Invalid_argument] otherwise);
              kept only because the frozen benchmark under [perfbench/]
              builds this record *)
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

(** What evaluating a cell yields. *)
type value = Result of Workload.result | Trace of Scenario.tune_trace

val cell_label : cell -> string
(** Short human-readable description (for progress lines). *)

val eval_cell : cell -> value
(** Run one cell on the simulated runtime.  Deterministic: the value
    depends only on the cell.  Autotune traces are memoised process-wide
    (Figs. 11 and 12 share one).  Raises [Invalid_argument] for an
    [Intset_cell] whose [hierarchy2] is not 1. *)

val plan : profile -> int -> cell array
(** The ordered cells figure [n] needs under the given profile. *)

val assemble : profile -> int -> value array -> output list
(** Rebuild figure [n]'s series from the values of its plan, in plan
    order.  Raises [Invalid_argument] if the array length does not match
    the plan. *)

val fig_numbers : int list
(** [2; ...; 12]. *)

val run_figure : profile -> int -> output list
(** [assemble p n (Array.map eval_cell (plan p n))] — runs the experiment
    for one paper figure and returns its series.  Raises
    [Invalid_argument] for unknown figure numbers. *)

val describe : int -> string
(** One-line description of what the figure shows. *)
