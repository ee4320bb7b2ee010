(** Wall-clock benchmark harness on real domains — the producer of
    [Tstm_obs.Bench] snapshot cells.

    Runs the paper's transaction mix ({!Driver.step}) — or the Vacation
    workload — against one long-lived structure under a Synchrobench-style
    protocol: a warmup phase, then [reps] fixed-duration repetitions timed
    with the monotonic clock, each yielding one throughput sample.  With
    [observe] set, a per-domain sharded {!Tstm_obs.Sink} records wall-clock
    commit/abort latency histograms during the timed phases (merged after
    the domains join; the histogram unit is nanoseconds on this runtime).

    Because real-hardware runs are nondeterministic, every run carries its
    own machine-checkable {!integrity} evidence: one counted operation is
    exactly one [atomically], so total commits must equal total operations;
    the intset mix pairs inserts with removals and drains per-thread
    pending keys after the deadline, so the structure must return to its
    populated size and the word allocator to its post-populate baseline
    (Vacation instead runs its transactional consistency audit). *)

val stm_names : string list
(** {!Tstm_tm.Registry.names}: ["tinystm-wb"], ["tinystm-wt"], ["tl2"],
    ["norec"]; the aliases ["wb"] and ["wt"] also resolve. *)

(** A packaged STM bound to real domains: a registry entry's
    [real] field. *)
module type STM = Tstm_tm.Tm_intf.STM

val stms : (string * string list * (module STM)) list
(** Every registry entry as (canonical name, aliases, real-domain
    packaging), in {!stm_names} order. *)

val find_stm : string -> (string * (module STM), string) result
(** Resolve a name or alias through the registry to its canonical name and
    real-domain packaging (shared by the bench cells, the fault sweep
    driver and the real-domain service). *)

type protocol = {
  duration_s : float;  (** length of each timed repetition *)
  warmup_s : float;  (** untimed warmup before the repetitions; 0 = none *)
  reps : int;  (** timed repetitions per cell *)
  observe : bool;  (** record latency histograms via a sharded sink *)
}

(** One benchmark cell to run. *)
type cell_request = {
  stm : string;  (** canonical name or alias; see {!stm_names} *)
  structure : string;  (** a {!Workload.structure} name, or ["vacation"] *)
  domains : int;
  pattern : Workload.pattern;  (** ignored by the Vacation workload *)
  size : int;  (** initial size; relations/customers for vacation *)
  update_pct : float;  (** update share; [reserve_pct] for vacation *)
  seed : int;
}

val default_request : cell_request
(** TinySTM-WB on a 256-element red-black tree, 2 domains, 20 % updates,
    uniform keys. *)

(** Post-run invariant evidence; [violations = []] means every check
    passed. *)
type integrity = {
  ops_total : int;  (** operations executed (each exactly one commit) *)
  commits_total : int;  (** merged [Tm_stats.commits] over the timed reps *)
  violations : string list;
  failed_reps : (int * string) list;
      (** repetitions whose phase raised, as (rep index, exception).  A
          raising worker fails its repetition — it yields no sample and the
          CLI exits non-zero — but never aborts the remaining repetitions:
          the runtime's [run] has already awaited every domain, so the pool
          stays reusable. *)
}

val run_cell :
  cell_request -> protocol -> (Tstm_obs.Bench.cell * integrity, string) result
(** Populate, warm up, run the timed repetitions, check integrity.
    [Error] reports an invalid request (unknown STM or structure,
    non-positive protocol parameters, an observed cell wider than
    {!Tstm_obs.Sink.max_cpus} domains) without running anything. *)

val snapshot :
  rev:string ->
  created_unix:float ->
  protocol ->
  Tstm_obs.Bench.cell list ->
  Tstm_obs.Bench.t
(** Assemble a versioned snapshot from completed cells, probing the host
    metadata. *)
