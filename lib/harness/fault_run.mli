(** Seeded fault sweeps on real domains: the `repro fault` driver.

    One run arms a {!Tstm_fault.Fault} plan biased toward a single fault
    kind, drives the paper's transaction mix ({!Driver.step}) on real
    domains under {!Tstm_runtime.Runtime_real.run_healed}, and audits the
    aftermath: the run must complete with no escaped exception (crashes
    healed by respawn-and-requeue, hangs outlived, injected [Out_of_memory]
    absorbed by the STM's allocation-failed retry), the structure must
    drain cleanly, and the arena must return to its pre-populate skeleton
    baseline — zero [live_words] drift.

    Requeued jobs replay their operations from the start, so per-run
    commit counts are not an invariant; the evidence is exception-freedom
    plus allocator- and structure-consistency.  Sweeps are sequential and
    in-process (real domains cannot be forked into {!Tstm_exec} jobs). *)

type spec = {
  stm : string;  (** {!Bench_real} name or alias *)
  kind : Tstm_fault.Fault.kind;  (** the fault kind this plan arms *)
  structure : Workload.structure;
  domains : int;
  per_thread : int;  (** operations per worker job *)
  key_range : int;
  initial_size : int;
  update_pct : float;
  limit : int option;
      (** cap on fired injections (replay a schedule).  [None] means
          unlimited for hang/OOM plans but [4 * domains] for crash plans:
          an uncapped crash storm would kill nearly every replay of a
          requeued job and exhaust the pool's requeue budget. *)
  seed : int;
}

val default : spec
(** [tinystm-wb] hashset, 3 domains x 400 ops, crash kind, seed 42. *)

type report = {
  fired : int;  (** injections fired by the plan *)
  decisions : int;  (** consultations drawn *)
  heal : Tstm_runtime.Runtime_real.heal_report;
  commits : int;
  aborts_alloc : int;  (** allocation-failed aborts absorbed *)
  capacities : int;  (** typed [Capacity] escalations absorbed *)
  leak_words : int;  (** arena drift after drain (0 = healed cleanly) *)
  violations : string list;
  error : string option;  (** escaped exception — healing failed *)
}

val healed : report -> bool
(** No escaped exception, no violations, zero drift. *)

val run_one : spec -> report
(** Raises [Invalid_argument] on malformed specs (unknown STM,
    [domains < 1], ...).  Always disarms the plan before returning. *)

val plan :
  seeds:int ->
  stms:string list ->
  kinds:Tstm_fault.Fault.kind list ->
  spec ->
  spec array
(** Ordered sweep: seeds (outer) x stm x kind (inner). *)
