(** Real-domain service front-end: the wall-clock sibling of {!Service},
    built for fault-injected runs.

    {!Service} is deterministic because it runs on the simulated runtime's
    cooperative scheduler; that machinery cannot express injected crashes
    of real worker domains, so this module re-implements the dispatch core
    over {!Tstm_runtime.Runtime_real}: the orchestrating domain feeds the
    precomputed arrival schedule ({!Arrival.times} — pure, shared with the
    simulated service) into mutex-protected per-shard admission queues in
    wall-clock time, and [workers] dispatcher domains drain them, running
    each request as one transaction against a shared
    {!Tstm_harness.Bench_real} STM instance (one intset structure per
    shard).

    {b Fault handling.}  A request whose transaction dies of
    [Tstm_fault.Fault.Injected_crash] is retried in place up to
    [fault_budget] attempts; every occurrence feeds the circuit
    {!Breaker}, and a request that exhausts the budget — or hits the typed
    arena [Tm_intf.Capacity] — ends with the {!Tstm_obs.Slo.Faulted}
    verdict.  While the breaker is [Open], arrivals are rejected with
    {!Tstm_obs.Slo.Tripped}; after its cooldown and calm window it closes
    and goodput recovers.  With no fault plan armed the breaker never
    trips and the run behaves like a plain open-loop service.

    {b Integrity.}  After the run the orchestrator masks injection, drains
    every shard (removes each remaining element transactionally) and
    checks the arena against the pre-populate baseline: [leak_words <> 0]
    means some aborted or crashed transaction leaked allocator words. *)

type spec = {
  stm : string;  (** {!Tstm_harness.Bench_real} name or alias *)
  workers : int;  (** dispatcher domains (the orchestrator feeds) *)
  shards : int;  (** admission queues / structures *)
  structure : Tstm_harness.Workload.structure;
  arrival : Arrival.t;  (** requests per wall-clock second *)
  horizon_s : float;  (** arrival window, seconds *)
  deadline_s : float;  (** per-request deadline, seconds *)
  fault_budget : int;  (** injected-crash retries per request (>= 1) *)
  queue_cap : int;  (** per-shard admission bound *)
  seed : int;
}

val default : spec
(** 3 workers x 4 shards of hashsets on [tinystm-wb]: Poisson arrivals at
    20k requests/s for 0.2 s, 10 ms deadline, fault budget 8, queue cap
    256.  Every run, whatever its spec, draws keys from 1..1024,
    pre-populates 128 keys per shard, issues 50 % updates and uses
    {!Breaker.default}. *)

val fault_burst : Tstm_fault.Fault.config
(** The fault plan `repro serve --real --fault-seed` arms: 10 % crashes and
    2 % OOMs, no hangs — dense enough to trip the breaker within one
    arrival window. *)

type report = {
  offered : int;  (** arrivals generated from the schedule *)
  elapsed_s : float;  (** wall-clock run time (arrivals + drain of queues) *)
  goodput : float;  (** in-deadline commits/s over [elapsed_s] *)
  slo : Tstm_obs.Slo.summary;  (** latencies in nanoseconds ("cycles") *)
  crash_faults : int;  (** injected-crash exceptions caught *)
  faults_retried : int;  (** of those, retried within the budget *)
  breaker_trips : int;
  breaker_state : string;  (** final state *)
  leak_words : int;  (** arena drift after drain (0 = no leak) *)
  violations : string list;
  stats : Tstm_tm.Tm_stats.t;
}

val failed : report -> bool
(** Violations or a leak. *)

val run_one : spec -> report
(** Raises [Invalid_argument] on malformed specs (unknown STM,
    [workers < 1], ...). *)
