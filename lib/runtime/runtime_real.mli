(** The real-hardware implementation of {!Runtime_intf.S}: one OCaml domain
    per thread, atomic cells for synchronisation words and a flat
    [int array] for data words, monotonic wall-clock time, and zero-cost
    charges.  Functionally interchangeable with
    {!Runtime_sim}; used by the wall-clock bench path
    ([Tstm_harness.Bench_real]), the examples, and tests that exercise true
    parallelism.

    {2 Semantics and guarantees}

    - {b Shared arrays.}  Instances of kind [Shm.Domains] build [Shm.Real]
      arrays, [Shm.cell array]s (one boxed atomic cell per word, the
      layout of an [int Atomic.t]), for lock words, clocks and counters,
      a lock array only as long as the stripes the arena can reach
      ({!Shm.make_locks}), and one [Shm.Plain] [int array] for the memory
      arena's data words; the STM barriers access them through {!Shm}
      directly, never through this module.  On a [Real] array [get]/[set]
      are sequentially-consistent atomic loads/stores, [cas] is the
      primitive of [Atomic.compare_and_set], and [fetch_add] the hardware
      fetch-and-add of [Atomic.fetch_and_add] — a single atomic
      read-modify-write, safe as a clock-bump or counter under
      contention.  On a [Plain] array
      [get]/[set] are plain loads/stores, ordered by the atomic accesses
      around them ({!Shm}'s Ordering section), and [cas]/[fetch_add]
      raise [Invalid_argument].
    - {b Thread identity.}  [run] binds each job's id with
      {!Shm.set_real_tid} (a domain-local key) and {!Shm.tid} reads it.
      Ids are [0 .. nthreads-1]; the orchestrating domain is thread 0 and
      worker domains are handed their id with each job, so ids are stable
      within a run and dense across it — they can index per-thread
      descriptor arrays directly.
    - {b Domain pool.}  Worker domains are spawned once and reused across
      [run] calls (parked on a condition variable between jobs), so a
      bench loop of many short timed repetitions does not pay
      [Domain.spawn] per repetition.  The pool grows on demand to the
      largest [nthreads - 1] seen and is joined by an [at_exit] hook.
    - {b Error propagation.}  If any thread body raises, [run] still
      awaits {e every} thread of the run — no domain is left executing a
      stale body into the next run — and then re-raises the first
      exception in thread-id order.  Pool workers survive a raising job
      and are reused.
    - {b Reentrancy.}  [run] is not reentrant and must be called from one
      orchestrating thread at a time ([Invalid_argument] otherwise).  Code
      {e inside} a run must not call [run].
    - {b Clocks.}  [now] / [now_cycles] read the monotonic clock
      ({!Tstm_obs.Monotonic}, [CLOCK_MONOTONIC]): seconds as [float],
      nanoseconds as [int].  Under this runtime a "cycle" is therefore a
      nanosecond, and STM commit/abort latencies recorded through
      [Tstm_obs.Sink] are wall-clock nanoseconds.
    - {b Costs.}  Off the simulator {!Shm.charge} / {!Shm.charge_local} /
      {!Shm.label} are no-ops: real hardware charges its own cycles.
      {!Shm.yield} is [Domain.cpu_relax], suitable inside spin loops. *)

include Runtime_intf.S

(** {2 For perfbench}

    perfbench's micro-benchmarks build and access an array through these
    names; the code behind them is {!Shm}'s. *)

val sarray_make : int -> int -> Shm.t
(** [Shm.make Domains]. *)

val get : Shm.t -> int -> int
val cas : Shm.t -> int -> int -> int -> bool
val fetch_add : Shm.t -> int -> int -> int
val tid : unit -> int

(** {2 Self-healing runs}

    {!run_healed} is [run] hardened against the faults a
    {!Tstm_chaos.Plan} injects: it dispatches {e all} [nthreads] jobs to
    pool domains and keeps the orchestrating domain as a supervisor that
    polls worker heartbeats.  A job that dies of
    [Tstm_chaos.Plan.Injected_crash] is healed — the worker is shut down
    and joined, a fresh domain replaces it in the pool, and the job is
    requeued (bounded by [max_requeues], after which the crash propagates) —
    while a worker whose heartbeat goes stale past [hang_timeout_s] is
    flagged hung and flagged again when it recovers (detection is advisory:
    injected hangs are bounded spins that resume on their own, and domains
    cannot be safely killed).  Any other exception is awaited like [run]
    (every job finishes first) and re-raised first-in-thread-id-order. *)

(** What the supervisor healed during one {!run_healed}. *)
type heal_report = {
  crashes_healed : int;  (** workers respawned after an injected crash *)
  hangs_detected : int;  (** stale-heartbeat flags raised *)
  hangs_recovered : int;  (** flags cleared (worker resumed or finished) *)
  requeues : int;  (** jobs resubmitted after a heal *)
}

val no_heal : heal_report
(** All-zero report, for callers that ran without healing. *)

val run_healed :
  ?hang_timeout_s:float ->
  ?poll_s:float ->
  ?max_requeues:int ->
  nthreads:int ->
  (int -> unit) ->
  heal_report
(** Defaults: [hang_timeout_s = 0.05], [poll_s = 0.001],
    [max_requeues = 128].  Not reentrant with itself or [run]
    ([Invalid_argument]). *)
