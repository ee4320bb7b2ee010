(** Overload-robust transactional service front-end: arrival processes
    feed sessions of requests into bounded per-shard admission queues;
    workers dispatch them as transactions against a registry STM with
    per-request deadlines and retry budgets; a load-shedding policy ladder
    keeps goodput and tail latency bounded when the offered load exceeds
    capacity, and a circuit {!Breaker} contains injected faults.

    One engine serves an instance of either {!Tstm_runtime.Shm.kind}
    ([spec.kind]).  On [Simulated] everything is deterministic from the
    {!spec}: the arrival schedule, the per-request operations, admission,
    dispatch and every verdict replay bit-identically — a simulated run is
    one {!Tstm_exec} job, so `repro serve` output is byte-identical for any
    [--jobs].  On [Domains] the same schedule is served in wall-clock time
    by worker domains; only the interleaving varies between runs.

    {b Request life cycle.}  Each request arrives at an instant of the
    run's clock (virtual on the simulator, wall-clock on domains), targets
    one shard (tenant) and carries a deadline [t_arr + spec.deadline].
    Admission either enqueues it or rejects it: [Tripped] while the
    breaker is open, [Shed] into a full queue (policy-dependent).  A worker
    dequeues up to [batch] requests from one shard at a time and runs each
    as a single transaction; at every attempt boundary (before any
    transactional access, so there is nothing to roll back even when
    irrevocable) the request re-checks its deadline and retry budget and
    fails fast with a typed verdict instead of spinning.

    {b Faults.}  A transaction killed by [Tstm_chaos.Plan.Injected_crash]
    (an armed real-domain fault plan) has rolled back; the request retries
    it within [retry_budget] and ends [Faulted] once the budget is spent.
    An arena [Tm_intf.Capacity] verdict ends it [Faulted] at once.  Every
    such fault feeds the breaker; successes close it again after its calm
    window.  Setup, calibration and the post-run audit run with the plan
    masked: the fault surface is the request path.

    {b Shedding ladder} ({!shed_policy}):
    - [No_shed]: unbounded queue, nothing is ever rejected — under overload
      the queue grows without bound and tail latency blows past the SLO.
    - [Drop_newest]: admission rejects arrivals into a full queue
      ([queue_cap]).
    - [Deadline_aware]: [Drop_newest] plus a hopeless check at dequeue — a
      request already past its deadline is dropped without burning a
      transaction on it.
    - [Serialize_hot]: [Deadline_aware] plus hot-shard serialization — when
      the {!Tstm_runtime.Watchdog} reports a degraded level, or a shard's
      queue exceeds half its cap, only the shard's owner worker
      ([shard mod workers]) may dispatch from it, removing cross-worker
      conflicts on the hot tenant (the request-level analogue of the STM's
      serial-irrevocable escalation). *)

type shed_policy = No_shed | Drop_newest | Deadline_aware | Serialize_hot

val shed_to_string : shed_policy -> string
val shed_of_string : string -> (shed_policy, string) result
val all_sheds : shed_policy list

(** What the service serves. *)
type backend =
  | Intset of Tstm_harness.Workload.structure
      (** one integer-set structure per shard on a shared STM instance;
          linearizability-checkable *)
  | Vacation
      (** multi-tenant reservation service: one {!Tstm_vacation.Vacation}
          manager per shard (tenant), all in one Vmm arena, audited by
          [check_consistency] *)

val backend_to_string : backend -> string
val backend_of_string : string -> (backend, string) result

type spec = {
  stm : string;  (** {!Tstm_tm.Registry} name or alias *)
  kind : Tstm_runtime.Shm.kind;
      (** the instance's runtime: the registry entry's [sim] or [real]
          packaging *)
  cm : string;  (** contention-manager name *)
  backend : backend;
  workers : int;  (** dispatcher threads (simulated CPUs or domains) *)
  shards : int;  (** admission queues / tenants *)
  arrival : Arrival.t;
  overload : float option;
      (** when [Some x], replace the arrival base rate with [x] times the
          calibrated closed-loop capacity (the `--overload 2` CLI form) *)
  session : int;  (** requests per arriving session (>= 1) *)
  pattern : Tstm_harness.Workload.pattern;
      (** skew for both the shard pick and the per-request keys *)
  horizon : float;  (** arrival window, seconds of the run's clock *)
  deadline : float;  (** per-request, seconds of the run's clock *)
  retry_budget : int;
      (** max transaction attempts per request (>= 1), and separately max
          injected crashes it survives *)
  queue_cap : int;  (** per-shard admission bound (ignored by [No_shed]) *)
  batch : int;  (** max requests dequeued from one shard at a time *)
  shed : shed_policy;
  watchdog : bool;  (** simulator only *)
  wd_window : int;
  wd_starve : int;
  wd_calm : int;
  record : bool;
      (** record per-shard operation histories and run the linearizability
          checker after drain (Intset only; ignored for Vacation, which is
          audited by [check_consistency] instead) *)
  san : bool;  (** arm VmmSan around the run (simulator only) *)
  seed : int;
}

val default : spec
(** 4 workers x 4 shards of a simulated list-set service on
    [tinystm-wb]/[backoff]:
    2 ms horizon, Poisson arrivals at 2x calibrated capacity, 0.5 ms
    deadline, budget 8, queue cap 64, batch 4, [Deadline_aware] shedding,
    watchdog off (window 50_000 / ceiling 64 / calm 2 when armed).  Every
    run, whatever its spec, draws keys from 1..128, pre-populates 64 keys
    per shard, issues 20 % updates and spaces a session's requests 20 µs
    apart. *)

val fault_burst : Tstm_chaos.Plan.config
(** The fault plan `repro serve --real --fault-seed` arms: 10 % crashes and
    2 % OOMs, no hangs — dense enough to trip the breaker within one
    arrival window. *)

val validate : spec -> (unit, string) result
(** [Error reason] for a malformed spec: a non-positive count, horizon or
    deadline, a bad overload factor, an unknown STM or contention manager,
    or a [Domains] spec that sets [san] (the sanitizer's tap sees only
    simulated arrays) or [watchdog] (its record is unsynchronised plain
    OCaml; see {!Tstm_runtime.Watchdog}). *)

type report = {
  capacity : float;  (** calibrated closed-loop commits/s *)
  offered : float;  (** resolved mean offered load, requests/s *)
  goodput : float;  (** in-deadline commits/s over the horizon *)
  slo : Tstm_obs.Slo.summary;
  max_depth : int;  (** peak admission-queue depth *)
  hot_dispatches : int;
      (** dispatches taken under hot-shard serialization (owner-only) *)
  wd : Tstm_runtime.Watchdog.snapshot option;
  stats : Tstm_tm.Tm_stats.t;
  violations : string list;
      (** linearizability ([record]) or consistency (Vacation) failures *)
  san_findings : Tstm_san.San.finding list;
  leak_words : int;
      (** [live_words] drift after drain + cleanup (0 = no leak) *)
  elapsed : float;  (** end time on the run's clock *)
  log : (float * Tstm_obs.Slo.verdict * int) array;
      (** completion log: (finish time, verdict, latency cycles) per
          request in finish order — the raw data behind
          {!per_period_metrics} *)
  crash_faults : int;  (** injected crashes caught on the request path *)
  faults_retried : int;  (** of those, retried within the budget *)
  breaker_trips : int;
  breaker_state : Breaker.state;  (** final state *)
}

val failed : report -> bool
(** Violations (including a request without exactly one verdict),
    sanitizer findings or a leak. *)

val cycles_per_second : Tstm_runtime.Shm.kind -> float
(** The clock rate behind {!Tstm_obs.Slo} latency cycles: the simulated
    clock on [Simulated], [1e9] (nanoseconds) on [Domains]. *)

val run_one : spec -> report
(** Calibrate capacity (a short closed-loop run on a fresh instance), then
    run the open-loop service and drain it.  Raises [Invalid_argument] with
    {!validate}'s reason on a malformed spec. *)

val per_period_metrics : periods:int -> report -> Tstm_obs.Metrics.t
(** Bucket the report's completion log into [periods] equal slices of the
    run ([0, elapsed]) — a post-pass, no in-run coordination — and render
    one {!Tstm_obs.Slo} row per slice. *)

val plan :
  seeds:int -> stms:string list -> sheds:shed_policy list -> spec -> spec array
(** Ordered sweep specs: seeds (outer) x stm x shed policy (inner). *)
