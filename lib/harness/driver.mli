(** The benchmark thread driver, generic over runtime and STM.

    [run] executes the paper's microbenchmark loop (§3.3) and reports
    throughput and abort statistics.  The optional [control] gives a
    controller callback on thread 0 at fixed period boundaries — the hook
    the dynamic tuner (§4) plugs into; the optional [collector] records one
    metrics row per measurement period for the CSV exporter. *)

module Make
    (R : Tstm_runtime.Runtime_intf.S)
    (T : Tstm_tm.Tm_intf.TM) : sig
  (** A sorted list's finger insert
      ({!Tstm_structures.Intset_list.Make.add_from}). *)
  type finger_add = {
    head : int;  (** the head sentinel's address: a finger for every key *)
    add_from : T.tx -> finger:int -> int -> int option;
        (** [op_add] searching from [finger], a live node; returns the new
            node's address, [None] when the key was present *)
  }

  (** Structure operations bound to one instance (see {!make_structure}). *)
  type ops = {
    op_contains : T.tx -> int -> bool;
    op_add : T.tx -> int -> bool;
    op_remove : T.tx -> int -> bool;
    op_overwrite : T.tx -> int -> int;
    op_size : T.tx -> int;
    op_to_list : T.tx -> int list;
    op_finger_add : finger_add option;
        (** [Some] for lists only: the insert {!populate} uses *)
  }

  val make_structure : T.t -> Workload.structure -> ops
  (** Allocate the requested structure in the instance's memory. *)

  val populate : T.t -> ops -> Workload.spec -> unit
  (** Deterministically fill the structure to [spec.initial_size]: one
      [atomically] per key drawn from the spec's seed, duplicates
      included.  A list inserts each key from its predecessor's node
      ([op_finger_add]), a few reads per draw; the arena, allocations,
      writes and commits are those of [op_add] from the head.  Other
      structures insert with [op_add]. *)

  val drain : T.t -> ops -> unit
  (** Empty the structure: one transaction reads [op_to_list], then one
      transaction per key removes it, in list order.  The post-run audits
      of the service engines and the fault sweep call it, then check size
      and [live_words] themselves. *)

  type thread_ctx
  (** Per-thread workload-pattern context: the key sampler plus this
      thread's role (long-reader span, think-time) under the pattern. *)

  val thread_ctx : Workload.spec -> int -> thread_ctx
  (** [thread_ctx spec tid] builds thread [tid]'s context for the spec's
      pattern. *)

  val thread_seed : Workload.spec -> int -> int
  (** The deterministic per-thread RNG seed the driver's own loops use. *)

  val step :
    T.t ->
    ops ->
    Workload.spec ->
    thread_ctx ->
    Tstm_util.Xrand.t ->
    int option ref ->
    unit
  (** Execute exactly {e one} benchmark transaction of the paper mix
      (lookup / insert-remove pair / overwrite, or the pattern's scan
      role).  The [int option ref] threads the pending-removal key between
      consecutive update transactions; start each thread with [ref None].
      Exposed so external harnesses (the wall-clock bench) can drive the
      same mix under their own timing loop while counting operations:
      one call = one [atomically] = one commit. *)

  val run_recorded :
    ?pattern:Workload.pattern ->
    T.t ->
    ops ->
    nthreads:int ->
    per_thread:int ->
    key_range:int ->
    seed:int ->
    Tstm_chaos.History.t ->
    unit
  (** Chaos-stress loop: each thread runs [per_thread] random
      single-operation transactions (add/remove/contains, keys in
      [1..key_range]) and records each completed operation with its
      invocation/response timestamps into the history for black-box
      serializability checking.  Statistics are reset on entry.
      [pattern] (default [Uniform], the historical stream) contributes key
      skew and per-thread think-time; operations stay single so the checker
      still applies. *)

  (** Periodic controller: thread 0 invokes [on_period idx throughput
      stats] after each of the [n_periods] measurement periods of [period]
      virtual seconds, where [throughput] is the committed transaction rate
      over that period (all threads) and [stats] is the {e cumulative}
      aggregate since the run started.  The callback may re-tune the STM
      (e.g. [Tinystm.set_config]); the next period starts after it
      returns. *)
  type control = {
    period : float;
    n_periods : int;
    on_period : int -> float -> Tstm_tm.Tm_stats.t -> unit;
  }

  val run :
    ?control:control ->
    ?collector:Tstm_obs.Sink.collector ->
    T.t ->
    ops ->
    Workload.spec ->
    Workload.result * Tstm_obs.Metrics.t option
  (** Reset statistics, run [spec.nthreads] workers, and report — the one
      driver entry point.

      Without [control], workers run for [spec.duration] virtual seconds.
      With [control], the run ends after [control.n_periods] controller
      callbacks instead ([spec.duration] is ignored) and the reported
      elapsed time is [period * n_periods].

      With [collector], one {!Tstm_obs.Metrics} row is recorded per
      measurement period (virtual end time, throughput, commit/abort
      breakdown deltas, p50/p99 commit and abort latencies read from
      [collector]'s histograms) and returned as [Some metrics]; the rows
      are recorded before the caller's [on_period] fires.  A [collector]
      without a [control] records a single period spanning the whole
      duration.  The caller is responsible for installing [collector] as
      the active sink — typically via [Tstm_obs.Sink.with_sink] — so the
      latency histograms actually fill. *)
end
