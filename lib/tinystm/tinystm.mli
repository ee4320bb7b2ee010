(** TINYSTM — word-based, time-based software transactional memory
    (paper §3), parameterised over the execution runtime.

    The implementation follows the paper's single-version, word-based LSA
    variant: encounter-time locking, invisible reads with incremental
    snapshot extension, a shared-counter global clock with roll-over, both
    write-back and write-through access strategies (selected per instance via
    {!Config.strategy}), transactional memory management, and the
    hierarchical-locking validation fast path of §3.2.

    One deliberate deviation, documented in DESIGN.md: hierarchical counters
    are incremented once per *lock acquisition* rather than once per
    transaction per partition.  The paper's once-per-transaction scheme lets
    a validator skip a partition in which the same transaction later acquired
    a second lock, which can miss a conflict; per-acquisition increments make
    the fast path sound while preserving the tuning trade-off. *)

module Lockenc : module type of Lockenc
module Config : module type of Config
module Hmask : module type of Hmask

module Make (R : Tstm_runtime.Runtime_intf.S) : sig
  module V : module type of Tstm_vmm.Vmm.Make (R)

  type t
  type tx

  val create :
    ?config:Config.t ->
    ?max_threads:int ->
    ?max_clock:int ->
    ?conflict_wait:int ->
    ?max_retries:int ->
    ?cm:Tstm_cm.Cm.policy ->
    ?watchdog:Tstm_runtime.Watchdog.t ->
    memory_words:int ->
    unit ->
    t
  (** Build an STM instance over a fresh memory arena.  [max_clock] (default:
      effectively unbounded) forces the clock roll-over mechanism when the
      global clock reaches it — tests use small values to exercise
      roll-over.  [conflict_wait] (default 0) is the number of bounded
      re-check attempts on encountering a foreign lock before aborting —
      paper §3.1 offers "wait for some time or abort immediately" and picks
      immediate abort, which is our default too.  [max_retries] (default 0 =
      never) is the retry budget: a transaction aborted that many times in a
      row escalates to a serial-irrevocable execution inside the quiescence
      fence — it runs alone, cannot abort, and counts as an escalation in
      {!Tstm_tm.Tm_stats}, so pathological workloads degrade to serial
      execution instead of livelocking.  [cm] (default
      {!Tstm_cm.Cm.default} = [Backoff], byte-identical to the historical
      behaviour) picks the contention-management policy; [Serialize n]
      additionally tightens the retry budget to [n].  [watchdog] arms the
      progress watchdog: commit/abort heartbeats feed it and its degradation
      level overrides [cm] ([Boosted] forces a kill-capable policy,
      [Serialized] forces immediate irrevocable escalation). *)

  val memory : t -> V.t
  (** The underlying word memory (for population and inspection). *)

  val config : t -> Config.t

  val set_config : t -> Config.t -> unit
  (** Re-tune the instance: suspends new transactions, waits for active ones
      to finish (the same quiescence fence as clock roll-over, paper §4.2),
      installs fresh lock/hierarchy arrays, resets the clock, and resumes.
      Must be called outside a transaction; concurrent transactions on other
      threads are safe. *)

  val clock_value : t -> int
  (** Current global clock (diagnostic). *)

  val rollovers : t -> int
  (** Number of clock roll-overs performed so far. *)

  (** {1 The TM interface} *)

  val name : string

  val read : tx -> int -> int
  val write : tx -> int -> int -> unit
  val alloc : tx -> int -> int
  val free : tx -> int -> int -> unit
  val atomically : ?read_only:bool -> t -> (tx -> 'a) -> 'a

  val atomically_stamped : ?read_only:bool -> t -> (tx -> 'a) -> 'a * int
  (** Like {!atomically}, and also returns the transaction's serialization
      timestamp: the commit version [wv] for transactions that acquired
      locks (unique per update), or the snapshot bound [rv] for lock-free
      transactions (which observed exactly the state left by every update
      with timestamp [<= rv]).  Sorting a concurrent history by
      [(timestamp, updates-before-reads)] therefore yields an equivalent
      serial execution — the property the serializability tests replay. *)

  val stats : t -> Tstm_tm.Tm_stats.t
  val reset_stats : t -> unit
end

(** TinySTM packaged as registry {!Tstm_tm.Tm_intf.STM}s over a runtime,
    one per write strategy (["tinystm-wb"], ["tinystm-wt"]; family
    ["tinystm"]): the tuning record maps onto {!Config}, and [configure]
    is {!Make.set_config}.  The harness instantiates them once per runtime
    and registers the results. *)
module Stm : sig
  module Write_back (R : Tstm_runtime.Runtime_intf.S) : Tstm_tm.Tm_intf.STM
  module Write_through (R : Tstm_runtime.Runtime_intf.S) : Tstm_tm.Tm_intf.STM
end
