(** The perturbation plan: one seeded decision per linearization point.

    The simulator ([Tstm_runtime.Runtime_sim]) produces one fixed
    interleaving per workload — virtual-time ties break FIFO, so whole
    classes of schedules (lock-holder preemption at commit, a writer
    landing mid-snapshot-extension, …) are never exercised.  Real domains
    never see a worker die or stall mid-transaction.  An armed plan
    perturbs both: every consumer asks {!at} what happens at its point and
    acts on the {!decision}.

    - [Tstm_runtime.Sim_sched] consults [Charge] at every yielding charge
      and adds a [Delay] to it, reordering virtual-time ties;
    - [Tstm_tm.Probe] consults the STMs' linearization points (lock CAS,
      clock read/sample/increment, commit, abort): it charges a [Delay],
      and a [Crash] or [Hang] counts, is traced and then raises
      {!Injected_crash} or stalls via {!hang};
    - [Tstm_vmm.Vmm.alloc] consults [Alloc] and raises [Out_of_memory] on
      [Oom], before touching any allocator state.

    The armed {!config}'s variant picks the sampler:

    - {b [Sim]} draws every decision from one SplitMix64 stream, at the
      [Charge] point (jitter) and at the linearization points other than
      [Clock_read], [Commit] and [Alloc] (preemption).  That is sound only
      because the simulator is single-threaded under the hood; the plan
      must not be armed around [Runtime_real] runs.
    - {b [Real]} makes every decision a stateless hash of (seed, tid,
      per-tid decision index), at [Clock_read], [Commit], [Abort] (crash
      or hang) and [Alloc] (OOM): thread [t]'s [k]-th decision draws the
      same value in every interleaving.

    At every other point a sampler returns [Proceed] without drawing or
    ticking.  Only {e fired} decisions claim a slot (one CAS) against
    [limit], so the cap is exact under concurrency.  The same
    [(seed, config, limit)] triple replays: bit-identically under the
    simulator, and on real domains as the same per-thread decisions and
    the same number of fired injections.  Capping a run at a previous
    run's {!fired} count bounds the replay to that run's schedule, which
    is what the shrinker in [Tstm_harness.Stress] relies on.

    The plan is process-global, like the obs sink; {!activate} and
    {!deactivate} keep the probe gate ([Tstm_util.Gate]) up to date, so a
    disarmed plan costs the STMs one branch per point and leaves every run
    byte-identical. *)

(** Where a consumer consults the plan. *)
type point =
  | Charge  (** a yielding simulator charge *)
  | Tx_begin  (** an attempt starts *)
  | Lock_cas  (** before an orec or seqlock CAS *)
  | Lock_acquired  (** after that CAS took the lock *)
  | Clock_sample  (** before a snapshot extension samples the clock *)
  | Clock_inc  (** before the commit-time clock increment *)
  | Write_back  (** inside a commit that holds its locks *)
  | Clock_read  (** the attempt's snapshot is taken *)
  | Commit  (** the body ran; the commit starts *)
  | Abort  (** an aborted attempt was rolled back *)
  | Alloc  (** [Vmm.alloc] entry *)

val point_name : point -> string
(** e.g. ["clock-read"], ["commit"], ["abort"], ["alloc"]. *)

type decision =
  | Proceed
  | Delay of int  (** simulated cycles to charge *)
  | Crash  (** raise {!Injected_crash} *)
  | Hang of int  (** stall for this many wall-clock ns *)
  | Oom  (** fail the allocation *)

type sim = {
  jitter_pct : float;  (** chance, in percent, that a [Charge] jitters *)
  jitter_max : int;  (** max extra cycles added by one jitter *)
  preempt_pct : float;  (** chance, in percent, that a preemption fires *)
  preempt_max : int;  (** max cycles charged by one forced preemption *)
}

type real = {
  crash_pct : float;  (** chance a linearization-point visit crashes *)
  hang_pct : float;  (** chance a linearization-point visit stalls *)
  hang_us : int;  (** upper bound of one injected stall, microseconds *)
  oom_pct : float;  (** chance a [Vmm.alloc] fails with [Out_of_memory] *)
}

type config = Sim of sim | Real of real

val sim_default : sim
(** jitter 5% (up to 256 cycles) / preemption 20% (up to 4096 cycles). *)

val real_default : real
(** crash 0.5% / hang 0.2% (up to 2ms) / oom 1% per decision. *)

exception Injected_crash of { tid : int; point : string }
(** The worker-death model: raised from inside a transaction, it unwinds
    through the STM's user-exception path (full rollback: locks released,
    speculative allocations freed) and kills the worker's job, leaving
    shared STM state consistent.  [Runtime_real.run_healed] treats it as a
    dead worker and respawns-and-requeues. *)

val activate : config:config -> ?limit:int -> seed:int -> unit -> unit
(** Arm a fresh plan (resets masks, heartbeats and counters), replacing
    any armed one.  [limit] caps the number of fired decisions (default:
    unlimited).  Raises [Invalid_argument] on an out-of-range config. *)

val deactivate : unit -> unit

val with_plan : config:config -> ?limit:int -> seed:int -> (unit -> 'a) -> 'a
(** [activate], run, always [deactivate]. *)

val enabled : unit -> bool
(** One boolean load; gate every other call on it. *)

val at : point -> tid:int -> decision
(** The one consultation: what thread [tid] does at [point].  Never
    raises; a disarmed plan answers [Proceed]. *)

val hang : ns:int -> unit
(** Spin for [ns] wall-clock nanoseconds {e without} ticking the heartbeat
    (so the pool monitor can detect the stall). *)

val masked : tid:int -> (unit -> 'a) -> 'a
(** Run [f] with the real sampler suspended for [tid] (nestable), also
    when [f] raises.  Used around serial-irrevocable runs and service
    bookkeeping, where a fault could not be rolled back. *)

val tick : tid:int -> unit
(** Stamp [tid]'s heartbeat with the current monotonic time.  Every real
    consultation ticks implicitly; pool workers tick once at job start. *)

val last_tick : tid:int -> int
(** Monotonic ns of [tid]'s last heartbeat, or [-1] if never ticked. *)

val clear_ticks : unit -> unit

val fired : unit -> int
(** Decisions other than [Proceed] under the current plan. *)

val decisions : unit -> int
(** Decisions drawn under the current plan, fired or not. *)

val summary : unit -> string
(** ["fault: seed=… fired=…/… decisions=…"] and the fired count per
    decision kind. *)

(** {1 Deliberate protocol bugs}

    Used to demonstrate that the serializability checker and the
    sanitizer catch real STM protocol mistakes.  Armed independently of
    the plan, so a bug can be armed with or without perturbation. *)

type bug =
  | Skip_extension
      (** TinySTM: snapshot extension blindly succeeds without validating the
          read set — stale reads survive, breaking opacity. *)
  | Skip_validation
      (** Commit-time read-set validation blindly succeeds (TinySTM and
          TL2). *)

val bug_name : bug -> string
val bug_active : bug -> bool
val with_bug : bug option -> (unit -> 'a) -> 'a
