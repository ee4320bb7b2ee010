(** Seeded, count-capped fault injection for real-domain runs.

    The real-hardware sibling of {!Tstm_chaos.Chaos}: worker-domain
    crashes (a distinguished exception raised by [Tstm_tm.Probe]'s fault
    consultation at STM linearization points), bounded worker hangs
    (wall-clock spins that let the pool monitor's heartbeat go stale), and
    probabilistic [Vmm.alloc] [Out_of_memory] injection.

    {b Replay discipline.}  Chaos draws from one RNG stream, which is only
    sound single-threaded.  Here every decision is a stateless hash of
    (seed, tid, per-tid decision index): thread [t]'s [k]-th consultation
    draws the same value in every run, independent of interleaving.  Only
    {e fired} injections claim a slot (one CAS) against [limit], so the
    cap is exact under concurrency, and capping a run at a previous run's
    {!fired} count bounds the replay to that run's injection schedule —
    the same per-thread decisions and the same total fault count, which is
    as much determinism as wall-clock interleaving admits.

    The plan is process-global, like chaos and the obs sink;
    {!activate}/{!deactivate} keep the probe gate ([Tstm_util.Gate]) up to
    date, so a disarmed plan leaves real-domain runs byte-identical. *)

type kind = Crash | Hang | Oom

val kind_name : kind -> string

exception Injected_crash of { tid : int; point : string }
(** The worker-death model: raised from inside a transaction, it unwinds
    through the STM's user-exception path (full rollback: locks released,
    speculative allocations freed) and kills the worker's job, leaving
    shared STM state consistent.  [Runtime_real.run_healed] treats it as a
    dead worker and respawns-and-requeues. *)

type config = {
  crash_pct : float;  (** chance a linearization-point visit crashes *)
  hang_pct : float;  (** chance a linearization-point visit stalls *)
  hang_us : int;  (** upper bound of one injected stall, microseconds *)
  oom_pct : float;  (** chance a [Vmm.alloc] fails with [Out_of_memory] *)
}

val default : config
(** crash 0.5% / hang 0.2% (up to 2ms) / oom 1% per consultation. *)

val enabled : unit -> bool
(** One boolean load; the only cost when disarmed. *)

val activate : ?config:config -> ?limit:int -> seed:int -> unit -> unit
(** Arm a fresh plan (resets masks, heartbeats and counters).  [limit]
    caps the total number of fired injections (default: unlimited).
    Raises [Invalid_argument] on out-of-range percentages. *)

val deactivate : unit -> unit

val with_plan : ?config:config -> ?limit:int -> seed:int -> (unit -> 'a) -> 'a
(** [activate], run, always [deactivate]. *)

(** Decision of one crash/hang consultation. *)
type outcome = Proceed | Crash | Hang of int  (** stall length, ns *)

val at_point : tid:int -> outcome
(** One consultation at a linearization point.  Ticks the tid's heartbeat,
    never raises; the caller ([Tstm_tm.Probe], which names the point)
    records stats/obs and then raises {!Injected_crash} or calls {!hang}. *)

val oom : tid:int -> bool
(** One allocation-failure consultation ([Vmm.alloc] entry); [true] means
    the caller should raise [Out_of_memory] before touching any allocator
    state. *)

val hang : ns:int -> unit
(** Spin for [ns] wall-clock nanoseconds {e without} ticking the heartbeat
    (so the pool monitor can detect the stall). *)

val mask : tid:int -> unit
(** Suspend injection for [tid] (nestable).  Used around the STMs'
    serial-irrevocable escalations, where a fault could not be rolled
    back. *)

val unmask : tid:int -> unit

val tick : tid:int -> unit
(** Stamp [tid]'s heartbeat with the current monotonic time.  Every armed
    consultation ticks implicitly; pool workers tick once at job start. *)

val last_tick : tid:int -> int
(** Monotonic ns of [tid]'s last heartbeat, or [-1] if never ticked. *)

val clear_ticks : unit -> unit

val fired : unit -> int
val decisions : unit -> int
val summary : unit -> string
