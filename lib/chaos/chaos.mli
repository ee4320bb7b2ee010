(** Deterministic chaos plan: seeded schedule perturbation and bug injection.

    The simulator ([Tstm_runtime.Runtime_sim]) already produces one fixed
    interleaving per workload — virtual-time ties break FIFO, so whole
    classes of schedules (lock-holder preemption at commit, a writer landing
    mid-snapshot-extension, …) are never exercised.  An active chaos plan
    perturbs that schedule in two ways, both drawn from a single SplitMix64
    stream:

    - {b jitter}: every yielding [Charge] point in [Sim_sched] may receive a
      small extra cycle charge, reordering virtual-time ties;
    - {b preemption}: the STMs' probe events ([Tstm_tm.Probe]) consult
      {!preempt} at the linearization points (lock CAS, clock
      read/increment, commit, abort) and charge the returned cycles,
      forcing descheduling exactly where protocol bugs hide.

    The same [(seed, config, limit)] triple replays bit-identically, so any
    failure found by a seed sweep is reproducible from its printed seed.
    Chaos is meaningful only under the simulated runtime; activating it
    during [Runtime_real] runs is unsupported (the plan state is a single
    unsynchronised stream).

    The plan is process-global; {!activate}/{!deactivate} keep the probe
    gate ([Tstm_util.Gate]) up to date, so an inactive plan costs the STMs
    one branch per point and charges nothing. *)

type config = {
  jitter_pct : float;  (** chance, in percent, that a Charge point jitters *)
  jitter_max : int;  (** max extra cycles added by one jitter *)
  preempt_pct : float;  (** chance, in percent, that a {!preempt} fires *)
  preempt_max : int;  (** max cycles charged by one forced preemption *)
}

val default : config

val activate : ?config:config -> ?limit:int -> seed:int -> unit -> unit
(** Install a plan.  [limit] caps the number of injections that may fire
    (used by the shrinker); omitted means unlimited.  Raises
    [Invalid_argument] on out-of-range percentages. *)

val deactivate : unit -> unit

val with_plan : ?config:config -> ?limit:int -> seed:int -> (unit -> 'a) -> 'a
(** [with_plan ~seed f] runs [f] under an active plan and deactivates it on
    the way out, exceptions included. *)

val enabled : unit -> bool
(** One boolean load; gate every other call on it. *)

val jitter : unit -> int
(** Extra cycles to add at a yielding charge point; [0] when the plan decides
    not to fire (or is inactive). *)

val preempt : unit -> int
(** Cycles the caller should [charge] to simulate an inopportune preemption
    at a linearization point; [0] when not firing. *)

val injected : unit -> int
(** Injections fired so far under the current plan. *)

val decisions : unit -> int
(** Injection decisions drawn so far (fired or not). *)

(** {1 Deliberate protocol bugs}

    Used to demonstrate that the serializability checker catches real STM
    protocol mistakes (acceptance: "a deliberately introduced bug is caught
    by the checker and the printed seed replays the failure").  Armed
    independently of the plan. *)

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
