(** The one instrumentation call at each linearization point.

    The observability sink, the perturbation plan and the sanitizer watch
    the STMs only through these events; each call site is one line,
    [if Probe.on () then Probe.lock_acquired ~cpu:d.tid d.stats ~lock:li].
    Each event calls the systems that watch its point, in a fixed order,
    each behind its own [enabled]; DESIGN.md §4k tabulates them.  Only a
    plan's [Delay] charges simulated cycles, and sink events are stamped
    after it. *)

val on : unit -> bool
(** One boolean load ({!Tstm_util.Gate.on}): is any hook system armed?
    Top level, outside any functor, so every call site inlines it. *)

(** Where the plan is consulted ({!Tstm_chaos.Plan.point}); a crash or
    hang report names it. *)
type point = Tstm_chaos.Plan.point =
  | Charge
  | Tx_begin
  | Lock_cas
  | Lock_acquired
  | Clock_sample
  | Clock_inc
  | Write_back
  | Clock_read
  | Commit
  | Abort
  | Alloc

type bug = Tstm_chaos.Plan.bug = Skip_extension | Skip_validation

val bug_active : bug -> bool
(** The plan's deliberate protocol bugs, armed apart from the gate. *)

type span
(** Tracing state of one attempt: its start time and counts. *)

val span : unit -> span

(** The events, over the runtime that stamps and charges them, grouped as
    in DESIGN.md §4k; [cpu] and [tid] are the calling thread's id. *)
module Make (R : Tstm_runtime.Runtime_intf.S) : sig
  val perturb : tid:int -> Tm_stats.t -> point -> unit
  (** The plan's decision at a point: a delay is charged; a crash counts,
      is traced and raises [Plan.Injected_crash]; a hang counts, is traced
      and stalls. *)

  val tx_begin : cpu:int -> Tm_stats.t -> unit
  val tx_started : span -> Tm_stats.t -> unit
  val serial_begin : cpu:int -> span -> Tm_stats.t -> unit

  val tx_committed :
    span -> Tm_stats.t -> read_only:bool -> retries:int -> unit

  val tx_aborted : span -> reason:Tm_stats.abort_reason -> retries:int -> unit
  val tx_abort : cpu:int -> unit
  val tx_exit : cpu:int -> committed:bool -> unit
  val escalated : retries:int -> unit

  val oom : unit -> unit
  val watchdog : Tstm_runtime.Watchdog.event -> unit

  val fence_pass : cpu:int -> unit
  val thread_park : cpu:int -> unit
  val fence_owner_entry : cpu:int -> unit
  val fence_owner_exit : cpu:int -> unit

  val clock_read : cpu:int -> value:int -> unit
  val extended : cpu:int -> value:int -> unit
  val clock_advance : cpu:int -> drawn:int -> unit
  val clock_rollover : unit -> unit
  val reconfigured : unit -> unit
  val read_accepted : cpu:int -> addr:int -> unit
  val lock_acquired : cpu:int -> Tm_stats.t -> lock:int -> unit
  val lock_released : cpu:int -> lock:int -> unit
  val commit_publish : cpu:int -> wv:int -> unit
  val serial_publish : cpu:int -> wv:int -> unit

  val seqlock_validate : cpu:int -> value:int -> unit
  val seqlock_acquired : cpu:int -> Tm_stats.t -> drawn:int -> unit
  val seqlock_released : cpu:int -> unit
  val serial_seqlock_acquired : cpu:int -> wv:int -> unit
  val serial_seqlock_released : cpu:int -> unit
end
