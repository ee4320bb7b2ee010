(** Calm-window circuit breaker for the service front-end.

    The request-level analogue of {!Tstm_runtime.Watchdog}'s degradation
    ladder: a burst of typed faults (injected crashes, arena [Capacity])
    within a sliding wall-clock window trips the breaker [Open]; admission
    then rejects arrivals with the [Tripped] verdict until a cooldown has
    passed, after which the breaker goes [Half_open] and lets probe
    requests through; a calm window — [calm] consecutive successful probes
    with no fault — closes it again (a fault while [Half_open] re-opens it
    immediately, restarting the cooldown).

    The type is not thread-safe by itself: the service mutates it only
    under its dispatch mutex, which is also what makes
    "faults-within-window" well-defined. *)

type state = Closed | Open | Half_open

val state_to_string : state -> string
(** ["closed"], ["open"], ["half-open"] — the strings
    {!Tstm_obs.Event.Breaker_trip} carries. *)

type config = {
  fault_threshold : int;  (** faults within [window_s] that trip (>= 1) *)
  window_s : float;  (** sliding fault window, seconds *)
  cooldown_s : float;  (** [Open] duration before probing *)
  calm : int;  (** consecutive [Half_open] successes that close (>= 1) *)
}

val default : config
(** Trip on 5 faults within 50 ms; probe after a 20 ms cooldown; close
    after 8 calm probes. *)

type t

val create : ?on_transition:(state -> unit) -> config -> t
(** [on_transition] fires on every state change, with the new state
    (e.g. to emit {!Tstm_obs.Event.Breaker_trip}).  Raises
    [Invalid_argument] on a non-positive threshold, window, cooldown or
    calm count. *)

val state : t -> state
val trips : t -> int
(** Transitions into [Open] so far (including [Half_open] re-opens). *)

val admit : t -> now:float -> bool
(** Admission decision at time [now] (seconds, any monotonic origin —
    consistent across calls).  [Open] flips to [Half_open] here once the
    cooldown has passed; [Half_open] admits probes. *)

val on_fault : t -> now:float -> unit
(** Record one typed fault.  May trip [Closed] to [Open] (threshold
    reached) or knock [Half_open] back to [Open]. *)

val on_success : t -> now:float -> unit
(** Record one successfully completed request.  [calm] consecutive
    successes while [Half_open] close the breaker and clear the fault
    window. *)
