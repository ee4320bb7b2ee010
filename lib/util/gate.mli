(** The one switch in front of the STMs' instrumentation: {!on} is [true]
    while any of the observability sink, the chaos plan, the sanitizer or
    the fault plan is armed.  Each system's install/activate/arm function
    reports its state with {!set}; [Tstm_tm.Probe.on] reads {!on}. *)

type system = Sink | Chaos | San | Fault

val set : system -> bool -> unit

val on : unit -> bool
(** One boolean load. *)
