(** The one switch in front of the STMs' instrumentation: {!on} is [true]
    while any of the observability sink, the perturbation plan or the
    sanitizer is armed.  Each system's install/activate/arm function
    reports its state with {!set}; [Tstm_tm.Probe.on] reads {!on}. *)

type system = Sink | Plan | San

val set : system -> bool -> unit

val on : unit -> bool
(** One boolean load. *)
