(** The simulated-multicore implementation of {!Runtime_intf.S}.

    It runs instances of kind [Shm.Simulated], whose arrays are [Shm.Sim]
    and carry a {!Cache_model.t}; every access inside {!run} charges its
    base cycle cost (a preemption point) plus a contention penalty computed
    from the cache-line state at the instant the access executes.  Accesses
    outside [run] (e.g. populating a data structure before the timed phase)
    execute at zero cost.

    The cost parameters are process-global and read when an array is
    created; call {!Shm.configure} before building the experiment state.
    Each [run] starts with cold private caches. *)

include Runtime_intf.S

(** {2 For perfbench}

    perfbench reads these two names through this module; the code behind
    them is {!Shm}'s. *)

val params : unit -> Cache_model.params
(** {!Shm.params}. *)

val tid : unit -> int
(** {!Shm.tid}. *)
