(** The simulated multicore: {!Runtime}'s [Simulated] kind.

    It runs instances of kind [Shm.Simulated], whose arrays are [Shm.Sim]
    and carry a {!Cache_model.t}; every access inside {!run} charges its
    base cycle cost (a preemption point) plus a contention penalty computed
    from the cache-line state at the instant the access executes.  Accesses
    outside [run] (e.g. populating a data structure before the timed phase)
    execute at zero cost.

    The cost parameters are process-global and read when an array is
    created; call {!Shm.configure} before building the experiment state.
    Each [run] starts with cold private caches, and refuses more than
    {!Cache_model.max_cpus} threads with [Invalid_argument] before any
    fiber starts.  Code that holds an instance reaches it through
    {!Runtime}; only the simulated service engine and perfbench name it. *)

(** {!Runtime}'s functions at [kind = Simulated]. *)

val kind : Shm.kind
val run : nthreads:int -> (int -> unit) -> unit
val now : unit -> float
val now_cycles : unit -> int

(** {2 For perfbench}

    perfbench reads these two names and [kind] through this module; the
    code behind them is {!Shm}'s. *)

val params : unit -> Cache_model.params
(** {!Shm.params}. *)

val tid : unit -> int
(** {!Shm.tid}. *)
