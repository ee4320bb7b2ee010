(** The runtime of an instance's kind: how its threads run and which clock
    the harness reads.  An STM instance picks its runtime at [create] from
    its {!Shm.kind}; the harness reads the same kind back
    ([Tstm_tm.Tm_intf.STM.kind]) and asks this module for that runtime's
    functions: {!Runtime_sim}'s for [Simulated], {!Runtime_real}'s for
    [Domains].  Each function returns the runtime's own function, so a
    caller that applies it once (as [Driver.Make] does) pays no dispatch
    per call. *)

val run : Shm.kind -> nthreads:int -> (int -> unit) -> unit
(** [run kind ~nthreads body] executes [body tid] for [tid] in
    [0..nthreads-1], one thread per (real or simulated) CPU, and returns
    when all have finished.  Calls must not be nested. *)

val now : Shm.kind -> unit -> float
(** Seconds: the calling fiber's virtual time on the simulator, which only
    advances through charges and shared-memory operations; the monotonic
    wall clock on domains. *)

val now_cycles : Shm.kind -> unit -> int
(** Cycle-granularity timestamp for event tracing and recorded histories:
    the calling fiber's virtual cycles on the simulator ([0] outside a
    run), monotonic nanoseconds on domains. *)
