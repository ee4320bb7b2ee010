(** Shared memory and cost charging, called directly by every STM barrier.

    One concrete type covers both runtimes: a {!Runtime_real} array is an
    [int Atomic.t array] (one boxed [Atomic] per word), a {!Runtime_sim}
    array is a plain [int array] with its cache model.  The memory
    operations dispatch on the constructor; the thread and cost operations
    dispatch on {!Sim_sched.inside}, so the same call is a charge on a
    simulated CPU and a no-op on a real domain.

    Why this is not reached through the runtime functor argument: without
    flambda, [R.get] in a functor body compiles to [caml_apply2] plus an
    indirect call, and a TinySTM read makes several such accesses.  Only
    construction ([sarray_make]), [run] and the clocks stay on
    {!Runtime_intf.S} (DESIGN.md §4k). *)

type sim = {
  data : int array;
  cache : Cache_model.t;
  p : Cache_model.params;  (** cost parameters read at creation *)
  mutable label : string;  (** contention-attribution name, [""] if none *)
}
(** A simulated array.  Built by {!Runtime_sim.sarray_make}. *)

type t = Real of int Atomic.t array | Sim of sim
(** A fixed-length array of [int] words shared between threads.  All
    accesses behave as sequentially consistent atomic operations. *)

(** {1 Memory} *)

val get : t -> int -> int
val set : t -> int -> int -> unit

val cas : t -> int -> int -> int -> bool
(** [cas a i expected desired] atomically replaces [a.(i)] when it equals
    [expected]; returns whether it did. *)

val fetch_add : t -> int -> int -> int
(** [fetch_add a i d] atomically adds [d] and returns the previous value. *)

val length : t -> int

val label : t -> string -> unit
(** Name a simulated array for contention attribution in traces (e.g.
    ["locks"]).  A no-op on a real array; never affects costs or results. *)

(** On a simulator fiber each access of a [Sim] array charges its base cycle
    cost (a preemption point) plus the contention penalty its cache model
    finds at the instant it executes; outside a run it is free.  A [Real]
    access is the corresponding [Atomic] operation. *)

(** {1 Threads and costs} *)

val tid : unit -> int
(** Id of the calling thread: the fiber's CPU inside a simulator run, the
    id {!Runtime_real} handed the calling domain otherwise; [0] outside any
    run. *)

val set_real_tid : int -> unit
(** Bind the calling domain's id; {!Runtime_real} calls it at job start. *)

val is_simulated : unit -> bool
(** Whether the caller is a simulator fiber. *)

val charge : int -> unit
(** [charge c] accounts [c] cycles of thread-private work.  On a simulator
    fiber this is also a preemption point; elsewhere a no-op. *)

val charge_local : int -> unit
(** Like {!charge} but never a preemption point — for small bookkeeping
    costs where a context switch per call would only slow the simulation
    (interleaving at shared-memory operations is what matters for
    correctness).  A no-op off the simulator. *)

val yield : unit -> unit
(** Give other threads a chance to run (spin-wait back-off): 64 charged
    cycles on a simulator fiber, [Domain.cpu_relax] elsewhere. *)
