(** The execution substrate every other library is parameterised over.

    A [RUNTIME] provides (i) construction of the shared flat [int] arrays —
    the only memory the STM metadata and the virtual word memory live in —
    and (ii) a notion of threads and time.  Two implementations exist:

    - {!Runtime_real}: OCaml 5 domains and [Atomic]; wall-clock time; cycle
      charges are no-ops.  Use it to run the STM on real hardware.
    - {!Runtime_sim}: a deterministic virtual-time multicore simulator (one
      effect-handler fiber per simulated CPU, min-virtual-time scheduling and
      a cache-line contention cost model).  Use it to reproduce the paper's
      thread-scaling figures on a single-core machine.

    The STM algorithms are written once against this signature, so the code
    that produces the figures is the same code that runs on real domains.

    Accessing an array, charging cycles, yielding and asking for the
    thread id are not here: they are the concrete {!Shm} operations, which
    the barriers call directly so that no access goes through the functor
    argument (DESIGN.md §4k).  What remains ties a packaging to its
    runtime: which kind of array [sarray_make] builds, how [run] schedules
    threads, and which clock [now]/[now_cycles] read. *)

module type S = sig
  val name : string
  (** Human-readable runtime name, e.g. ["sim"] or ["domains"]. *)

  type sarray = Shm.t
  (** A fixed-length array of [int] words shared between threads; see
      {!Shm} for its operations. *)

  val sarray_make : int -> int -> sarray
  (** [sarray_make len init]: a [Shm.Sim] array in the simulator, a
      [Shm.Real] one on real hardware. *)

  val run : nthreads:int -> (int -> unit) -> unit
  (** [run ~nthreads body] executes [body tid] for [tid] in [0..nthreads-1],
      one thread per (real or simulated) CPU, and returns when all have
      finished.  Calls must not be nested. *)

  val now : unit -> float
  (** Seconds.  In the simulator this is the calling fiber's virtual time and
      it only advances through charges and shared-memory operations; in the
      real runtime it is the wall clock. *)

  val now_cycles : unit -> int
  (** Cycle-granularity timestamp for event tracing: the calling fiber's
      virtual time in the simulator, wall-clock nanoseconds on real
      hardware.  [0] outside {!run} in the simulator. *)
end
