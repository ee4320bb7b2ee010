(** What differs between the two execution substrates once the STM has
    picked its arrays: how threads are run and which clock the harness
    reads.

    Two implementations exist:

    - {!Runtime_real}: OCaml 5 domains and [Atomic]; wall-clock time; cycle
      charges are no-ops.  Use it to run the STM on real hardware.
    - {!Runtime_sim}: a deterministic virtual-time multicore simulator (one
      effect-handler fiber per simulated CPU, min-virtual-time scheduling and
      a cache-line contention cost model).  Use it to reproduce the paper's
      thread-scaling figures on a single-core machine.

    The STM stack (lib/vmm, lib/tm and the three families) is not
    parameterised over this signature: an instance picks its runtime at
    [create] from its {!kind}, and every access, charge and trace stamp is
    a direct {!Shm} call (DESIGN.md §4k).  The code that produces the
    figures is the same code that runs on real domains.  The harness's
    drivers are functors over it, because [run] and [now] really do differ
    between the runtimes. *)

module type S = sig
  val name : string
  (** Human-readable runtime name, e.g. ["sim"] or ["domains"]. *)

  val kind : Shm.kind
  (** The kind of array, and so of STM instance, this runtime runs. *)

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
