(** Shared memory and cost charging, called directly by every STM barrier.

    One concrete type covers both runtimes.  On {!Runtime_real}'s domains a
    synchronisation array (lock words, clocks, counters, flags) is a
    [cell array], one boxed atomic cell per word, and a word array (the
    [Vmm] arena's data) is a flat [int array]; a {!Runtime_sim} array of
    either sort is a plain [int array] with its cache model.  The memory
    operations and the cycle clock dispatch on the constructor; the
    thread and cost operations dispatch on {!Sim_sched.inside}, so the
    same call is a charge on a simulated CPU and a no-op on a real
    domain.

    An STM instance picks its runtime once, when it builds its arrays with
    {!make}, {!make_locks} and {!make_words}; from then on every barrier,
    charge and trace stamp is a direct call here, and nothing in the STM
    stack is a functor over the runtime (DESIGN.md §4k).

    {2 Ordering}

    A [Real] access is a sequentially consistent atomic operation.  A
    [Plain] access is an ordinary OCaml load or store, as TinySTM's data
    accesses are plain C loads and stores; it is sound because every STM
    family touches a data word only between two atomic accesses to a lock
    or clock array that order it:

    - TL2 and TinySTM reads load the orec (atomic), then the word (plain),
      then the orec again (atomic), and keep the value only when the two
      orec loads agree.  A writer CASes the orec, stores (plain), then
      releases the orec with a new version (atomic).  TinySTM's
      write-through stores in place and undoes under the same orec.
    - NOrec reads words (plain), then checks its sequence slot (atomic),
      and re-reads after each such check that moved; validation re-reads
      the read set after an atomic sequence load and checks the slot again
      after the scan.  The writer CASes the sequence odd, writes back, then
      sets it even.
    - [Vmm]'s free lists thread next pointers through freed blocks,
      written and read under the size class's spin lock (a CAS acquire,
      an atomic release).

    Under OCaml 5's memory model (Dolan, Sivaramakrishnan and Madhavapeddy,
    PLDI 2018) a non-atomic read returns a write already in the word's
    history and no older than the reader's frontier, and an atomic read
    merges the frontier of the atomic write it reads into the reader's.  So
    a plain load that follows an atomic load of a released orec (or an even
    sequence value) sees at least the values that release published, and a
    plain load that sees a newer writer's store is followed by an atomic
    load that sees that writer's acquisition: the seqlock check of every
    family rejects it exactly as with atomic words.  An [int] store needs no
    write barrier, and an [int] read cannot tear.

    A word array has no read-modify-write: {!cas} and {!fetch_add} raise
    [Invalid_argument] on a [Plain] array and on a [Sim] array made by
    {!make_words}, so misuse fails the same way on both runtimes. *)

type sim = {
  data : int array;
  cache : Cache_model.t;
  p : Cache_model.params;  (** cost parameters read at creation *)
  mutable label : string;  (** contention-attribution name, [""] if none *)
  plain : bool;  (** made by {!make_words}: no read-modify-write *)
}
(** A simulated array.  Built by {!make} or {!make_words} [Simulated]. *)

type cell
(** One word of a [Real] array: a boxed mutable [int] with the layout of
    an [int Atomic.t], read and written only by this module, with the
    sequentially consistent primitives [Stdlib.Atomic] uses.  Unlike
    [int Atomic.t] it is known not to be a float, so indexing a
    [cell array] needs no float-array test. *)

type t = Real of cell array | Sim of sim | Plain of int array
(** A fixed-length array of [int] words shared between threads.  A [Real]
    or [Sim] access is sequentially consistent; a [Plain] access is an
    ordinary load or store, ordered only by the atomic accesses around it
    (see Ordering above). *)

type kind = Simulated | Domains
(** The runtime an array is built for: {!Runtime_sim}'s simulated CPUs or
    {!Runtime_real}'s OCaml domains.  Every array of one STM instance has
    the instance's kind. *)

val make : kind -> int -> int -> t
(** [make kind len init]: a [Sim] array with its own cache-model state,
    priced by the parameters {!configure} has set at this call, or a
    [Real] array of [len] atomic cells.  The simulator numbers cache
    lines in creation order, so the order of [make] calls is part of
    every simulated result. *)

val make_locks : kind -> n_locks:int -> shifts:int -> capacity:int -> t
(** [make_locks kind ~n_locks ~shifts ~capacity]: a lock array of
    [n_locks] stripes, all [0], for an instance whose lock index is
    [(addr lsr shifts) land (n_locks - 1)] over a [Vmm] arena of
    [capacity] words.  The stripes that arena can reach number
    [reach = (capacity lsr shifts) + 1]: every address is at most
    [capacity], so when [reach <= n_locks] no index reaches [reach].
    [Domains] builds [min n_locks reach] cells, so a stripe no address
    maps to costs nothing, as in the paper's flat C array.  [Simulated]
    builds exactly [make Simulated n_locks 0]: the simulator numbers cache
    lines in creation order and the arena is made after the locks, so a
    shorter simulated array would move every later line and change every
    simulated result. *)

val make_words : kind -> int -> int -> t
(** [make_words kind len init]: a data-word array, which never takes a
    read-modify-write.  [Domains] builds a [Plain] [int array];
    [Simulated] builds the same [Sim] array as {!make}, in the same
    creation order with the same cache lines and charges, except that
    {!cas} and {!fetch_add} on it raise [Invalid_argument]. *)

(** {1 The simulator's cost model} *)

val configure : Cache_model.params -> unit
(** Set the cost model for [Simulated] arrays made from now on.  Raises
    [Invalid_argument] on bad parameters. *)

val params : unit -> Cache_model.params
(** The parameters {!make} reads. *)

val cold_caches : unit -> unit
(** Empty every simulated CPU's private cache; {!Runtime_sim.run} calls it
    first so a result depends only on the experiment. *)

(** {1 Memory} *)

val get : t -> int -> int
val set : t -> int -> int -> unit

val cas : t -> int -> int -> int -> bool
(** [cas a i expected desired] atomically replaces [a.(i)] when it equals
    [expected]; returns whether it did.  Raises [Invalid_argument] on an
    array made by {!make_words}. *)

val fetch_add : t -> int -> int -> int
(** [fetch_add a i d] atomically adds [d] and returns the previous value.
    Raises [Invalid_argument] on an array made by {!make_words}. *)

val length : t -> int

val label : t -> string -> unit
(** Name a simulated array for contention attribution in traces (e.g.
    ["locks"]).  A no-op on a [Real] or [Plain] array; never affects
    costs or results. *)

(** On a simulator fiber each access of a [Sim] array charges its base cycle
    cost (a preemption point) plus the contention penalty its cache model
    finds at the instant it executes; outside a run it is free.  A [Real]
    access is the corresponding [Stdlib.Atomic] primitive, a [Plain] one
    a plain load or store. *)

(** {1 Clock} *)

val now_cycles : t -> int
(** The trace clock of [a]'s runtime, chosen by its constructor, never by
    the caller: a [Sim] array reads the calling fiber's virtual cycles,
    [0] outside a simulated run; a [Real] or [Plain] one reads monotonic
    nanoseconds.
    Any array of an instance stamps that instance's events. *)

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
