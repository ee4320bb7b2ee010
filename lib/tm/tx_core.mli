(** The transaction core shared by every STM family.

    The retry loop, serial-irrevocable escalation, the quiescence fence,
    contention-management prologue/epilogue, watchdog feeding, back-off,
    the hook calls of {!Probe}, the allocation-failed cap, the
    descriptor table, statistics and the transactional alloc/free logs
    exist once, here.  A family (TinySTM, TL2, NOrec) supplies a
    {!PROTOCOL}: only what its algorithm decides — begin-snapshot, commit,
    rollback, serial commit and log cleanup.  Its read/write barriers,
    lock words, validation and extension stay in the family and work on
    the shared descriptor {!tx} directly.

    The order of every shared-memory access is part of each family's
    simulated timing, so the core keeps the order each family had. *)

val c_op : int
(** Fixed bookkeeping cost (cycles) of each barrier, charged in the
    simulated runtime only. *)

val flag_slot : int -> int
(** [flag_slot tid]: the thread's slot in the padded per-thread arrays (the
    fence flags and the contention-management words), one simulated cache
    line apart. *)

val cm_active : cm:Tstm_cm.Cm.policy -> watchdog:'a option -> bool
(** Whether the priority (and remote-kill) plumbing is live: a kill-capable
    policy, or a watchdog that may boost to one.  [false] on the default
    path, where no extra shared word is ever touched. *)

val cm_words : cm_active:bool -> max_threads:int -> int
(** Length of a per-thread contention-management array: one slot per
    thread when active, a single word otherwise. *)

(** A transaction descriptor: one per thread and instance, reused across
    transactions.  ['t] is the family's instance, ['p] its per-thread
    logs and snapshot. *)
type ('t, 'p) tx = {
  owner : 't;
  tid : int;
  stats : Tm_stats.t;
  rng : Tstm_util.Xrand.t;  (** back-off jitter *)
  mutable in_tx : bool;
  mutable read_only : bool;
  mutable irrevocable : bool;
      (** running serially inside the quiescence fence: direct memory
          access, no locks, cannot abort *)
  mutable stamp : int;  (** serialization timestamp of the last commit *)
  mutable eff_cm : Tstm_cm.Cm.policy;  (** effective policy this attempt *)
  mutable work0 : int;  (** reads+writes at the last commit (karma base) *)
  mutable ticket : int;  (** greedy seniority ticket; 0 = none drawn *)
  mutable alloc_fails : int;
      (** consecutive allocation-failed aborts of this [atomically] call *)
  span : Probe.span;  (** tracing only: the attempt's start *)
  a_addr : Tstm_util.Growbuf.t;  (** speculative allocations *)
  a_size : Tstm_util.Growbuf.t;
  f_addr : Tstm_util.Growbuf.t;  (** frees deferred to commit *)
  f_size : Tstm_util.Growbuf.t;
  p : 'p;
}

val log_free : ('t, 'p) tx -> int -> int -> unit
(** [log_free tx addr n] defers freeing the block to the commit; the
    family's [free] barrier calls it after locking the block's words. *)

(** What differs between families.  Each function runs at a fixed point
    of the core's driver:

    - [begin_] after the fence is entered, the contention manager has
      published its priority and [Probe.tx_begin] has run: take the snapshot
      (probing [Probe.clock_read]).  [false] means the clock is exhausted:
      the core leaves the fence, runs [roll_over] inside it and restarts
      the attempt with the same retry count.
    - [commit] after the body returned: validate, publish, release; return
      the serialization stamp ([wv] for updates, the snapshot for
      lock-free commits).  Aborts raise [Abort_exn]; an [Abort_exn
      Rollover] runs [roll_over] instead of back-off.
    - [rollback] after an abort: restore memory and lock words (and
      probe [Probe.tx_abort]); the core then frees speculative
      allocations.
    - [serial_commit] at the end of an escalated, fenced run: draw the
      serialization stamp.
    - [cleanup] drops the family's logs after every exit. *)
module type PROTOCOL = sig
  type t
  (** The family's instance. *)

  type desc
  (** The family's per-thread logs and snapshot. *)

  type mem

  exception Abort_exn of Tm_stats.abort_reason

  val name : string
  (** Family name, e.g. ["tl2"]: the [Capacity] verdict's [stm] and the
      prefix of usage errors. *)

  val rng_seed : int
  (** Back-off jitter seed of thread 0; thread [i] uses [rng_seed + i]. *)

  val memory : t -> mem
  val new_desc : t -> desc
  val begin_ : (t, desc) tx -> bool
  val commit : (t, desc) tx -> int
  val rollback : (t, desc) tx -> unit
  val serial_commit : (t, desc) tx -> int
  val cleanup : desc -> unit
  val roll_over : t -> unit
end

module Make
    (R : Tstm_runtime.Runtime_intf.S)
    (P : PROTOCOL with type mem = Tstm_vmm.Vmm.Make(R).t) : sig
  type nonrec tx = (P.t, P.desc) tx
  type t

  val make :
    P.t ->
    ctl:R.sarray ->
    mode_slot:int ->
    flags:R.sarray ->
    prios:R.sarray ->
    ?kill_flags:R.sarray ->
    max_threads:int ->
    max_retries:int ->
    cm:Tstm_cm.Cm.policy ->
    ?watchdog:Tstm_runtime.Watchdog.t ->
    unit ->
    t
  (** Bundle a family instance with the shared arrays the family created
      (the family owns the creation order: the simulator assigns global
      cache-line ids in [sarray_make] order).  With [kill_flags], every
      attempt clears the thread's flag before publishing its priority.
      [ctl] holds the fence mode word at [mode_slot]; [prios] holds one
      published priority per thread, its slot 0 doubling as the greedy
      ticket counter. *)

  val fam : t -> P.t

  val desc_for : t -> tx
  (** The calling thread's descriptor, created on first use. *)

  val fence_and : t -> (unit -> 'a) -> 'a
  (** Run [f] alone: suspend new transactions, wait for active ones to
      finish, run [f], resume (also when [f] raises). *)

  val atomically : ?read_only:bool -> t -> (tx -> 'a) -> 'a

  val atomically_stamped : ?read_only:bool -> t -> (tx -> 'a) -> 'a * int
  (** Like {!atomically}, and also returns the commit's serialization
      stamp. *)

  val alloc : tx -> int -> int
  val stats : t -> Tm_stats.t
  val reset_stats : t -> unit
end
