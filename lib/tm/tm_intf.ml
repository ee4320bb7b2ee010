(** The word-transaction interface.

    Every STM in this repository (TinySTM write-back, TinySTM write-through,
    TL2, NOrec) implements [TM]; every transactional data structure is a
    functor over it.  Addresses are {!Tstm_vmm.Vmm} word addresses ([int],
    0 = null).

    Inside a transaction, user code only ever observes consistent snapshots
    (the time-base guarantees of LSA/TL2); conflicts surface as an internal
    abort exception that {!TM.atomically} catches and retries, so user code
    must let exceptions propagate. *)

(** The tuning parameters every STM instance is created with (paper §4).
    STMs without a given knob ignore it at creation: TL2 has no
    hierarchical array, NOrec has no lock array at all.  Which knobs are
    live is declared by {!capabilities}, not guessed from names. *)
type tuning = {
  n_locks : int;  (** size of the lock array; a power of two *)
  shifts : int;  (** address right-shifts before lock hashing *)
  hierarchy : int;  (** hierarchical-array size; 1 = disabled *)
}

let default_tuning = { n_locks = 1 lsl 16; shifts = 0; hierarchy = 1 }

(** What an STM implementation can actually do, declared by the
    implementation itself and carried through {!Registry}.  Plans, tuners
    and sweeps consult these flags instead of matching on STM names, so a
    new algorithm family slots in without touching the drivers. *)
type capabilities = {
  lock_array : bool;
      (** Has a per-stripe lock/orec array, so the [n_locks]/[shifts]
          knobs are meaningful ([false] for NOrec: one global seqlock). *)
  dynamic_reconfig : bool;
      (** Supports quiescent re-tuning via [configure] (the paper's §4.2
          roll-over fence); [false] makes [configure] a capability error. *)
  read_only_fastpath : bool;
      (** [atomically ~read_only:true] skips read-set maintenance. *)
  snapshot_extension : bool;
      (** Can revalidate and extend its snapshot instead of aborting on
          clock change (LSA extension; NOrec's value-based fast-forward). *)
}

(** Raised by [configure] (and by sweep axes that require a knob) when the
    target STM lacks the capability, e.g. re-tuning TL2 or sweeping the
    lock-array size of NOrec.  [stm] is the canonical name, [capability]
    the record field name, e.g. ["dynamic_reconfig"]. *)
exception Capability_error of { stm : string; capability : string }

let capability_error ~stm ~capability =
  raise (Capability_error { stm; capability })

(** Raised by [atomically] when the arena cannot satisfy a transactional
    allocation: either the allocation-failed abort/retry loop exhausted its
    budget ([retries] consecutive [Out_of_memory] aborts), or the
    allocation failed inside a serial-irrevocable escalation (where nothing
    can be rolled back).  A typed verdict instead of an escaped
    [Out_of_memory]: callers account it (service layer: a [Faulted]
    request) rather than dying. *)
exception Capacity of { stm : string; retries : int }

let () =
  Printexc.register_printer (function
    | Capability_error { stm; capability } ->
        Some
          (Printf.sprintf "STM %S does not support %s (capability error)" stm
             capability)
    | Capacity { stm; retries } ->
        Some
          (Printf.sprintf
             "STM %S out of arena capacity (%d allocation-failed retries)" stm
             retries)
    | _ -> None)

module type TM = sig
  type t
  (** An STM instance bound to a memory arena. *)

  type tx
  (** An active transaction (valid only inside the [atomically] callback). *)

  val name : string
  (** e.g. ["tinystm-wb"], ["tinystm-wt"], ["tl2"]. *)

  val read : tx -> int -> int
  (** [read tx addr] transactional load. *)

  val write : tx -> int -> int -> unit
  (** [write tx addr v] transactional store.  Raises [Invalid_argument] when
      the transaction was started with [~read_only:true]. *)

  val alloc : tx -> int -> int
  (** [alloc tx n] allocates [n] contiguous words; automatically released if
      the transaction aborts (paper §3.1, Memory Management). *)

  val free : tx -> int -> int -> unit
  (** [free tx addr n] frees a block at commit time; a no-op if the
      transaction aborts.  Acquires the covering locks first (a free is
      semantically an update). *)

  val atomically : ?read_only:bool -> t -> (tx -> 'a) -> 'a
  (** Run a transaction, retrying on aborts until it commits.
      [~read_only:true] enables the read-only fast path: no read set is kept
      and commit needs no validation (the incremental snapshot is always
      consistent).  Must not be nested. *)

  val stats : t -> Tm_stats.t
  (** Aggregated statistics over all threads (call while quiescent). *)

  val reset_stats : t -> unit
end

(** What every packaged STM has besides [create]. *)
module type PACKAGE = sig
  include TM

  val family : string
  (** Algorithm family, e.g. ["tinystm"], ["tl2"], ["norec"].  Reports
      group columns by family; several registry entries may share one
      (tinystm-wb and tinystm-wt are both ["tinystm"]). *)

  val capabilities : capabilities
  (** What this implementation can do; see {!capabilities}. *)

  val configure : t -> tuning -> unit
  (** Re-tune a quiescent instance in place (the clock roll-over fence of
      paper §4.2).  Raises {!Capability_error} for STMs whose
      [capabilities.dynamic_reconfig] is [false] (TL2, NOrec). *)

  val live_words : t -> int
  (** Words currently allocated in the instance's arena — the allocator
      diagnostic behind the zero-drift integrity checks (the underlying
      memory handle itself stays hidden).  Call while quiescent. *)
end

(** An STM family's one packaging: the instance picks its runtime at
    [create].  {!Registry} registers it once and binds it to each runtime
    as an {!STM}. *)
module type PACKED = sig
  include PACKAGE

  val create :
    kind:Tstm_runtime.Shm.kind ->
    ?tuning:tuning ->
    ?max_retries:int ->
    ?cm:Tstm_cm.Cm.policy ->
    ?watchdog:Tstm_runtime.Watchdog.t ->
    memory_words:int ->
    unit ->
    t
  (** Build an instance of [kind] over a fresh memory arena.  [tuning]
      defaults to {!default_tuning} (2{^16} locks, no shifts, hierarchy
      disabled) — the paper's production default; knobs the
      implementation lacks are ignored.  [max_retries] (default 0 =
      never) is the retry budget before a transaction escalates to
      serial-irrevocable execution.  [cm] (default {!Tstm_cm.Cm.default}
      = [Backoff]) selects the contention-management policy; the default
      is byte-identical to the historical behaviour.  [watchdog], when
      given, receives commit/abort heartbeats and its degradation level
      overrides [cm] ([Boosted] forces [Karma], [Serialized] forces
      immediate escalation). *)
end

(** A packaged STM bound to one runtime: the {!TM} operations plus
    instance construction and quiescent re-tuning, uniform across
    implementations so harness and CLI code can dispatch through
    {!Registry} instead of matching on names.  Registered as first-class
    modules ([(module Some_stm : STM)]). *)
module type STM = sig
  include PACKAGE

  val kind : Tstm_runtime.Shm.kind
  (** The runtime every instance of this packaging runs on; the harness
      picks [Tstm_runtime.Runtime]'s [run] and clocks from it. *)

  val create :
    ?tuning:tuning ->
    ?max_retries:int ->
    ?cm:Tstm_cm.Cm.policy ->
    ?watchdog:Tstm_runtime.Watchdog.t ->
    memory_words:int ->
    unit ->
    t
  (** {!PACKED.create} at the runtime this packaging is bound to. *)
end
