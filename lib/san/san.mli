(** VmmSan: a FastTrack-style happens-before sanitizer for the simulated
    word memory.

    The bounded-window linearizability checker (PR 2) judges whole
    histories after the fact; this module is the complementary per-access
    oracle: O(1) shadow-state checks at every word access and every STM
    synchronization operation, localising the {e first} suspicious access
    pair instead of a whole bad history.

    {2 Model}

    Each simulated CPU carries a vector clock [C]; the STM operations that
    really synchronize — orec CAS acquire and release, global-clock
    [fetch_add] and read, the quiescence fence, run fork/join — are
    annotated by the STMs' [Tstm_tm.Probe] events and the runtime's tap,
    and maintain release/acquire edges between those clocks.  Every [Vmm]
    word and every lock-array slot carries epoch-compressed shadow state:
    the last writer's [(cpu, clock)] epoch plus a status word (the publish
    version of the committing transaction, {e pending} while a transaction
    is in flight, or {e raw} after a non-transactional store).

    {2 Checks}

    - {b racy pairs}: a non-transactional [Vmm.load]/[store] concurrent
      (not happens-before-ordered) with a transactional access to the same
      word; two transactional writes to the same word not ordered by an
      orec release→acquire edge; a transactional read observing a foreign
      in-flight (pending) write.
    - {b snapshot consistency}: at commit, a logged read superseded by a
      foreign write published at a version inside the committing
      transaction's serialization scope (its write version, or its snapshot
      bound for lock-free commits) — the per-access face of the paper's
      time-based validation argument (§3): this is exactly what the armed
      [skip-validation]/[skip-extension] protocol bugs break.
    - {b lock discipline}: release of a lock the CPU does not hold, double
      acquisition, and orecs still held when a transaction exits
      (orec leak).
    - {b clock discipline}: a commit that publishes a version it never drew
      from the global clock.
    - {b allocator}: any access to a word inside a freed block
      (use-after-free), via the {!Tstm_runtime.Tap} allocation events.

    Readers deliberately carry {e no} happens-before obligation against
    committed writes: a word-based STM with invisible reads is racy at the
    physical level by design (a reader may load a word a committer is about
    to overwrite and then fail validation), so reader-side ordering is
    checked through versions against the snapshot bound, never through raw
    epochs.  That is what keeps the sanitizer free of false positives on
    the correct protocols.

    The sanitizer is process-global, guarded by the probe gate that {!arm}
    and {!disarm} keep up to date, and never charges cycles: disabled runs
    are bit-identical to un-instrumented ones.  One armed scope covers one
    STM instance on the simulated runtime. *)

type kind =
  | Ww_race  (** two transactional writes not ordered by an orec edge *)
  | Raw_race  (** non-transactional access racing a transactional one *)
  | Dirty_read  (** transactional read of a foreign in-flight write *)
  | Stale_read  (** committed read superseded inside the serialization scope *)
  | Read_beyond_snapshot
      (** accepted read of a version newer than the snapshot bound *)
  | Lock_not_held  (** release without acquisition / double release *)
  | Double_acquire
  | Orec_leak  (** lock still held at transaction exit *)
  | Clock_publish  (** commit version never drawn from the global clock *)
  | Use_after_free

val kind_name : kind -> string

type finding = {
  kind : kind;
  cpu : int;  (** CPU that performed the flagged access *)
  other : int;  (** counterpart CPU of the access pair; [-1] if none *)
  label : string;  (** obs contention label of the array, e.g. ["mem"] *)
  addr : int;  (** word address or lock index under [label] *)
  detail : string;  (** rendered (cpu, addr, access-pair) diagnostic *)
}

val render : finding -> string
(** One line: [kind cpu=c mem:addr — detail]. *)

(** {1 Arming} *)

val arm : ?max_findings:int -> ncpus:int -> unit -> unit
(** Reset all shadow state, install the runtime {!Tstm_runtime.Tap} hooks
    and start checking.  [ncpus] bounds the vector clocks (accesses from
    CPUs at or above it are ignored).  At most [max_findings] (default 64)
    findings are retained; later ones are counted but dropped. *)

val disarm : unit -> unit
(** Stop checking and uninstall the tap.  The findings of the last armed
    scope remain readable. *)

val with_armed :
  ?max_findings:int -> ncpus:int -> (unit -> 'a) -> 'a * finding list
(** [with_armed ~ncpus f] runs [f] armed and returns its result with the
    findings, disarming on the way out (exceptions included). *)

val enabled : unit -> bool
(** One boolean load; instrumentation sites gate every other call on it. *)

val findings : unit -> finding list
(** Findings of the current (or last) armed scope, oldest first. *)

val summary : unit -> string
(** One line: finding count by kind, or ["clean"]. *)

(** {1 Sync-edge annotations} — called by [Tstm_tm.Probe] events, gated
    on {!enabled}.  All [cpu] arguments are simulated CPU ids. *)

val tx_begin : cpu:int -> unit
(** A transaction attempt starts (speculative or irrevocable). *)

val read_accept : cpu:int -> addr:int -> unit
(** A transactional read of [addr] was accepted (version validated and the
    value returned to the user). *)

val clock_read : cpu:int -> value:int -> unit
(** The global clock was sampled as the snapshot bound (transaction start
    or snapshot extension): acquires the clock's release history and sets
    the CPU's snapshot bound to [value]. *)

val clock_advance : cpu:int -> drawn:int -> unit
(** The global clock was atomically incremented and [drawn] (the new
    value) will serve as the commit version. *)

val lock_acquire : cpu:int -> lock:int -> unit
(** An orec CAS succeeded. *)

val lock_release : cpu:int -> lock:int -> unit
(** An orec was released (commit or rollback).  Call after the store, in
    the same atomic window. *)

val commit_publish : cpu:int -> wv:int -> unit
(** The transaction commits its writes at version [wv].  Runs the clock
    discipline and snapshot consistency checks and stamps the write set's
    shadow state.  Must be called {e before} the orecs are released (while
    the writes are still protected). *)

val tx_abort : cpu:int -> unit
(** The transaction rolls back: its writes' shadow state is restored.
    Must be called after undo writes and {e before} the orecs are
    released. *)

val tx_exit : cpu:int -> committed:bool -> unit
(** The attempt is over (after lock release): checks for leaked orecs; for
    lock-free commits runs the snapshot consistency check against the
    snapshot bound. *)

(** {2 Global sequence lock (NOrec)}

    Orec-free STMs synchronize through a single global sequence lock: even
    values are timestamps, a committing writer CASes it odd, writes back,
    and publishes the next even value.  These annotations (slot 0 of the
    ["seqlock"] label; called by the probe's seqlock events) carry the
    whole happens-before structure of such an STM: acquire/release edges
    through the lock, plus re-certification of the read set on every
    passed value-based validation — which is what makes value validation
    admissible to this version-based sanitizer without false positives. *)

val seqlock_acquire : cpu:int -> drawn:int -> unit
(** The even→odd commit CAS succeeded; [drawn] is the even version the
    committer will publish at release (checked by {!commit_publish}).
    Checks the lock is free and acquires its release history. *)

val seqlock_release : cpu:int -> unit
(** The committer published the next even value: checks ownership and
    releases the CPU's history into the lock. *)

val seqlock_validate : cpu:int -> value:int -> unit
(** A value-based validation of the whole read set passed against the even
    sequence value [value] (transaction start, a fast-forward snapshot
    extension, or pre-commit revalidation): acquires the lock's release
    history, moves the snapshot bound to [value] and re-certifies every
    logged read at the current shadow state.  Only call after a validation
    that actually ran and passed — the armed protocol bugs must skip it. *)

val thread_park : cpu:int -> unit
(** The CPU lowers its in-transaction fence flag (releases its history to
    a future fence owner). *)

val fence_pass : cpu:int -> unit
(** The CPU observed the fence open and entered (acquires the last fence
    owner's history). *)

val fence_owner_entry : cpu:int -> unit
(** The fence owner observed every flag down: acquires all parked
    histories (quiescence). *)

val fence_owner_exit : cpu:int -> unit
(** The fence owner reopens the fence (releases its history). *)

val rollover : cpu:int -> unit
(** The global clock rolled over inside a fence: published shadow versions
    restart from zero. *)
