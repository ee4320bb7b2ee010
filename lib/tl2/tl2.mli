(** TL2 (Dice, Shalev, Shavit; DISC 2006) — the baseline the paper compares
    TINYSTM against.  From-scratch reimplementation of the algorithm:

    - commit-time locking: writes are buffered in a per-transaction write set
      (with a Bloom-filter fast reject for read-after-write lookups) and the
      covering locks are acquired only at commit;
    - a global version clock sampled at start ([rv]); reads abort when they
      observe a version newer than [rv] — unlike TinySTM's LSA variant, TL2
      has no snapshot extension;
    - commit: acquire write locks, increment the clock to obtain [wv],
      validate the read set if [wv > rv + 1], write back, release locks
      stamped with [wv].

    Exposes the same {!Tstm_tm.Tm_intf.TM} operations as TinySTM so the
    transactional data structures and the benchmark harness run unmodified on
    either implementation. *)

type t
type tx

val create :
  kind:Tstm_runtime.Shm.kind ->
  ?n_locks:int ->
  ?shifts:int ->
  ?max_threads:int ->
  ?max_retries:int ->
  ?cm:Tstm_cm.Cm.policy ->
  ?watchdog:Tstm_runtime.Watchdog.t ->
  memory_words:int ->
  unit ->
  t
(** An instance of [kind].  [n_locks] must be a power of two (default 2{^16},
    matching the TinySTM default for fair comparisons); [shifts] is the
    address pre-shift of the per-stripe lock mapping (default 0).
    [max_retries] (default 0 = never) is the retry budget after which a
    transaction escalates to a serial-irrevocable execution inside a
    quiescence fence, exactly as in {!Tinystm.create}.  [cm] and [watchdog]
    mirror TinySTM's, with one adaptation to commit-time locking: a locked
    orec always belongs to a finite, unkillable committing transaction, so
    kill-capable policies degenerate to bounded winner-waits / loser-aborts. *)

val memory : t -> Tstm_vmm.Vmm.t
val clock_value : t -> int

val name : string

val read : tx -> int -> int
val write : tx -> int -> int -> unit
val alloc : tx -> int -> int
val free : tx -> int -> int -> unit
val atomically : ?read_only:bool -> t -> (tx -> 'a) -> 'a
val stats : t -> Tstm_tm.Tm_stats.t
val reset_stats : t -> unit
