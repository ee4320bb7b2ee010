(** Hot-spot RMW storm: the progress-guarantee workload.

    Threads run in pairs hammering the same two words with read-modify-write
    transactions; the two threads of a pair touch the words in {e opposite}
    orders, the classic symmetric-conflict livelock shape.  A contention
    manager with no aborter preference ([suicide]) can shadow-box forever —
    detected by the {!Tstm_runtime.Watchdog} when armed; priority managers
    ([karma], [greedy]) break the symmetry and every thread completes its
    commit quota.

    Deterministic from the spec.  A 2 ms virtual-time deadline bounds
    livelocked runs: past the deadline each thread's next transaction
    attempt raises internally (before touching any transactional state)
    and the thread gives up, so even a zero-progress run terminates and
    reports [completed = false]. *)

type spec = {
  stm : string;  (** {!Tstm_tm.Registry} name or alias *)
  cm : string;  (** contention-manager name, {!Tstm_cm.Cm.of_string} form *)
  nthreads : int;  (** >= 2; odd counts leave the last thread unpaired *)
  quota : int;  (** commits each thread must reach *)
  watchdog : bool;  (** arm the progress watchdog *)
  wd_window : int;  (** watchdog zero-commit window, cycles *)
  wd_starve : int;  (** watchdog per-transaction retry ceiling; 0 disables *)
  wd_calm : int;  (** calm windows before one de-escalation step *)
  seed : int;
}

val default : spec
(** 4 threads on [tinystm-wb] under [suicide], quota 32, watchdog off
    with a 1024-cycle window, retry ceiling 64 and calm window 2 (tight
    enough that the storm's livelock detector, not the starvation
    ceiling, trips first — pinned by a golden test). *)

type report = {
  commits : int array;  (** per-thread commit counts *)
  completed : bool;  (** every thread reached [quota] before the deadline *)
  livelocks : int;  (** watchdog zero-commit windows (0 when unarmed) *)
  starvations : int;  (** watchdog retry-ceiling crossings *)
  switches : int;  (** watchdog degradation-level changes *)
  escalations : int;  (** serial-irrevocable escalations *)
  killed : int;  (** aborts inflicted by priority contention managers *)
  elapsed : float;  (** max per-thread virtual end time *)
}

val run_one : spec -> report
(** One deterministic storm.  Raises [Invalid_argument] for an unknown
    contention-manager name or [nthreads < 2]. *)

val pp_report : Format.formatter -> report -> unit
