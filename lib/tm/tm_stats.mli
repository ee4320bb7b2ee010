(** Transaction statistics, shared by every STM implementation.

    Counters are kept per thread inside each STM and aggregated on demand;
    the harness uses them for the abort-rate figures (Fig. 4) and the
    validation fast-path figure (Fig. 12). *)

type abort_reason =
  | Read_conflict  (** read found a lock owned by another transaction *)
  | Write_conflict  (** write found a lock owned by another transaction *)
  | Validation_failed  (** commit-time (or extension) validation failed *)
  | Rollover  (** aborted to participate in a clock roll-over fence *)
  | Killed  (** aborted remotely by a contention manager's kill decision *)
  | Alloc_failed
      (** a transactional allocation raised [Out_of_memory] (arena
          exhaustion or an injected fault); rolled back cleanly and
          retried with backoff, escalating to [Tm_intf.Capacity] after a
          bounded number of consecutive failures *)

val abort_reason_to_string : abort_reason -> string

val retry_hist_buckets : int
(** Number of log2 buckets in {!t.retry_hist} (16). *)

(** One thread's counters.  Mutable, owned by a single thread; aggregate with
    {!add_into} after the threads have quiesced. *)
type t = {
  mutable commits : int;
  mutable commits_read_only : int;  (** subset of [commits] *)
  mutable aborts_read_conflict : int;
  mutable aborts_write_conflict : int;
  mutable aborts_validation : int;
  mutable aborts_rollover : int;
  mutable reads : int;
  mutable writes : int;
  mutable extensions : int;  (** successful snapshot extensions *)
  mutable validations : int;  (** full or partial read-set validations *)
  mutable val_locks_processed : int;  (** read-set locks actually re-checked *)
  mutable val_locks_skipped : int;  (** locks skipped via the hierarchy fast path *)
  mutable escalations : int;
      (** transactions that exhausted their retry budget and committed on the
          serial-irrevocable slow path *)
  mutable backoff_cycles : int;  (** cycles spent in contention back-off *)
  mutable aborts_killed : int;
      (** aborts forced remotely by a kill-capable contention manager *)
  mutable aborts_alloc : int;
      (** aborts from failed transactional allocations ([Alloc_failed]) *)
  mutable faults_crash : int;
      (** injected worker crashes observed by this thread's transactions *)
  mutable faults_hang : int;
      (** injected bounded hangs observed by this thread's transactions *)
  mutable max_retries_seen : int;
      (** worst per-transaction retry count before a commit — the fairness
          headline: a large value with a healthy abort rate means one
          transaction starved *)
  mutable cm_switches : int;
      (** contention-manager policy switches forced by the watchdog *)
  retry_hist : int array;
      (** per-commit retry-count histogram over {!retry_hist_buckets} log2
          buckets: bucket 0 is first-try commits, bucket [k >= 1] covers
          [\[2^(k-1), 2^k)] retries, saturating in the last bucket *)
}

val create : unit -> t
val reset : t -> unit
val aborts : t -> int
(** Total aborts across all reasons. *)

val record_abort : t -> abort_reason -> unit

val record_retries : t -> int -> unit
(** Record, at commit time, how many retries the transaction needed:
    updates [max_retries_seen] and the retry histogram. *)

val add_into : dst:t -> t -> unit
(** Accumulate a thread's counters into an aggregate ([max_retries_seen]
    merges with [max], everything else sums). *)

val copy : t -> t

(** {1 Machine-readable export} *)

val to_json : t -> Tstm_obs.Json.t
(** Every counter as a flat JSON object, [retry_hist] as an array — the
    payload of [BENCH_*.json] snapshot cells and [repro run --stats-json].
    Round-trips through {!of_json}. *)

val of_json : Tstm_obs.Json.t -> (t, string) result
(** Inverse of {!to_json}; [Error] names the first missing or ill-typed
    field.  A [retry_hist] longer than {!retry_hist_buckets} is truncated.
    Fault-era fields ([aborts_alloc], [faults_crash], [faults_hang])
    default to 0 when absent so pre-fault snapshots keep loading. *)

val pp : Format.formatter -> t -> unit
(** Raw counters followed by the derived ratios, so a plain run's stats
    line is self-explanatory. *)
