(** The redo-log write set of TL2 and NOrec: parallel address/value
    buffers plus a {!Tstm_util.Bloom} filter.  A lookup charges 3
    simulated cycles for the filter, then {!c_scan} per entry scanned,
    newest first: the bookkeeping TinySTM's design avoids.  The filter is
    charged also while the log is empty; only the real path skips the
    hash then.  Lookups and appends do not allocate once the buffers have
    grown. *)

type t

val create : unit -> t
val clear : t -> unit

val length : t -> int
(** Distinct addresses written. *)

val addr : t -> int -> int
(** [addr t k]: the address of entry [k < length t], in first-write order. *)

val value : t -> int -> int
(** [value t k]: the latest value written to [addr t k]. *)

val c_scan : int
(** Cycles per entry of a linear log scan, TL2's commit-lock scan too. *)

val find : t -> int -> int
(** [find t a]: the entry holding [a], or [-1] when [a] was never
    written. *)

val put : t -> int -> int -> unit
(** [put t a v]: [find t a] then yields [v].  Overwrites the entry of a
    written address, appends otherwise; charges as {!find} and hashes [a]
    once. *)

val write_back : t -> Tstm_runtime.Shm.t -> unit
(** Store every entry into the given words, in first-write order. *)
