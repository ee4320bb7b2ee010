(** Single-word Bloom filter over addresses, the write-set filter of
    [Tstm_tm.Redo_log] (paper §3.1: "TL2 uses Bloom filters to avoid
    unnecessary write set traversals").  Two derived hash bits per element
    in a 62-bit word: false positives are possible (they cost a wasted
    write-set search), false negatives are not (that would break
    read-after-write). *)

type t

val create : unit -> t
val clear : t -> unit

val may_contain : t -> int -> bool
(** Never returns [false] for an added address. *)

val check_add : t -> int -> bool
(** [check_add t a] adds [a] and returns what [may_contain t a] answered
    before, hashing [a] once. *)
