(** Growable flat [int] buffers.

    The STM read and write sets are stored as struct-of-array layouts over
    these buffers: appending must not allocate in the common case, and
    clearing must be O(1), because both happen on every transaction. *)

type t = private { mutable data : int array; mutable len : int }
(** The representation is exposed (read-only outside this module) so the
    compiler knows [t] is a record: reading a [t] out of a [t array] then
    needs no float-array ([Double_array_tag]) check. *)

val create : int -> t
(** [create capacity] with an initial capacity (grown on demand). *)

val length : t -> int
val capacity : t -> int

val push : t -> int -> unit
(** Append one element, growing (doubling) if needed. *)

val get : t -> int -> int
(** Bounds-checked read. *)

val set : t -> int -> int -> unit
(** Bounds-checked write to an existing index [< length]. *)

val clear : t -> unit
(** Forget all elements; capacity is retained. *)

val shrink : t -> int -> unit
(** [shrink t n] truncates to the first [n] elements. Requires [n <= length]. *)

val to_list : t -> int list
(** Snapshot as a list (for tests and debugging). *)
