(** TinySTM tuning configuration (paper §4): the three runtime parameters the
    dynamic tuner searches over, plus the write strategy. *)

type strategy = Write_back | Write_through

val strategy_to_string : strategy -> string

type t = {
  n_locks : int;  (** size ℓ of the lock array; a power of two *)
  shifts : int;  (** address right-shifts before lock hashing (locality) *)
  hierarchy : int;
      (** size h of the hierarchical array; a power of two; 1 = disabled *)
  strategy : strategy;
}

val default : t
(** The paper's production default: 2{^16} locks, 0 shifts, hierarchy
    disabled, write-back. *)

val make :
  ?n_locks:int -> ?shifts:int -> ?hierarchy:int -> ?strategy:strategy ->
  unit -> t
(** [default] with overrides; validated. *)

val validate : t -> unit
(** Raises [Invalid_argument] unless [n_locks] is a power of two in
    [2{^1}, 2{^26}], [shifts] is in [0, 16], [hierarchy] is a power of two
    in [1, 1024] not exceeding [n_locks] (the counter hash must be consistent
    with the lock hash: two addresses on the same lock share a counter). *)

val lock_index : t -> int -> int
(** [(addr lsr shifts) mod n_locks] — per-stripe mapping; consecutive
    stripes of [2{^shifts}] words share a lock. *)

val hier_index : t -> int -> int
(** [(addr lsr shifts) mod hierarchy]; consistent with {!lock_index}. *)


val pp : Format.formatter -> t -> unit
val to_string : t -> string
val equal : t -> t -> bool
