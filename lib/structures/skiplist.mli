(** Transactional skip list over word memory.

    Tower heights are a deterministic function of the key (geometric with
    p = 1/2 from a hash), so simulated runs stay bit-reproducible without
    per-thread RNG state.  Node layout: [key; value; level; next_0 ..
    next_{level-1}]. *)

module Make (T : Tstm_tm.Tm_intf.TM) : sig
  type t

  val create : T.t -> t

  val contains : t -> T.tx -> int -> bool
  val add : t -> T.tx -> int -> bool
  val remove : t -> T.tx -> int -> bool

  val overwrite_upto : t -> T.tx -> int -> int
  (** Rewrite every entry with key < bound along level 0; returns the
      count. *)

  val size : t -> T.tx -> int
  val to_list : t -> T.tx -> int list

  exception Broken of string

  val check_invariants : t -> T.tx -> int
  (** Checks that every level is a sorted sub-sequence of level 0 and tower
      heights match node levels; returns the element count. *)
end
