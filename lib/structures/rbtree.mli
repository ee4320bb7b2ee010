(** Transactional red-black tree (set and map), the paper's tree benchmark
    (§3.3) and the table substrate of the Vacation workload.

    Iterative CLRS insertion/deletion over word memory with parent pointers;
    update transactions touch O(log n) nodes.  Instead of CLRS's shared nil
    sentinel — which every delete would write, serialising all deletes under
    an STM — the fixup tracks the spliced node's parent explicitly.

    Node layout: [key; value; left; right; parent; color] (6 words). *)

val node_words : int
(** Words per node (6); the root header is one more word. *)

module Make (T : Tstm_tm.Tm_intf.TM) : sig
  type t

  val create : T.t -> t
  (** Allocates the root header (runs its own transaction). *)

  (** {1 Set interface} (keys must avoid [min_int]/[max_int]) *)

  val contains : t -> T.tx -> int -> bool
  val add : t -> T.tx -> int -> bool
  val remove : t -> T.tx -> int -> bool
  (** The removed node is freed transactionally. *)

  val overwrite_upto : t -> T.tx -> int -> int
  (** Rewrite the value of every entry with key < bound, in key order;
      returns how many (Fig. 4's large-write-set operation). *)

  val size : t -> T.tx -> int
  val to_list : t -> T.tx -> int list

  (** {1 Map interface} (used by Vacation) *)

  val insert : t -> T.tx -> int -> int -> bool
  (** [insert t tx k v] binds [k] to [v] if absent; returns whether a node
      was created (an existing binding is left untouched). *)

  val put : t -> T.tx -> int -> int -> unit
  (** Insert or update. *)

  val find_opt : t -> T.tx -> int -> int option
  val bindings : t -> T.tx -> (int * int) list
  (** Key-ordered (key, value) pairs. *)

  (** {1 Testing support} *)

  exception Broken of string

  val check_invariants : t -> T.tx -> int
  (** Verifies BST order, parent pointers, no red-red edges, uniform black
      height and a black root; returns the node count.  Raises {!Broken}. *)
end
