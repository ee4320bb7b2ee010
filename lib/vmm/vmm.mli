(** Virtual word memory: the address space the STM manages.

    The paper's STM covers raw process memory and hashes *addresses* to a
    lock array; under a compacting GC there are no stable word addresses, so
    this module provides the sound equivalent: a flat arena of shared [int]
    words in which an address is an index.  The two properties TinySTM's
    tuning parameters rely on are preserved exactly:

    - address arithmetic: the lock hash [(addr lsr shifts) mod locks]
      operates on the integer address, so the [#shifts] locality parameter
      behaves as in the paper;
    - spatial locality: the bump allocator hands out adjacent words for
      adjacent allocations, so consecutively allocated structure nodes map to
      nearby lock-array stripes.

    Address 0 is reserved as the null address and never allocated.

    The allocator is thread-safe (per-size-class spin locks over the shared
    arena) and is deliberately *not* transactional: {!Tm_intf.TM}
    implementations wrap {!alloc}/{!free} with their own commit/abort logs to
    give transactional allocation semantics (paper §3.1, Memory
    Management). *)

type t

val create : kind:Tstm_runtime.Shm.kind -> words:int -> t
(** [create ~kind ~words] makes an arena of [kind] with [words] usable
    words.  Raises [Invalid_argument] if [words < 1]. *)

val null : int
(** The reserved null address (0). *)

val capacity : t -> int

val words : t -> Tstm_runtime.Shm.t
(** The backing shared array; the STM reads and writes data through it. *)

val load : t -> int -> int
(** Raw (non-transactional) load; bounds-checked. *)

val store : t -> int -> int -> unit
(** Raw (non-transactional) store; bounds-checked. *)

val alloc : t -> int -> int
(** [alloc t n] returns the base address of [n >= 1] fresh contiguous
    words (contents unspecified).  Raises [Out_of_memory] when the arena is
    exhausted.  Small blocks ([n <= 256]) are recycled through free lists;
    larger blocks are bump-allocated and not recycled. *)

val free : t -> int -> int -> unit
(** [free t addr n] returns the block [addr, n] to the allocator.  The
    caller must pass the same [n] it allocated with.  Raises
    [Invalid_argument] when the block lies (even partly) outside the
    arena, when a recyclable block ([n <= 256]) is already on its size
    class's free list (double free), or when a non-recyclable block
    ([n > 256]) was never allocated, is already freed, or is freed with a
    size different from its allocation (extents of live large blocks are
    tracked).  A double free of a recyclable block under a different size
    class remains undetected. *)

val live_words : t -> int
(** Words currently allocated and not freed (diagnostic). *)

val allocated_since_start : t -> int
(** Total words ever handed out, including recycled ones (diagnostic). *)

(** The arena bound to a runtime module's kind, for perfbench's
    micro-benchmarks (its only caller). *)
module Make (R : sig
  val kind : Tstm_runtime.Shm.kind
end) : sig
  type nonrec t = t

  val create : words:int -> t
  val load : t -> int -> int
  val store : t -> int -> int -> unit
  val alloc : t -> int -> int
  val free : t -> int -> int -> unit
end
