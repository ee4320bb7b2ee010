(** Workload specifications and results for the paper's microbenchmarks.

    A workload runs a fixed thread count against one transactional structure
    for a fixed (virtual) duration.  Transactions are drawn per the paper's
    harness (§3.3): read transactions look up a random key; update
    transactions alternately insert a fresh key and remove the key they last
    inserted (so every update transaction writes); overwrite transactions
    (Fig. 4 right) rewrite every entry up to a random key. *)

type structure = List | Rbtree | Skiplist | Hashset

val structure_to_string : structure -> string
val structure_of_string : string -> structure option

(** Adversarial key/rate patterns (deterministic from the per-thread seed).

    - [Uniform]: the paper's harness — keys uniform in [1, key_range].
    - [Zipf theta]: zipfian key skew with exponent [theta]; higher = more
      contention concentrated on the low keys.
    - [Hotspot n]: 90 % of key draws land on the [n] hottest keys — a
      single-word storm for small [n].
    - [Bimodal span]: even threads run long read-only scan transactions of
      [span] lookups; odd threads run the normal short mix — the classic
      long-reader vs short-writer starvation shape.
    - [Asym f]: odd threads issue transactions [f]× slower (extra local
      think-time), giving per-CPU asymmetric op rates. *)
type pattern =
  | Uniform
  | Zipf of float
  | Hotspot of int
  | Bimodal of int
  | Asym of float

val pattern_to_string : pattern -> string
(** Canonical parseable form: ["uniform"], ["zipf:1.2"], ["hotspot:4"],
    ["bimodal:8"], ["rates:2"]. *)

val pattern_of_string : string -> (pattern, string) result

val key_gen : pattern -> key_range:int -> Tstm_util.Xrand.t -> int
(** Per-thread key sampler.  [Uniform] (and the patterns that keep uniform
    keys) consumes exactly one [Xrand.int] per key — the historical stream,
    so default runs replay byte-identically. *)

val reader_span : pattern -> tid:int -> int
(** Scan length for [tid]'s transactions (0 = run the normal mix). *)

val idle_cycles : pattern -> tid:int -> int
(** Extra local think-time cycles charged between [tid]'s transactions. *)

type spec = {
  structure : structure;
  initial_size : int;
  key_range : int;  (** keys are drawn from [1, key_range] *)
  update_pct : float;
  overwrite_pct : float;
  nthreads : int;
  duration : float;  (** measured seconds (virtual under the simulator) *)
  seed : int;
  pattern : pattern;
}

val default : spec
(** List of 256 elements, range 512, 20 % updates, 4 threads, 5 ms,
    uniform keys. *)

val make :
  ?structure:structure ->
  ?initial_size:int ->
  ?key_range:int ->
  ?update_pct:float ->
  ?overwrite_pct:float ->
  ?nthreads:int ->
  ?duration:float ->
  ?seed:int ->
  ?pattern:pattern ->
  unit ->
  spec
(** [key_range] defaults to twice [initial_size], as in the paper's
    size-preserving harness; [pattern] defaults to [Uniform]. *)

val arena_words : structure -> elements:int -> nthreads:int -> int
(** Arena words for one structure of at most [elements] live elements under
    [nthreads] threads: [(elements + 8 * nthreads + 64) * node_words + 512].
    [node_words] is the structure's node size: 2 for the list and the hash
    set, [Rbtree.node_words] (6) for the red-black tree, and 24 for the skip
    list, whose nodes run up to a 19-word tower.  The [8 * nthreads + 64]
    extra nodes cover the transient overshoot of concurrent inserts (each
    thread's pending insert, aborted attempts' allocations before they are
    reclaimed); the 512 spare words cover the structure's header, the
    largest being the hash set's 65-word bucket array.  This is the one
    sizing rule: every arena that holds a benchmark structure is built from
    it. *)

val memory_words_for : spec -> int
(** [arena_words spec.structure ~elements:spec.initial_size
    ~nthreads:spec.nthreads]: the arena for one populated instance of the
    spec.  On real domains a lock array's reach follows this size, so the
    list and the hash set get 2 words per element, not a skip-list tower's
    24. *)

type result = {
  commits : int;
  aborts : int;
  throughput : float;  (** committed transactions per second *)
  abort_rate : float;  (** aborts per second *)
  stats : Tstm_tm.Tm_stats.t;
  elapsed : float;
}

val pp_result : Format.formatter -> result -> unit
