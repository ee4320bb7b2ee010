(** Cache cost model used by the simulated runtime: MESI-like coherence plus
    a finite, 8-way set-associative private cache per CPU.

    Two mechanisms price every access:

    - {b coherence}: per line of each shared array we track the last
      exclusive writer and a sharer bitmask; pulling a line another CPU wrote
      last, or invalidating other copies before a write, pays
      [line_transfer];
    - {b capacity}: each CPU owns a two-level private cache (a small L1
      inside a larger L2), both 8-way set-associative with round-robin
      replacement, over a global line-id space spanning all shared arrays;
      an access that fell out of L1 pays [l1_miss], and a line evicted from
      L2 (capacity or set conflict) must be re-fetched at [line_transfer]
      even when coherence alone would have allowed a hit.  This is what
      gives the paper's [#shifts] parameter its meaning: fewer distinct
      lock-array stripes per transaction keeps the lock metadata inside L1.

    Both are what make the paper's tuning parameters matter: a small lock
    array suffers false sharing and contended invalidations, a large one
    blows the private-cache footprint unless the [#shifts] parameter
    compresses the stripes touched by a traversal, and the global clock
    serialises through its line.

    {b State layout.}  Each CPU's tag stores hold one 32-bit slot per way
    plus a 32-bit round-robin cursor per set (L2 at the default parameters:
    2048 sets x 9 slots x 4 B = 72 KiB per CPU).  Each line of a shared
    array has one 16-byte record: the owner (int8), the word index of the
    last store (int32) and the sharer mask (int64).  So line ids and word
    indices must fit a signed 32-bit slot ({!create} refuses an array that
    would not), and at most {!max_cpus} CPUs take part. *)

type params = {
  clock_ghz : float;  (** converts cycles to seconds (paper machine: 2 GHz) *)
  words_per_line : int;  (** must be a power of two *)
  read_hit : int;  (** cycles: load served by the private cache *)
  write_hit : int;  (** cycles: store to an exclusively-owned resident line *)
  cas_extra : int;  (** additional cycles for CAS / fetch-and-add *)
  l1_lines : int;  (** L1 lines per CPU; a power of two, at least 8 *)
  l1_miss : int;  (** cycles: L1 miss served by the private L2 *)
  line_transfer : int;  (** cycles: remote fetch, invalidation or refill *)
  private_cache_lines : int;
      (** private (L2) lines per CPU; a power of two, at least 8 *)
}

val default : params
(** Costs loosely calibrated to the paper's 8-core 2 GHz Xeon: a 32 KiB L1
    and a 1 MiB private L2 at 64-byte (8-word) lines. *)

val validate : params -> unit
(** Raises [Invalid_argument] on nonsensical parameters. *)

val max_cpus : int
(** 63: one bit per CPU in the 63-bit sharer mask.  CPU ids run from 0 to
    [max_cpus - 1]. *)

type global
(** Process-wide state: the per-CPU tag stores and the line-id allocator. *)

val create_global : params -> global

val reset_tags : global -> unit
(** Empty every CPU's private cache (called at the start of each simulated
    run so results do not depend on what ran before). *)

type t
(** Per-shared-array coherence state, registered in a [global]. *)

val create : global -> int -> t
(** [create g len] for an array of [len] words.  Raises [Invalid_argument],
    before allocating anything, when [len] or the array's last line id
    would not fit a signed 32-bit slot. *)

val set_label : t -> string -> unit
(** Name this array for the observability layer: with a label set and the
    {!Tstm_obs.Sink} enabled, every coherence transfer is attributed per
    line — split into true word conflicts vs. false sharing — and emitted
    as a [Cache_transfer] event.  Unlabelled arrays stay silent.  Labels
    never affect costs. *)

val read_cost : t -> cpu:int -> index:int -> int
(** Cost of a load by [cpu]; updates coherence and tag state. *)

val write_cost : t -> cpu:int -> index:int -> int
(** Cost of a store (or the write half of an atomic) by [cpu]; updates
    coherence and tag state. *)
