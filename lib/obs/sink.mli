(** The process-global event sink the instrumented layers write to.

    The default sink is {!Null}: every instrumentation site guards its work
    with {!enabled} or, in the STMs, the probe gate {!install} keeps up to
    date (a single mutable-bool load), so a run with tracing off is
    indistinguishable — in virtual time and in results — from the untouched
    code.  Installing a {!Collect} sink routes events into per-CPU {!Ring}s,
    latency/retry/set-size {!Histo}s and a {!Contend} table.

    Under the deterministic simulator only one fiber runs at a time, so a
    single {!Collect} collector is race-free.  On real domains it is not:
    {!Sharded} gives every domain its own collector — recording stays plain
    non-atomic arithmetic with no allocation on the hot path — and the
    shards are {!merged} after the domains have joined.

    Emission never charges simulator cycles; a traced simulated run is
    bit-identical to an untraced one. *)

type collector = {
  rings : Ring.t array;  (** per-CPU event rings, indexed by CPU id *)
  contend : Contend.t;  (** cache-line contention attribution *)
  commit_latency : Histo.t;
      (** cycles (wall-clock nanoseconds on the real runtime) from the last
          [Tx_begin] to the commit *)
  abort_latency : Histo.t;  (** cycles wasted by each aborted attempt *)
  retries : Histo.t;  (** aborted attempts preceding each commit *)
  read_set : Histo.t;  (** transactional reads per committed transaction *)
  write_set : Histo.t;  (** transactional writes per committed transaction *)
}

type t =
  | Null
  | Collect of collector
  | Sharded of collector array
      (** one shard per domain id, picked by the [cpu] every emission
          names: each domain records only under its own id, which the
          runtimes guarantee (thread ids index the shards); see
          {!merged} *)

val max_cpus : int

val collector : ?ring_capacity:int -> unit -> collector
(** Fresh, empty collector; [ring_capacity] bounds each per-CPU ring. *)

val merged : collector array -> collector
(** Combine shards into one collector after the writers have quiesced:
    histograms merge, ring [i] is taken from shard [i] (its only writer).
    Call only after the domains have joined. *)

val install : t -> unit
val current : unit -> t
val enabled : unit -> bool

val with_sink : t -> (unit -> 'a) -> 'a
(** Install a sink around [f], restoring the previous one afterwards (also
    on exceptions). *)

(** {1 Emission} — all no-ops under {!Null}. *)

val emit : ts:int -> cpu:int -> Event.t -> unit

val note_commit :
  cpu:int -> lat:int -> retries:int -> reads:int -> writes:int -> unit

val note_abort : cpu:int -> lat:int -> unit
(** The histogram notes; a {!Sharded} sink records them in shard [cpu]. *)

val note_transfer :
  ts:int ->
  cpu:int ->
  label:string ->
  line:int ->
  word:int ->
  same_word:bool ->
  unit
(** Record a coherence transfer in the contention table and emit the
    corresponding {!Event.Cache_transfer}. *)
