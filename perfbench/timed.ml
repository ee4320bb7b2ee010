(* A tracing wrapper around any [Tm_intf.TM].

   [Make (C) (M)] is [M] with every [atomically] call, every attempt of its
   body, and every [read] / [write] / [alloc] / [free] timed with the clock
   [C.now_ns].  It changes nothing [M] does: it passes every call through
   in the same order, reads a clock that charges no simulated cycles, and
   lets every exception (the STM's internal aborts included) propagate.

   Spans: one per [atomically] call and one per attempt, sharing a
   transaction id.  Word operations get no span of their own; they are
   counted and their time is summed into the enclosing attempt's child
   time.  Writes, allocs and frees are all timed; reads, which a list
   traversal issues by the thousand, are timed one in [read_period] and
   the others are charged the sampled mean, so that the clock does not
   dominate what it measures.

   Spans go to a preallocated per-thread buffer (indexed by [C.tid]);
   [flush] folds the buffers into per-lane aggregates and is called
   between timed phases, while every thread is quiescent.  A buffer that
   fills inside a phase is folded in place by its own thread. *)

module type CLOCK = sig
  val now_ns : unit -> int
  (** Nanoseconds on the runtime's own clock: wall time on real domains,
      virtual time in the simulator. *)

  val tid : unit -> int

  val lanes : int
  (** Upper bound on [tid () + 1]. *)

  val spans_per_lane : int
  (** Buffer capacity of one lane, in spans. *)
end

(* ------------------------------------------------------------------ *)
(* Log-linear latency histogram: exact below 32 ns, then 16 sub-buckets
   per power of two (about 6 % resolution).                              *)
(* ------------------------------------------------------------------ *)

module Lat = struct
  let nbuckets = 1024

  let rec log2 v k = if v > 1 then log2 (v lsr 1) (k + 1) else k

  let bucket v =
    if v < 32 then max v 0
    else
      let k = log2 v 0 in
      ((k - 3) lsl 4) + ((v lsr (k - 4)) - 16)

  let lower b =
    if b < 32 then b
    else
      let k = (b lsr 4) + 3 in
      ((b land 15) + 16) lsl (k - 4)

  let upper b = if b < 32 then b else lower (b + 1) - 1
  let create () = Array.make nbuckets 0
  let record h v = h.(bucket v) <- h.(bucket v) + 1
  let count h = Array.fold_left ( + ) 0 h

  (* Midpoint of the bucket holding the [p]-th percentile sample. *)
  let percentile h p =
    let n = count h in
    if n = 0 then 0.0
    else
      let target = max 1 (int_of_float (ceil (p /. 100.0 *. float_of_int n))) in
      let rec go b acc =
        let acc = acc + h.(b) in
        if acc >= target || b = nbuckets - 1 then
          float_of_int (lower b + upper b) /. 2.0
        else go (b + 1) acc
      in
      go 0 0
end

(* Word-operation kinds, indexing [lane.op_count] / [lane.op_ns]. *)
let op_read = 0
let op_write = 1
let op_alloc = 2
let op_free = 3
let read_period = 17

(* One span record: transaction id, kind, start, duration, time covered
   by child spans or operations, number of children. *)
let span_words = 6
let kind_tx = 0
let kind_attempt = 1

type lane = {
  buf : int array;
  mutable len : int;
  mutable next_tx : int;
  (* open attempt / transaction *)
  mutable att_child_ns : int;
  mutable att_children : int;
  mutable tx_child_ns : int;
  mutable tx_children : int;
  mutable tx_ops : int;
  mutable read_skip : int;
  op_count : int array;  (* every call *)
  op_timed : int array;  (* timed calls *)
  op_ns : int array;  (* time of the timed calls *)
  (* folded aggregates *)
  mutable txs : int;
  mutable attempts : int;
  mutable tx_self_ns : int;
  mutable tx_att_children : int;
  mutable att_self_ns : int;
  mutable att_op_children : int;
  mutable ops_in_txs : int;
  lat : int array;  (* raw transaction durations *)
}

let make_lane cap =
  {
    buf = Array.make (cap * span_words) 0;
    len = 0;
    next_tx = 0;
    att_child_ns = 0;
    att_children = 0;
    tx_child_ns = 0;
    tx_children = 0;
    tx_ops = 0;
    read_skip = 0;
    op_count = Array.make 4 0;
    op_timed = Array.make 4 0;
    op_ns = Array.make 4 0;
    txs = 0;
    attempts = 0;
    tx_self_ns = 0;
    tx_att_children = 0;
    att_self_ns = 0;
    att_op_children = 0;
    ops_in_txs = 0;
    lat = Lat.create ();
  }

let fold l =
  let b = l.buf in
  let i = ref 0 in
  while !i < l.len do
    let dur = b.(!i + 3) and child = b.(!i + 4) and n = b.(!i + 5) in
    if b.(!i + 1) = kind_tx then begin
      l.txs <- l.txs + 1;
      l.tx_self_ns <- l.tx_self_ns + (dur - child);
      l.tx_att_children <- l.tx_att_children + n;
      Lat.record l.lat dur
    end
    else begin
      l.attempts <- l.attempts + 1;
      l.att_self_ns <- l.att_self_ns + (dur - child);
      l.att_op_children <- l.att_op_children + n
    end;
    i := !i + span_words
  done;
  l.len <- 0

let push l id kind start dur child n =
  if l.len + span_words > Array.length l.buf then fold l;
  let b = l.buf and j = l.len in
  b.(j) <- id;
  b.(j + 1) <- kind;
  b.(j + 2) <- start;
  b.(j + 3) <- dur;
  b.(j + 4) <- child;
  b.(j + 5) <- n;
  l.len <- j + span_words

(* What the traced run reports for one wrapped STM, corrected for the
   calibrated cost [cal_ns] of one empty clock pair.  [ops] counts every
   call; times come from the timed ones. *)
type summary = {
  txs : int;
  attempts : int;
  ops : int array;  (** per kind: read, write, alloc, free *)
  op_ns : float array;  (** mean corrected ns per operation, per kind *)
  tx_self_ns : float;  (** per transaction: atomically minus its attempts *)
  att_self_ns : float;  (** per attempt: body minus its word operations *)
  tx_p50_ns : float;
  tx_p99_ns : float;
}

let calibrate now_ns =
  let n = 20_001 in
  let d = Array.init n (fun _ ->
      let a = now_ns () in
      let b = now_ns () in
      b - a)
  in
  Array.sort compare d;
  d.(n / 2)

module Make (C : CLOCK) (M : Tstm_tm.Tm_intf.TM) : sig
  include Tstm_tm.Tm_intf.TM with type t = M.t and type tx = M.tx

  val flush : unit -> unit
  (** Fold every lane's span buffer (call while quiescent). *)

  val clear : unit -> unit
  (** Drop everything recorded so far (call while quiescent). *)

  val summary : cal_ns:int -> summary
  (** Flush and summarise. *)
end = struct
  type t = M.t
  type tx = M.tx

  let name = M.name
  let lanes = Array.init C.lanes (fun _ -> make_lane C.spans_per_lane)

  (* The word operations are spelled out rather than sharing a
     closure-taking helper, so tracing allocates nothing per call. *)
  let op_done kind l t0 =
    let d = C.now_ns () - t0 in
    l.op_timed.(kind) <- l.op_timed.(kind) + 1;
    l.op_ns.(kind) <- l.op_ns.(kind) + d;
    l.att_child_ns <- l.att_child_ns + d;
    l.att_children <- l.att_children + 1

  let count kind l = l.op_count.(kind) <- l.op_count.(kind) + 1

  let read tx a =
    let l = lanes.(C.tid ()) in
    count op_read l;
    if l.read_skip > 0 then begin
      l.read_skip <- l.read_skip - 1;
      M.read tx a
    end
    else begin
      l.read_skip <- read_period - 1;
      let t0 = C.now_ns () in
      match M.read tx a with
      | v ->
          op_done op_read l t0;
          v
      | exception e ->
          op_done op_read l t0;
          raise e
    end

  let write tx a v =
    let l = lanes.(C.tid ()) in
    count op_write l;
    let t0 = C.now_ns () in
    match M.write tx a v with
    | () -> op_done op_write l t0
    | exception e ->
        op_done op_write l t0;
        raise e

  let alloc tx n =
    let l = lanes.(C.tid ()) in
    count op_alloc l;
    let t0 = C.now_ns () in
    match M.alloc tx n with
    | a ->
        op_done op_alloc l t0;
        a
    | exception e ->
        op_done op_alloc l t0;
        raise e

  let free tx a n =
    let l = lanes.(C.tid ()) in
    count op_free l;
    let t0 = C.now_ns () in
    match M.free tx a n with
    | () -> op_done op_free l t0
    | exception e ->
        op_done op_free l t0;
        raise e

  let end_attempt l id a0 =
    let d = C.now_ns () - a0 in
    push l id kind_attempt a0 d l.att_child_ns l.att_children;
    l.tx_child_ns <- l.tx_child_ns + d;
    l.tx_children <- l.tx_children + 1;
    l.tx_ops <- l.tx_ops + l.att_children

  let end_tx l id t0 =
    let d = C.now_ns () - t0 in
    push l id kind_tx t0 d l.tx_child_ns l.tx_children;
    l.ops_in_txs <- l.ops_in_txs + l.tx_ops

  let atomically ?read_only t f =
    let l = lanes.(C.tid ()) in
    let id = l.next_tx in
    l.next_tx <- id + 1;
    l.tx_child_ns <- 0;
    l.tx_children <- 0;
    l.tx_ops <- 0;
    let body tx =
      l.att_child_ns <- 0;
      l.att_children <- 0;
      let a0 = C.now_ns () in
      match f tx with
      | v ->
          end_attempt l id a0;
          v
      | exception e ->
          end_attempt l id a0;
          raise e
    in
    let t0 = C.now_ns () in
    match M.atomically ?read_only t body with
    | v ->
        end_tx l id t0;
        v
    | exception e ->
        end_tx l id t0;
        raise e

  let stats = M.stats
  let reset_stats = M.reset_stats
  let flush () = Array.iter fold lanes

  let clear () =
    Array.iter
      (fun l ->
        l.len <- 0;
        l.read_skip <- 0;
        Array.fill l.op_count 0 4 0;
        Array.fill l.op_timed 0 4 0;
        Array.fill l.op_ns 0 4 0;
        l.txs <- 0;
        l.attempts <- 0;
        l.tx_self_ns <- 0;
        l.tx_att_children <- 0;
        l.att_self_ns <- 0;
        l.att_op_children <- 0;
        l.ops_in_txs <- 0;
        Array.fill l.lat 0 Lat.nbuckets 0)
      lanes

  let summary ~cal_ns =
    flush ();
    let sum f = Array.fold_left (fun acc l -> acc + f l) 0 lanes in
    let txs = sum (fun l -> l.txs) and attempts = sum (fun l -> l.attempts) in
    let ops = Array.init 4 (fun k -> sum (fun l -> l.op_count.(k))) in
    let per a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
    let cal = float_of_int cal_ns in
    let timed = Array.init 4 (fun k -> sum (fun l -> l.op_timed.(k))) in
    let op_ns =
      Array.init 4 (fun k ->
          let raw = sum (fun l -> l.op_ns.(k)) in
          if timed.(k) = 0 then 0.0
          else Float.max 0.0 (per raw timed.(k) -. cal))
    in
    (* Each timed child leaves about one clock pair's cost outside its own
       interval but inside its parent's, and each span's own pair adds one
       more: subtract both from the parent's self time, and the untimed
       reads at the sampled mean. *)
    let self ?(untimed_ns = 0.0) total n_children n_spans =
      if n_spans = 0 then 0.0
      else
        Float.max 0.0
          ((float_of_int total -. untimed_ns) /. float_of_int n_spans
          -. (cal *. (per n_children n_spans +. 1.0)))
    in
    let untimed_ns =
      float_of_int (ops.(op_read) - timed.(op_read)) *. op_ns.(op_read)
    in
    let lat = Lat.create () in
    Array.iter
      (fun l -> Array.iteri (fun i c -> lat.(i) <- lat.(i) + c) l.lat)
      lanes;
    (* Transaction latency as measured under tracing, minus the mean clock
       overhead its nested spans and timed operations add (two pairs'
       worth each). *)
    let overhead =
      cal
      *. (1.0
         +. (2.0 *. per (sum (fun l -> l.tx_att_children)) txs)
         +. (2.0 *. per (sum (fun l -> l.ops_in_txs)) txs))
    in
    let pct p = Float.max 0.0 (Lat.percentile lat p -. overhead) in
    {
      txs;
      attempts;
      ops;
      op_ns;
      tx_self_ns =
        self
          (sum (fun l -> l.tx_self_ns))
          (sum (fun l -> l.tx_att_children))
          txs;
      att_self_ns =
        self ~untimed_ns (sum (fun l -> l.att_self_ns))
          (sum (fun l -> l.att_op_children))
          attempts;
      tx_p50_ns = pct 50.0;
      tx_p99_ns = pct 99.0;
    }
end
