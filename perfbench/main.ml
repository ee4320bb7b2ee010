(* The repository benchmark: STM throughput per family on two real-domain
   workloads and the simulator's 8-CPU flagship cell.

     main.exe --workload list-read|hashset-write|sim-list-8t
              --seed N --seconds S --trace 0|1 [--rev REV]

   Workloads, all closed loops over the four STMs in turn:
   - list-read: two domains, a 1024-key list, 20 % updates; the read path.
   - hashset-write: two domains, a 64-bucket hash set of 256 keys, every
     transaction an update; the write path.  Runnable, but left out of
     BENCHMARK.json: on a shared two-core host its throughput spread
     reached 0.25 between runs of the same code, and one slow window cut
     it five-fold, too much for any allowed bound.
   - sim-list-8t: the paper's Fig. 3b cell on the simulator.

   [tx_per_s] is commits per second of the workload's own clock: wall
   time on real domains (median over rotating 0.25 s slices), virtual
   time in the simulator (median over input seeds; deterministic).

   With [--trace 0] it prints the end-to-end metrics; with [--trace 1] a
   separate run wraps each STM in [Timed] and prints the per-layer
   metrics.  The last line of stdout is one JSON object
   [{"correct", "attempted", "failed", "metrics"}]; the exit code is 0
   only when every integrity check passed.  Everything runs through the
   library's public entry points: [Bench_real.find_stm] and
   [Driver.Make (Runtime_real)] for the real workloads, [Registry],
   [Driver.Make (Runtime_sim)] and [Figures.eval_cell] for the simulator. *)

module R = Tstm_runtime.Runtime_real
module Sim = Tstm_runtime.Runtime_sim
module Mono = Tstm_obs.Monotonic
module Stats = Tstm_tm.Tm_stats
module Intf = Tstm_tm.Tm_intf
module W = Tstm_harness.Workload
module Driver = Tstm_harness.Driver
module Bench_real = Tstm_harness.Bench_real

let stms = Bench_real.stm_names

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

let metrics : (string * float * string) list ref = ref []
let metric name unit v = metrics := (name, v, unit) :: !metrics
let attempted = ref 0
let failed = ref 0
let violations : string list ref = ref []

let violation fmt =
  Printf.ksprintf (fun s -> violations := s :: !violations) fmt

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

let median l =
  match List.sort compare l with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let per a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Live major-heap data, after a full collection.  Callers keep the STM
   instances they mean to weigh reachable across the call. *)
let live_mb () =
  Gc.full_major ();
  float_of_int ((Gc.quick_stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1e6

let time_s f =
  let t0 = Mono.now_ns () in
  let v = f () in
  (v, Mono.elapsed_s ~since:t0)

(* ------------------------------------------------------------------ *)
(* Clocks for the Timed wrapper                                        *)
(* ------------------------------------------------------------------ *)

let domains = 2

module Wall_clock = struct
  let now_ns = Mono.now_ns
  let tid = R.tid
  let lanes = domains
  let spans_per_lane = 1 lsl 16
end

let sim_threads = 8

(* Virtual nanoseconds: the simulator's cycle clock at its configured
   frequency.  Reading it charges nothing. *)
module Virtual_clock = struct
  let now_ns () =
    int_of_float
      (float_of_int (Sim.now_cycles ())
      /. (Sim.params ()).Tstm_runtime.Cache_model.clock_ghz)

  let tid = Sim.tid
  let lanes = sim_threads
  let spans_per_lane = 1 lsl 14
end

(* The wall clock under the simulator, for the transparency self-test. *)
module Sim_wall_clock = struct
  let now_ns = Mono.now_ns
  let tid = Sim.tid
  let lanes = sim_threads
  let spans_per_lane = 1 lsl 14
end

(* ------------------------------------------------------------------ *)
(* Per-layer metrics shared by every workload                          *)
(* ------------------------------------------------------------------ *)

(* Tm_stats-derived counts, from the untraced cells. *)
let stats_metrics stm (s : Stats.t) =
  let c = s.Stats.commits in
  let m name unit v = metric (name ^ "." ^ stm) unit v in
  m "stm.commits" "count" (float_of_int c);
  m "stm.reads_per_tx" "1/tx" (per s.Stats.reads c);
  m "stm.writes_per_tx" "1/tx" (per s.Stats.writes c);
  m "stm.attempts_per_tx" "1/tx" (per (c + Stats.aborts s) c);
  m "stm.validations_per_tx" "1/tx" (per s.Stats.validations c);
  m "stm.val_locks_per_tx" "1/tx" (per s.Stats.val_locks_processed c);
  m "stm.extensions_per_tx" "1/tx" (per s.Stats.extensions c);
  m "stm.aborts_read_per_ktx" "1/ktx"
    (1000.0 *. per s.Stats.aborts_read_conflict c);
  m "stm.aborts_write_per_ktx" "1/ktx"
    (1000.0 *. per s.Stats.aborts_write_conflict c);
  m "stm.aborts_validation_per_ktx" "1/ktx"
    (1000.0 *. per s.Stats.aborts_validation c);
  m "cm.backoff_per_tx" "cycles/tx" (per s.Stats.backoff_cycles c);
  m "stm.ro_commits_per_tx" "1/tx" (per s.Stats.commits_read_only c)

(* Timed-derived times and call counts, from the traced cells. *)
let trace_metrics stm (s : Timed.summary) =
  let m name unit v = metric (name ^ "." ^ stm) unit v in
  m "stm.read_ns" "ns" s.Timed.op_ns.(Timed.op_read);
  m "stm.write_ns" "ns" s.Timed.op_ns.(Timed.op_write);
  m "stm.alloc_ns" "ns" s.Timed.op_ns.(Timed.op_alloc);
  m "stm.free_ns" "ns" s.Timed.op_ns.(Timed.op_free);
  m "stm.allocs_per_tx" "1/tx" (per s.Timed.ops.(Timed.op_alloc) s.Timed.txs);
  m "stm.frees_per_tx" "1/tx" (per s.Timed.ops.(Timed.op_free) s.Timed.txs);
  m "stm.self_ns_per_tx" "ns" s.Timed.tx_self_ns;
  m "structures.self_ns_per_attempt" "ns" s.Timed.att_self_ns;
  m "stm.tx_ns_p50" "ns" s.Timed.tx_p50_ns;
  m "stm.tx_ns_p99" "ns" s.Timed.tx_p99_ns;
  m "stm.tx_samples" "count" (float_of_int s.Timed.txs)

(* Direct calls into the runtime and the word allocator, batch-timed:
   median over batches of the mean ns per call, minus an empty loop. *)
let micro_metrics () =
  let module V = Tstm_vmm.Vmm.Make (R) in
  let a = R.sarray_make 64 0 in
  let v = V.create ~words:4096 in
  let n = 200_000 in
  let batch f =
    median
      (List.init 7 (fun _ ->
           let t0 = Mono.now_ns () in
           for i = 1 to n do
             f i
           done;
           float_of_int (Mono.elapsed_ns ~since:t0) /. float_of_int n))
  in
  let base = batch (fun i -> ignore (Sys.opaque_identity i)) in
  let net f = Float.max 0.0 (batch f -. base) in
  metric "runtime.get_ns" "ns"
    (net (fun i -> ignore (Sys.opaque_identity (R.get a (i land 63)))));
  metric "runtime.cas_ns" "ns"
    (net (fun i -> ignore (Sys.opaque_identity (R.cas a (i land 63) 0 0))));
  metric "runtime.fetch_add_ns" "ns"
    (net (fun i -> ignore (Sys.opaque_identity (R.fetch_add a (i land 63) 1))));
  metric "vmm.load_ns" "ns"
    (net (fun i ->
         ignore (Sys.opaque_identity (V.load v (1 + (i land 1023))))));
  metric "vmm.store_ns" "ns" (net (fun i -> V.store v (1 + (i land 1023)) i));
  metric "vmm.alloc_free_ns" "ns"
    (net (fun _ ->
         let p = V.alloc v 4 in
         V.free v p 4));
  let dispatch =
    List.init 201 (fun _ ->
        snd (time_s (fun () -> R.run ~nthreads:domains (fun _ -> ()))))
  in
  metric "runtime.run_dispatch_us" "us" (1e6 *. median dispatch)

(* ------------------------------------------------------------------ *)
(* Real-domain workloads                                               *)
(* ------------------------------------------------------------------ *)

(* One timed slice of one cell.  Only this cell's workers run during it,
   so the process-wide major-collection count is its own. *)
type sample = {
  elapsed : float;
  commits : int;
  minor_words : float;
  majors : int;
}

let major_collections () = (Gc.quick_stat ()).Gc.major_collections

(* One STM instance, populated, behind closures so untraced and traced
   variants of different STMs share one round-robin loop. *)
type cell = {
  stm : string;
  traced : bool;
  slice : seconds:float -> rep:int -> (sample, string) result;
  restart : unit -> unit;  (* zero the counters after warmup *)
  stats : unit -> Stats.t;
  integrity : failed_reps:(int * string) list -> Bench_real.integrity;
  summary : cal_ns:int -> Timed.summary option;
}

(* The per-repetition thread seed, as [Bench_real] derives it. *)
let rep_seed base rep = Tstm_util.Bitops.mix (base + (0x9e3779b9 * (rep + 1)))

let make_real_cell ~traced spec stm =
  let (module M : Intf.STM) =
    match Bench_real.find_stm stm with
    | Ok (_, m) -> m
    | Error e -> failwith e
  in
  let t = M.create ~memory_words:(W.memory_words_for spec) () in
  let build (module T : Intf.TM with type t = M.t and type tx = M.tx) summary
      =
    let module D = Driver.Make (R) (T) in
    let ops = D.make_structure t spec.W.structure in
    D.populate t ops spec;
    let live0 = M.live_words t in
    let ops_done = Array.make domains 0 in
    let minor = Array.make domains 0.0 in
    let prev = ref 0 in
    let phase ~seconds ~rep =
      let deadline = Mono.now_ns () + int_of_float (seconds *. 1e9) in
      R.run ~nthreads:domains (fun tid ->
          let g =
            Tstm_util.Xrand.create (rep_seed (D.thread_seed spec tid) rep)
          in
          let ctx = D.thread_ctx spec tid in
          let pending = ref None in
          let mine = ref 0 in
          let w0 = Gc.minor_words () in
          while Mono.now_ns () < deadline do
            D.step t ops spec ctx g pending;
            incr mine
          done;
          (* Drain the pending insert so the size returns to its
             populated value. *)
          (match !pending with
          | Some v ->
              ignore (T.atomically t (fun tx -> ops.D.op_remove tx v));
              incr mine
          | None -> ());
          minor.(tid) <- Gc.minor_words () -. w0;
          ops_done.(tid) <- ops_done.(tid) + !mine)
    in
    let slice ~seconds ~rep =
      Array.fill minor 0 domains 0.0;
      let gc0 = major_collections () in
      match time_s (fun () -> phase ~seconds ~rep) with
      | (), elapsed ->
          let majors = major_collections () - gc0 in
          let c = (M.stats t).Stats.commits in
          let commits = c - !prev in
          prev := c;
          let minor_words = Array.fold_left ( +. ) 0.0 minor in
          Ok { elapsed; commits; minor_words; majors }
      | exception e ->
          prev := (M.stats t).Stats.commits;
          Error (Printexc.to_string e)
    in
    let restart () =
      M.reset_stats t;
      prev := 0;
      Array.fill ops_done 0 domains 0
    in
    (* [Bench_real]'s integrity rules, in its own [integrity] record: one
       operation is one commit, the structure returns to its populated
       size, and the allocator shows zero drift against the post-populate
       baseline. *)
    let integrity ~failed_reps =
      let commits_total = (M.stats t).Stats.commits in
      let ops_total = Array.fold_left ( + ) 0 ops_done in
      let size = M.atomically t (fun tx -> ops.D.op_size tx) in
      let live = M.live_words t in
      let rule ok fmt =
        Printf.ksprintf (fun msg -> if ok then [] else [ msg ]) fmt
      in
      {
        Bench_real.ops_total;
        commits_total;
        violations =
          List.concat
            [
              rule (commits_total = ops_total) "commits (%d) <> operations (%d)"
                commits_total ops_total;
              rule (size = spec.W.initial_size)
                "structure size %d <> populated size %d" size
                spec.W.initial_size;
              rule (live = live0)
                "allocator drift: %d live words vs baseline %d" live live0;
            ];
        failed_reps;
      }
    in
    {
      stm;
      traced;
      slice;
      restart;
      stats = (fun () -> M.stats t);
      integrity;
      summary;
    }
  in
  if traced then begin
    let module T = Timed.Make (Wall_clock) (M) in
    let c =
      build
        (module T : Intf.TM with type t = M.t and type tx = M.tx)
        (fun ~cal_ns -> Some (T.summary ~cal_ns))
    in
    {
      c with
      slice =
        (fun ~seconds ~rep ->
          let r = c.slice ~seconds ~rep in
          T.flush ();
          r);
      restart =
        (fun () ->
          c.restart ();
          T.clear ());
    }
  end
  else
    build
      (module M : Intf.TM with type t = M.t and type tx = M.tx)
      (fun ~cal_ns:_ -> None)

(* Warm each cell, then run [rounds] rounds of one slice per cell, the
   starting cell rotating by one each round so that no cell holds a fixed
   position in the run order.  Returns each cell's samples with their
   position in the round, and the repetitions that raised (the warmup is
   repetition -1). *)
let run_rounds cells ~warmup_s ~slice_s ~rounds =
  let cells = Array.of_list cells in
  let n = Array.length cells in
  let results = Array.make n [] in
  let failed_reps = Array.make n [] in
  let fail i rep msg = failed_reps.(i) <- (rep, msg) :: failed_reps.(i) in
  Array.iteri
    (fun i c ->
      match c.slice ~seconds:warmup_s ~rep:(-1) with
      | Ok _ -> c.restart ()
      | Error msg -> fail i (-1) msg)
    cells;
  for r = 0 to rounds - 1 do
    for k = 0 to n - 1 do
      let i = (k + r) mod n in
      let c = cells.(i) in
      match c.slice ~seconds:slice_s ~rep:r with
      | Ok s -> results.(i) <- (k, s) :: results.(i)
      | Error msg -> fail i r msg
    done
  done;
  Array.to_list
    (Array.mapi
       (fun i c -> (c, List.rev failed_reps.(i), List.rev results.(i)))
       cells)

let thr s = float_of_int s.commits /. s.elapsed

(* Account a finished cell: its operations are attempted, and all of them
   failed when a repetition raised or an integrity rule is broken. *)
let account (c, failed_reps, _) =
  let i = c.integrity ~failed_reps in
  let tag = c.stm ^ if c.traced then " (traced)" else "" in
  attempted := !attempted + i.Bench_real.ops_total;
  List.iter
    (fun (rep, e) -> violation "%s: repetition %d raised %s" tag rep e)
    i.Bench_real.failed_reps;
  List.iter (fun v -> violation "%s: %s" tag v) i.Bench_real.violations;
  if i.Bench_real.failed_reps <> [] || i.Bench_real.violations <> [] then
    failed := !failed + i.Bench_real.ops_total

(* Mean throughput in a round's first slot over the cell's median: 1.0
   when run order has no effect. *)
let first_slot_ratio results =
  let ratios =
    List.filter_map
      (fun (_, samples) ->
        let all = List.map (fun (_, s) -> thr s) samples in
        let first =
          List.filter_map
            (fun (k, s) -> if k = 0 then Some (thr s) else None)
            samples
        in
        match first with
        | [] -> None
        | _ ->
            let n = float_of_int (List.length first) in
            Some (List.fold_left ( +. ) 0.0 first /. n /. median all))
      results
  in
  List.fold_left ( +. ) 0.0 ratios /. float_of_int (max 1 (List.length ratios))

let slice_s = 0.25
let warmup_s = 0.3
let setup_min_reps = 9
let setup_min_s = 1.0

let real_workload ~trace ~seconds spec =
  (* Set-up: arena creation, population and a domain-pool dispatch for all
     four STMs, each time from a compacted heap, repeated at least
     [setup_min_reps] times and for [setup_min_s] seconds; the last set is
     measured. *)
  let setups = ref [] in
  let cells = ref [] in
  let rec set_up n total =
    if n < setup_min_reps || total < setup_min_s then begin
      Gc.compact ();
      let cs, dt =
        time_s (fun () ->
            R.run ~nthreads:domains (fun _ -> ());
            let plain = List.map (make_real_cell ~traced:false spec) stms in
            if trace then
              plain @ List.map (make_real_cell ~traced:true spec) stms
            else plain)
      in
      setups := dt :: !setups;
      cells := cs;
      set_up (n + 1) (total +. dt)
    end
  in
  set_up 0 0.0;
  log "set-up: %d repetitions, median %.4f s" (List.length !setups)
    (median !setups);
  (* Collect the discarded set-up instances now, not inside the timed
     rounds. *)
  Gc.compact ();
  let n = List.length !cells in
  let rounds =
    max 4 (int_of_float (seconds /. (slice_s *. float_of_int n)))
  in
  let results = run_rounds !cells ~warmup_s ~slice_s ~rounds in
  List.iter account results;
  let results = List.map (fun (c, _, samples) -> (c, samples)) results in
  let untraced = List.filter (fun (c, _) -> not c.traced) results in
  let thrs samples = List.map (fun (_, s) -> thr s) samples in
  let med_thr samples = median (thrs samples) in
  let sum f samples = List.fold_left (fun a (_, s) -> a +. f s) 0.0 samples in
  List.iter
    (fun (c, samples) ->
      let a = Array.of_list (List.sort compare (thrs samples)) in
      let q k = if a = [||] then 0.0 else a.(k * (Array.length a - 1) / 4) in
      log "%s%s: %d slices, tx/s q1 %.0f median %.0f q3 %.0f" c.stm
        (if c.traced then " (traced)" else "")
        (Array.length a) (q 1) (med_thr samples) (q 3))
    results;
  let ratio = first_slot_ratio untraced in
  log "run order: first-slot throughput / median = %.4f" ratio;
  if not trace then begin
    List.iter
      (fun (c, samples) ->
        metric ("tx_per_s." ^ c.stm) "tx/s" (med_thr samples))
      untraced;
    metric "setup_s" "s" (median !setups);
    metric "heap_mb" "MB" (live_mb ());
    ignore (Sys.opaque_identity results)
  end
  else begin
    let cal_ns = Timed.calibrate Mono.now_ns in
    metric "trace.span_cost_ns" "ns" (float_of_int cal_ns);
    let overall = ref [] in
    List.iter
      (fun stm ->
        let find traced =
          List.find (fun (c, _) -> c.stm = stm && c.traced = traced) results
        in
        let plain, plain_samples = find false in
        let traced, traced_samples = find true in
        let s = plain.stats () in
        stats_metrics stm s;
        (match traced.summary ~cal_ns with
        | Some summary -> trace_metrics stm summary
        | None -> ());
        let ov = med_thr plain_samples /. med_thr traced_samples in
        overall := ov :: !overall;
        metric ("trace.overhead." ^ stm) "ratio" ov;
        let words = sum (fun s -> s.minor_words) plain_samples in
        let secs = sum (fun s -> s.elapsed) plain_samples in
        metric ("gc.minor_words_per_tx." ^ stm) "words/tx"
          (words /. float_of_int (max 1 s.Stats.commits));
        metric ("gc.major_per_s." ^ stm) "1/s"
          (sum (fun s -> float_of_int s.majors) plain_samples /. secs);
        metric ("wall_ns_per_read." ^ stm) "ns"
          (1e9 *. secs /. float_of_int (max 1 s.Stats.reads)))
      stms;
    metric "trace.overhead" "ratio" (median !overall);
    micro_metrics ()
  end

(* ------------------------------------------------------------------ *)
(* The simulator workload                                              *)
(* ------------------------------------------------------------------ *)

type sim_run = {
  result : W.result;
  wall_s : float;
  setup_s : float;
  minor_words : float;
  majors : int;
  live_mb : float;  (* with this cell's instance populated and run *)
  trace : Timed.summary option;
  broken : string list;  (* structure checks that failed *)
}

(* One figure cell: fresh instance, population (free of virtual cost),
   [Driver.run], then the structure checks: sorted, no duplicates, and
   within [nthreads] of its populated size (pending inserts are not
   drained). *)
let sim_cell ?(clock : (module Timed.CLOCK) option) spec stm =
  let (module M : Intf.STM) = Tstm_tm.Registry.get stm in
  let go (module T : Intf.TM with type t = M.t and type tx = M.tx) ~clear
      ~summary =
    let module D = Driver.Make (Sim) (T) in
    let (t, ops), setup_s =
      time_s (fun () ->
          let t = M.create ~memory_words:(W.memory_words_for spec) () in
          let ops = D.make_structure t spec.W.structure in
          D.populate t ops spec;
          (t, ops))
    in
    clear ();
    let w0 = Gc.minor_words () and gc0 = major_collections () in
    let (result, _), wall_s = time_s (fun () -> D.run t ops spec) in
    let minor_words = Gc.minor_words () -. w0 in
    let majors = major_collections () - gc0 in
    let trace = summary () in
    let live_mb = live_mb () in
    let keys = M.atomically t (fun tx -> ops.D.op_to_list tx) in
    let rec sorted = function
      | a :: (b :: _ as rest) -> a < b && sorted rest
      | _ -> true
    in
    let n = List.length keys in
    let broken =
      (if sorted keys then []
       else [ Printf.sprintf "%s: list not strictly sorted" stm ])
      @
      if abs (n - spec.W.initial_size) <= spec.W.nthreads then []
      else
        [
          Printf.sprintf "%s: list size %d not within %d of %d" stm n
            spec.W.nthreads spec.W.initial_size;
        ]
    in
    { result; wall_s; setup_s; minor_words; majors; live_mb; trace; broken }
  in
  match clock with
  | None -> go (module M) ~clear:ignore ~summary:(fun () -> None)
  | Some (module C) ->
      let module T = Timed.Make (C) (M) in
      go (module T) ~clear:T.clear ~summary:(fun () ->
          Some (T.summary ~cal_ns:0))

let sim_spec seed =
  W.make ~structure:W.List ~initial_size:256 ~update_pct:20.0
    ~nthreads:sim_threads ~duration:0.005 ~seed ()

let same (a : W.result) (b : W.result) =
  a.W.commits = b.W.commits && a.W.throughput = b.W.throughput
  && a.W.stats = b.W.stats

(* The same cell through the figure pipeline itself. *)
let figure_cell spec stm =
  match
    Tstm_harness.Figures.eval_cell
      (Tstm_harness.Figures.Intset_cell
         {
           stm;
           n_locks = Intf.default_tuning.Intf.n_locks;
           shifts = 0;
           hierarchy = 1;
           hierarchy2 = 1;
           spec;
         })
  with
  | Tstm_harness.Figures.Result r -> r
  | Tstm_harness.Figures.Trace _ -> failwith "figure cell returned a trace"

(* The untraced run measures [groups] groups of the four cells, each group
   on its own input seed (about 10 s of wall time per group), so that the
   reported virtual throughput is a median over input draws. *)
let group_seed seed k = (seed * 16) + k

(* A finished simulator run: its commits are attempted, and all of them
   failed when a structure check is broken. *)
let account_sim (x : sim_run) =
  let commits = x.result.W.commits in
  attempted := !attempted + commits;
  List.iter (fun v -> violation "%s" v) x.broken;
  if x.broken <> [] then failed := !failed + commits

let sim_workload ~trace ~seconds seed =
  (* Every run of a cell must reproduce the first one exactly. *)
  let reference = Hashtbl.create 4 in
  let check_same stm what (r : W.result) =
    match Hashtbl.find_opt reference stm with
    | None -> Hashtbl.replace reference stm r
    | Some first ->
        if not (same first r) then begin
          violation "%s: %s differs from the first run" stm what;
          failed := !failed + r.W.commits
        end
  in
  if not trace then begin
    let groups = max 1 (int_of_float seconds / 10) in
    let runs =
      List.concat
        (List.init groups (fun k ->
             let spec = sim_spec (group_seed seed k) in
             (* The starting STM rotates from group to group. *)
             List.init 4 (fun i ->
                 let stm = List.nth stms ((i + k) mod 4) in
                 let x = sim_cell spec stm in
                 account_sim x;
                 log "%s seed %d: %.0f tx per virtual s, %.0f tx per wall s"
                   stm spec.W.seed x.result.W.throughput
                   (float_of_int x.result.W.commits /. x.wall_s);
                 (stm, x))))
    in
    let throughput stm (s, x) =
      if s = stm then Some x.result.W.throughput else None
    in
    List.iter
      (fun stm ->
        metric ("tx_per_s." ^ stm) "tx/s"
          (median (List.filter_map (throughput stm) runs)))
      stms;
    metric "setup_s" "s" (median (List.map (fun (_, x) -> x.setup_s) runs));
    metric "heap_mb" "MB" (median (List.map (fun (_, x) -> x.live_mb) runs))
  end
  else begin
    (* Transparency: Driver over Timed (M) must equal Driver over M and the
       figure pipeline's own cell, with the virtual clock the traced
       figures use and with the wall clock. *)
    let spec = sim_spec (group_seed seed 0) in
    let runs =
      List.map
        (fun stm ->
          let plain = sim_cell spec stm in
          let traced =
            sim_cell ~clock:(module Virtual_clock : Timed.CLOCK) spec stm
          in
          let walled =
            sim_cell ~clock:(module Sim_wall_clock : Timed.CLOCK) spec stm
          in
          let figure = figure_cell spec stm in
          List.iter account_sim [ plain; traced; walled ];
          attempted := !attempted + figure.W.commits;
          check_same stm "the untraced run" plain.result;
          check_same stm "the figure pipeline's cell" figure;
          check_same stm "Timed over the virtual clock" traced.result;
          check_same stm "Timed over the wall clock" walled.result;
          (stm, plain, traced, walled))
        stms
    in
    metric "trace.span_cost_ns" "ns" 0.0;
    let overall = ref [] in
    List.iter
      (fun (stm, plain, traced, walled) ->
        let s = plain.result.W.stats in
        stats_metrics stm s;
        Option.iter (trace_metrics stm) traced.trace;
        let ov = walled.wall_s /. plain.wall_s in
        overall := ov :: !overall;
        metric ("trace.overhead." ^ stm) "ratio" ov;
        metric ("gc.minor_words_per_tx." ^ stm) "words/tx"
          (plain.minor_words /. float_of_int (max 1 s.Stats.commits));
        metric ("gc.major_per_s." ^ stm) "1/s"
          (float_of_int plain.majors /. plain.wall_s);
        metric ("wall_ns_per_read." ^ stm) "ns"
          (1e9 *. plain.wall_s /. float_of_int (max 1 s.Stats.reads)))
      runs;
    metric "trace.overhead" "ratio" (median !overall);
    micro_metrics ()
  end

(* ------------------------------------------------------------------ *)
(* Command line and output                                             *)
(* ------------------------------------------------------------------ *)

let json_number name v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else begin
    violation "metric %s is not finite" name;
    "0"
  end

let json_string s = Printf.sprintf "%S" s

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 in
  let trace = ref 0 and rev = ref "unknown" in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        " list-read | hashset-write | sim-list-8t" );
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_int seconds, " measured seconds");
      ( "--trace",
        Arg.Set_int trace,
        " 0: end-to-end metrics, 1: per-layer metrics" );
      ("--rev", Arg.Set_string rev, " source revision, for provenance");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  let trace = !trace = 1 and seconds = float_of_int !seconds in
  let real ~size ~update_pct structure =
    W.make ~structure ~initial_size:size ~update_pct ~nthreads:domains
      ~duration:slice_s ~seed:!seed ()
  in
  (match !workload with
  | "list-read" ->
      real_workload ~trace ~seconds (real ~size:1024 ~update_pct:20.0 W.List)
  | "hashset-write" ->
      real_workload ~trace ~seconds (real ~size:256 ~update_pct:100.0 W.Hashset)
  | "sim-list-8t" -> sim_workload ~trace ~seconds !seed
  | w ->
      prerr_endline ("unknown workload " ^ w);
      exit 2);
  let host = Tstm_obs.Bench.host () in
  Printf.printf
    "{\"provenance\": {\"rev\": %s, \"workload\": %s, \"seed\": %d, \"seconds\": \
     %.0f, \"trace\": %b, \"cores\": %d, \"ocaml\": %s, \"os\": %s, \
     \"clock_res_ns\": %d, \"span_cost_ns\": %d}}\n"
    (json_string !rev) (json_string !workload) !seed seconds trace host.cores
    (json_string host.ocaml) (json_string host.os_type) host.clock_res_ns
    (Timed.calibrate Mono.now_ns);
  let ms = List.rev !metrics in
  List.iter (fun (n, v, u) -> log "%-44s %16.4f %s" n v u) ms;
  let body =
    String.concat ", "
      (List.map
         (fun (n, v, u) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string n)
             (json_number n v) (json_string u))
         ms)
  in
  List.iter (fun v -> log "VIOLATION %s" v) (List.rev !violations);
  let correct = !violations = [] && !failed = 0 in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": \
     {%s}}\n%!"
    correct (max 1 !attempted) !failed body;
  exit (if correct then 0 else 1)
