module Make
    (R : Tstm_runtime.Runtime_intf.S)
    (T : Tstm_tm.Tm_intf.TM) =
struct
  module Shm = Tstm_runtime.Shm
  module Ll = Tstm_structures.Intset_list.Make (T)
  module Rb = Tstm_structures.Rbtree.Make (T)
  module Sk = Tstm_structures.Skiplist.Make (T)
  module Hs = Tstm_structures.Hashset.Make (T)

  type finger_add = {
    head : int;
    add_from : T.tx -> finger:int -> int -> int option;
  }

  type ops = {
    op_contains : T.tx -> int -> bool;
    op_add : T.tx -> int -> bool;
    op_remove : T.tx -> int -> bool;
    op_overwrite : T.tx -> int -> int;
    op_size : T.tx -> int;
    op_to_list : T.tx -> int list;
    op_finger_add : finger_add option;
  }

  let make_structure t = function
    | Workload.List ->
        let s = Ll.create t in
        {
          op_contains = Ll.contains s;
          op_add = Ll.add s;
          op_remove = Ll.remove s;
          op_overwrite = Ll.overwrite_upto s;
          op_size = Ll.size s;
          op_to_list = Ll.to_list s;
          op_finger_add = Some { head = Ll.head s; add_from = Ll.add_from s };
        }
    | Workload.Rbtree ->
        let s = Rb.create t in
        {
          op_contains = Rb.contains s;
          op_add = Rb.add s;
          op_remove = Rb.remove s;
          op_overwrite = Rb.overwrite_upto s;
          op_size = Rb.size s;
          op_to_list = Rb.to_list s;
          op_finger_add = None;
        }
    | Workload.Skiplist ->
        let s = Sk.create t in
        {
          op_contains = Sk.contains s;
          op_add = Sk.add s;
          op_remove = Sk.remove s;
          op_overwrite = Sk.overwrite_upto s;
          op_size = Sk.size s;
          op_to_list = Sk.to_list s;
          op_finger_add = None;
        }
    | Workload.Hashset ->
        let s = Hs.create t in
        {
          op_contains = Hs.contains s;
          op_add = Hs.add s;
          op_remove = Hs.remove s;
          op_overwrite = Hs.overwrite_upto s;
          op_size = Hs.size s;
          op_to_list = Hs.to_list s;
          op_finger_add = None;
        }

  module Imap = Map.Make (Int)

  (* One transaction per draw, duplicates included.  A list inserts from a
     finger, the new key's predecessor: [nodes] maps every key inserted so
     far (the head sentinel under [min_int]) to its node's address, and
     takes an address only once its insert has committed.  The search then
     reads a few words instead of walking from the head, while the
     allocations and writes, and so the arena, stay those of [op_add]. *)
  let populate t ops (spec : Workload.spec) =
    let g = Tstm_util.Xrand.create spec.Workload.seed in
    let add =
      match ops.op_finger_add with
      | None -> fun v -> T.atomically t (fun tx -> ops.op_add tx v)
      | Some f -> (
          let nodes = ref (Imap.singleton min_int f.head) in
          fun v ->
            let _, finger = Imap.find_last (fun k -> k < v) !nodes in
            match T.atomically t (fun tx -> f.add_from tx ~finger v) with
            | Some n ->
                nodes := Imap.add v n !nodes;
                true
            | None -> false)
    in
    let inserted = ref 0 in
    while !inserted < spec.Workload.initial_size do
      let v = 1 + Tstm_util.Xrand.int g spec.Workload.key_range in
      if add v then incr inserted
    done

  let drain t ops =
    List.iter
      (fun k -> ignore (T.atomically t (fun tx -> ops.op_remove tx k)))
      (T.atomically t (fun tx -> ops.op_to_list tx))

  (* Per-thread workload-pattern context: the key sampler plus this thread's
     role under the pattern.  For [Uniform] the sampler consumes the
     historical RNG stream and [span]/[idle] are zero, so the default path
     is unchanged. *)
  type thread_ctx = {
    draw_key : Tstm_util.Xrand.t -> int;
    span : int;  (* > 0: run scan transactions of this many lookups *)
    idle : int;  (* extra local think-time cycles between transactions *)
  }

  let thread_ctx (spec : Workload.spec) tid =
    {
      draw_key =
        Workload.key_gen spec.Workload.pattern
          ~key_range:spec.Workload.key_range;
      span = Workload.reader_span spec.Workload.pattern ~tid;
      idle = Workload.idle_cycles spec.Workload.pattern ~tid;
    }

  (* One benchmark transaction.  [pending] alternates update transactions
     between inserting a fresh key and removing the key inserted last, so
     every update transaction performs writes and the structure size stays
     (almost) constant — the paper's harness discipline. *)
  let step t ops (spec : Workload.spec) ctx g pending =
    if ctx.idle > 0 then Shm.charge_local ctx.idle;
    if ctx.span > 0 then
      (* Long-reader role (bimodal pattern): one scan transaction of [span]
         lookups instead of the paper mix. *)
      ignore
        (T.atomically t (fun tx ->
             let hits = ref 0 in
             for _ = 1 to ctx.span do
               if ops.op_contains tx (ctx.draw_key g) then incr hits
             done;
             !hits))
    else
    let p = Tstm_util.Xrand.float g *. 100.0 in
    let draw () = ctx.draw_key g in
    if p < spec.Workload.overwrite_pct then
      ignore (T.atomically t (fun tx -> ops.op_overwrite tx (draw ())))
    else if p < spec.Workload.overwrite_pct +. spec.Workload.update_pct then begin
      match !pending with
      | Some v ->
          ignore (T.atomically t (fun tx -> ops.op_remove tx v));
          pending := None
      | None ->
          let v =
            T.atomically t (fun tx ->
                let rec try_add () =
                  let v = draw () in
                  if ops.op_add tx v then v else try_add ()
                in
                try_add ())
          in
          pending := Some v
    end
    else
      (* Lookups run as regular transactions (with a read set), matching the
         paper's harness: Fig. 12's validation rates (~4000 read-set locks
         per transaction on the 4096-element list) are only possible if
         lookups validate too.  The read-only fast path remains available
         through the API and is exercised by tests and examples. *)
      ignore (T.atomically t (fun tx -> ops.op_contains tx (draw ())))

  (* ------------------------------------------------------------------ *)
  (* Recorded runs for the chaos stress harness                          *)
  (* ------------------------------------------------------------------ *)

  (* Random single-operation transactions with invocation/response
     timestamps taken in virtual time just outside [atomically], recorded
     per thread for black-box serializability checking. *)
  let run_recorded ?(pattern = Workload.Uniform) t ops ~nthreads ~per_thread
      ~key_range ~seed history =
    T.reset_stats t;
    let module H = Tstm_chaos.History in
    let draw_key = Workload.key_gen pattern ~key_range in
    R.run ~nthreads (fun tid ->
        let g =
          Tstm_util.Xrand.create (Tstm_util.Bitops.mix ((seed * 131071) + tid))
        in
        (* Operations stay single so the serializability checker applies;
           the pattern contributes key skew and per-thread think-time. *)
        let idle = Workload.idle_cycles pattern ~tid in
        for _ = 1 to per_thread do
          if idle > 0 then Shm.charge_local idle;
          let key = draw_key g in
          let op =
            match Tstm_util.Xrand.int g 4 with
            | 0 | 1 -> H.Add key
            | 2 -> H.Remove key
            | _ -> H.Contains key
          in
          let inv = R.now_cycles () in
          let result =
            T.atomically t (fun tx ->
                match op with
                | H.Add k -> ops.op_add tx k
                | H.Remove k -> ops.op_remove tx k
                | H.Contains k -> ops.op_contains tx k)
          in
          let resp = R.now_cycles () in
          H.record history ~tid ~inv ~resp ~op ~result
        done)

  let thread_seed (spec : Workload.spec) tid =
    Tstm_util.Bitops.mix ((spec.Workload.seed * 8191) + tid)

  let result_of_stats elapsed stats =
    let commits = stats.Tstm_tm.Tm_stats.commits in
    let aborts = Tstm_tm.Tm_stats.aborts stats in
    {
      Workload.commits;
      aborts;
      throughput = float_of_int commits /. elapsed;
      abort_rate = float_of_int aborts /. elapsed;
      stats;
      elapsed;
    }

  type control = {
    period : float;
    n_periods : int;
    on_period : int -> float -> Tstm_tm.Tm_stats.t -> unit;
  }

  let run_timed t ops (spec : Workload.spec) =
    T.reset_stats t;
    R.run ~nthreads:spec.Workload.nthreads (fun tid ->
        let g = Tstm_util.Xrand.create (thread_seed spec tid) in
        let ctx = thread_ctx spec tid in
        let pending = ref None in
        let t0 = R.now () in
        let tend = t0 +. spec.Workload.duration in
        while R.now () < tend do
          step t ops spec ctx g pending
        done)

  let run_controlled t ops (spec : Workload.spec) ~period ~n_periods
      ~on_period =
    T.reset_stats t;
    (* Per-thread commit counters on private cache lines, plus a stop flag;
       thread 0 aggregates them at period boundaries. *)
    let ctl = Shm.make R.kind (8 * (spec.Workload.nthreads + 2)) 0 in
    let stop_slot = 0 in
    let commit_slot tid = 8 * (tid + 1) in
    R.run ~nthreads:spec.Workload.nthreads (fun tid ->
        let g = Tstm_util.Xrand.create (thread_seed spec tid) in
        let ctx = thread_ctx spec tid in
        let pending = ref None in
        let mine = ref 0 in
        if tid = 0 then begin
          let periods_done = ref 0 in
          let next = ref (R.now () +. period) in
          let last_total = ref 0 in
          while !periods_done < n_periods do
            step t ops spec ctx g pending;
            incr mine;
            Shm.set ctl (commit_slot 0) !mine;
            if R.now () >= !next then begin
              let total = ref 0 in
              for k = 0 to spec.Workload.nthreads - 1 do
                total := !total + Shm.get ctl (commit_slot k)
              done;
              let thr = float_of_int (!total - !last_total) /. period in
              last_total := !total;
              on_period !periods_done thr (T.stats t);
              incr periods_done;
              next := R.now () +. period
            end
          done;
          Shm.set ctl stop_slot 1
        end
        else
          while Shm.get ctl stop_slot = 0 do
            step t ops spec ctx g pending;
            incr mine;
            Shm.set ctl (commit_slot tid) !mine
          done)

  (* ------------------------------------------------------------------ *)
  (* Per-period metric rows for the CSV exporter                         *)
  (* ------------------------------------------------------------------ *)

  let obs_columns =
    [
      "period";
      "t_end_s";
      "throughput_tx_s";
      "commits";
      "aborts";
      "aborts_read_conflict";
      "aborts_write_conflict";
      "aborts_validation";
      "aborts_rollover";
      "p50_commit_cycles";
      "p99_commit_cycles";
      "p50_abort_cycles";
      "p99_abort_cycles";
    ]

  (* A metrics recorder chained in front of the caller's controller: one
     row per measurement period, diffed against the previous period. *)
  let metrics_recorder collector =
    let module S = Tstm_tm.Tm_stats in
    let module H = Tstm_obs.Histo in
    let m = Tstm_obs.Metrics.create ~columns:obs_columns in
    let prev = ref (S.create ()) in
    let prev_commit = ref (H.copy collector.Tstm_obs.Sink.commit_latency) in
    let prev_abort = ref (H.copy collector.Tstm_obs.Sink.abort_latency) in
    let record idx thr (cum : S.t) =
      let p = !prev in
      let commit_h = H.diff collector.Tstm_obs.Sink.commit_latency ~since:!prev_commit in
      let abort_h = H.diff collector.Tstm_obs.Sink.abort_latency ~since:!prev_abort in
      let d fld = float_of_int (fld cum - fld p) in
      Tstm_obs.Metrics.add_row m
        [|
          float_of_int idx;
          R.now ();
          thr;
          d (fun s -> s.S.commits);
          d S.aborts;
          d (fun s -> s.S.aborts_read_conflict);
          d (fun s -> s.S.aborts_write_conflict);
          d (fun s -> s.S.aborts_validation);
          d (fun s -> s.S.aborts_rollover);
          float_of_int (H.percentile commit_h 50.0);
          float_of_int (H.percentile commit_h 99.0);
          float_of_int (H.percentile abort_h 50.0);
          float_of_int (H.percentile abort_h 99.0);
        |];
      prev := S.copy cum;
      prev_commit := H.copy collector.Tstm_obs.Sink.commit_latency;
      prev_abort := H.copy collector.Tstm_obs.Sink.abort_latency
    in
    (m, record)

  let run ?control ?collector t ops (spec : Workload.spec) =
    (* A collector without an explicit control still needs a period
       structure for its metric rows: one period spanning the duration. *)
    let control =
      match (control, collector) with
      | None, Some _ ->
          Some
            {
              period = spec.Workload.duration;
              n_periods = 1;
              on_period = (fun _ _ _ -> ());
            }
      | c, _ -> c
    in
    match control with
    | None ->
        run_timed t ops spec;
        (result_of_stats spec.Workload.duration (T.stats t), None)
    | Some { period; n_periods; on_period } ->
        let metrics, on_period =
          match collector with
          | None -> (None, on_period)
          | Some c ->
              let m, record = metrics_recorder c in
              ( Some m,
                fun idx thr cum ->
                  record idx thr cum;
                  on_period idx thr cum )
        in
        run_controlled t ops spec ~period ~n_periods ~on_period;
        let elapsed = period *. float_of_int n_periods in
        (result_of_stats elapsed (T.stats t), metrics)
end
