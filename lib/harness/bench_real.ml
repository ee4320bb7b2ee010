(* Wall-clock benchmark harness over the real-hardware runtime.

   Takes each registry entry's packaging over [Runtime_real] and drives
   [Driver.step] — the exact paper mix the simulator measures — under a
   Synchrobench-style protocol: a warmup phase, then [reps] fixed-duration
   timed repetitions against one long-lived structure, timed with the
   monotonic clock.

   Every counted operation is exactly one [atomically] (one commit), so a
   run carries machine-checkable integrity: total commits must equal total
   operations, the structure must return to its populated size (update
   transactions pair inserts with removals and each thread drains its
   pending removal after the deadline), and the word allocator must show
   zero drift against the post-populate baseline. *)

module R = Tstm_runtime.Runtime_real
module Shm = Tstm_runtime.Shm
module Mono = Tstm_obs.Monotonic
module Json = Tstm_obs.Json
module Bench = Tstm_obs.Bench
module Sink = Tstm_obs.Sink
module Stats = Tstm_tm.Tm_stats
module Intf = Tstm_tm.Tm_intf

(* Histogram notes carry no cpu argument; the sharded sink asks this hook
   for the recording domain's shard.  Runtime_real's tids are dense and
   bounded by the thread count, so they index shards directly. *)
let () = Sink.set_domain_id Shm.tid

module type STM = Intf.STM

module Registry = Tstm_tm.Registry

let stms =
  List.map (fun e -> Registry.(e.name, e.aliases, e.real)) (Registry.all ())

let stm_names = Registry.names ()

let find_stm name =
  match Registry.entry_of name with
  | Some e -> Ok (e.Registry.name, e.Registry.real)
  | None ->
      Error
        (Printf.sprintf "unknown STM %S (known: %s)" name
           (String.concat ", " stm_names))

type protocol = {
  duration_s : float;
  warmup_s : float;
  reps : int;
  observe : bool;
}

type integrity = {
  ops_total : int;
  commits_total : int;
  violations : string list;
  failed_reps : (int * string) list;
}

let rep_seed base rep = Tstm_util.Bitops.mix (base + (0x9e3779b9 * (rep + 1)))

(* Aggregate per-repetition latency percentiles (commit/abort, in
   nanoseconds on this runtime) from a merged sharded collector. *)
let latency_json (c : Sink.collector) =
  let module H = Tstm_obs.Histo in
  let pcts h =
    Json.Obj
      [
        ("count", Json.Int (H.count h));
        ("p50_ns", Json.Int (H.percentile h 50.0));
        ("p99_ns", Json.Int (H.percentile h 99.0));
      ]
  in
  Json.Obj
    [
      ("commit", pcts c.Sink.commit_latency);
      ("abort", pcts c.Sink.abort_latency);
    ]

type cell_request = {
  stm : string;
  structure : string;  (** a [Workload.structure] name, or ["vacation"] *)
  domains : int;
  pattern : Workload.pattern;
  size : int;  (** initial size; [n_relations] for vacation *)
  update_pct : float;  (** [reserve_pct] for vacation *)
  seed : int;
}

let default_request =
  {
    stm = "tinystm-wb";
    structure = "rbtree";
    domains = 2;
    pattern = Workload.Uniform;
    size = 256;
    update_pct = 20.0;
    seed = 42;
  }

(* The Synchrobench-style protocol both cell kinds share: warmup, reset,
   [reps] timed phases (each one sample, diffed from the cumulative
   stats), then the integrity checks.  A cell supplies [body ~tid ~rep
   ~deadline], which runs its thread's operations until [deadline] and
   returns how many it ran, and [audit], its post-run violations. *)
let run_protocol (type a) (module M : STM with type t = a) (t : a) ~canon
    ~structure ~workload (req : cell_request) (p : protocol) ~body ~audit =
  let ops_counts = Array.make req.domains 0 in
  let phase ~seconds ~rep =
    let t0 = Mono.now_ns () in
    let deadline = t0 + int_of_float (seconds *. 1e9) in
    R.run ~nthreads:req.domains (fun tid ->
        ops_counts.(tid) <- ops_counts.(tid) + body ~tid ~rep ~deadline);
    Mono.elapsed_s ~since:t0
  in
  if p.warmup_s > 0.0 then ignore (phase ~seconds:p.warmup_s ~rep:(-1));
  M.reset_stats t;
  Array.fill ops_counts 0 req.domains 0;
  let shards = Array.init Sink.max_cpus (fun _ -> Sink.collector ()) in
  let in_sink f =
    if p.observe then Sink.with_sink (Sink.Sharded shards) f else f ()
  in
  let prev = ref (Stats.create ()) in
  let failed_reps = ref [] in
  let samples =
    List.filter_map
      (fun rep ->
        match in_sink (fun () -> phase ~seconds:p.duration_s ~rep) with
        | elapsed_s ->
            (* Stats accumulate across repetitions; diff against the
               previous snapshot for this repetition's sample. *)
            let now_stats = M.stats t in
            let commits = now_stats.Stats.commits - !prev.Stats.commits in
            let aborts = Stats.aborts now_stats - Stats.aborts !prev in
            prev := Stats.copy now_stats;
            Some
              {
                Bench.thr = float_of_int commits /. elapsed_s;
                elapsed_s;
                commits;
                aborts;
              }
        | exception e ->
            (* A raising worker must not abort the whole bench run: [R.run]
               has already awaited every domain of this repetition, so the
               pool is reusable.  Record the repetition as a typed failure
               (it yields no sample) and keep going; the CLI exits non-zero
               on any failed repetition. *)
            prev := Stats.copy (M.stats t);
            failed_reps := (rep, Printexc.to_string e) :: !failed_reps;
            None)
      (List.init p.reps Fun.id)
  in
  let cum = Stats.copy (M.stats t) in
  let ops_total = Array.fold_left ( + ) 0 ops_counts in
  let violations =
    (if cum.Stats.commits <> ops_total then
       [
         Printf.sprintf "commits (%d) <> operations (%d)" cum.Stats.commits
           ops_total;
       ]
     else [])
    @ audit ()
  in
  let cell =
    {
      Bench.stm = canon;
      structure;
      domains = req.domains;
      workload;
      size = req.size;
      update_pct = req.update_pct;
      samples;
      stats =
        Json.Obj
          (("tm", Stats.to_json cum)
          ::
          (if p.observe then [ ("latency", latency_json (Sink.merged shards)) ]
           else []));
    }
  in
  ( cell,
    {
      ops_total;
      commits_total = cum.Stats.commits;
      violations;
      failed_reps = List.rev !failed_reps;
    } )

(* The intset/paper-mix cell: the structure must return to its populated
   size and the allocator to its post-populate baseline. *)
let run_structure_cell (module M : STM) ~canon ~structure (req : cell_request)
    p =
  let module D = Driver.Make (R) (M) in
  let spec =
    Workload.make ~structure ~initial_size:req.size
      ~update_pct:req.update_pct ~nthreads:req.domains ~duration:p.duration_s
      ~seed:req.seed ~pattern:req.pattern ()
  in
  let t = M.create ~memory_words:(Workload.memory_words_for spec) () in
  let ops = D.make_structure t spec.Workload.structure in
  D.populate t ops spec;
  let live0 = M.live_words t in
  let body ~tid ~rep ~deadline =
    let g = Tstm_util.Xrand.create (rep_seed (D.thread_seed spec tid) rep) in
    let ctx = D.thread_ctx spec tid in
    let pending = ref None in
    let mine = ref 0 in
    while Mono.now_ns () < deadline do
      D.step t ops spec ctx g pending;
      incr mine
    done;
    (match !pending with
    | Some v ->
        ignore (M.atomically t (fun tx -> ops.D.op_remove tx v));
        incr mine
    | None -> ());
    !mine
  in
  let audit () =
    let size_after = M.atomically t (fun tx -> ops.D.op_size tx) in
    let live_after = M.live_words t in
    (if size_after <> req.size then
       [
         Printf.sprintf "structure size %d <> populated size %d" size_after
           req.size;
       ]
     else [])
    @
    if live_after <> live0 then
      [
        Printf.sprintf "allocator drift: %d live words vs baseline %d"
          live_after live0;
      ]
    else []
  in
  run_protocol (module M) t ~canon
    ~structure:(Workload.structure_to_string structure)
    ~workload:(Workload.pattern_to_string req.pattern)
    req p ~body ~audit

(* The Vacation cell: STAMP-style mix, integrity via the workload's own
   transactional audit. *)
let run_vacation_cell (module M : STM) ~canon (req : cell_request) p =
  let module Vac = Tstm_vacation.Vacation.Make (M) in
  let spec =
    {
      Vac.default_spec with
      Vac.n_relations = req.size;
      n_customers = req.size;
      reserve_pct = req.update_pct;
    }
  in
  let t = M.create ~memory_words:(Vac.memory_words_for spec) () in
  let v = Vac.populate (Vac.create t) spec ~seed:req.seed in
  let body ~tid ~rep ~deadline =
    let g =
      Tstm_util.Xrand.create
        (rep_seed (Tstm_util.Bitops.mix ((req.seed * 131) + tid)) rep)
    in
    let mine = ref 0 in
    while Mono.now_ns () < deadline do
      Vac.client_step v spec g;
      incr mine
    done;
    !mine
  in
  let audit () =
    match Vac.check_consistency v with
    | () -> []
    | exception Vac.Inconsistent msg ->
        [ Printf.sprintf "vacation audit failed: %s" msg ]
  in
  run_protocol (module M) t ~canon ~structure:"vacation" ~workload:"stamp" req
    p ~body ~audit

let run_cell (req : cell_request) (p : protocol) =
  if req.domains < 1 then Error "domains must be >= 1"
  else if p.reps < 1 then Error "reps must be >= 1"
  else if p.duration_s <= 0.0 then Error "duration must be > 0"
  else if p.observe && req.domains > Sink.max_cpus then
    (* The sharded sink has one shard per domain id below [Sink.max_cpus];
       a wider cell would publish percentiles missing the other domains. *)
    Error
      (Printf.sprintf "an observed cell runs at most %d domains"
         Sink.max_cpus)
  else
    match find_stm req.stm with
    | Error _ as e -> e
    | Ok (canon, m) -> (
        if req.structure = "vacation" then
          Ok (run_vacation_cell m ~canon req p)
        else
          match Workload.structure_of_string req.structure with
          | Some s -> Ok (run_structure_cell m ~canon ~structure:s req p)
          | None ->
              Error
                (Printf.sprintf
                   "unknown structure %S (known: list, rbtree, skiplist, \
                    hashset, vacation)"
                   req.structure))

let snapshot ~rev ~created_unix (p : protocol) cells =
  {
    Bench.rev;
    created_unix;
    duration_s = p.duration_s;
    warmup_s = p.warmup_s;
    reps = p.reps;
    host = Bench.host ();
    cells;
  }
