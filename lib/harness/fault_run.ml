(* Seeded fault sweeps on real domains.  See fault_run.mli. *)

module R = Tstm_runtime.Runtime_real
module Plan = Tstm_chaos.Plan
module Intf = Tstm_tm.Tm_intf
module Stats = Tstm_tm.Tm_stats
module Xrand = Tstm_util.Xrand

type kind = Crash | Hang | Oom

let kind_name = function Crash -> "crash" | Hang -> "hang" | Oom -> "oom"

type spec = {
  stm : string;
  kind : kind;
  structure : Workload.structure;
  domains : int;
  per_thread : int;
  key_range : int;
  initial_size : int;
  update_pct : float;
  limit : int option;
  seed : int;
}

let default =
  {
    stm = "tinystm-wb";
    kind = Crash;
    structure = Workload.Hashset;
    domains = 3;
    per_thread = 400;
    key_range = 512;
    initial_size = 128;
    update_pct = 50.0;
    limit = None;
    seed = 42;
  }

type report = {
  fired : int;
  decisions : int;
  heal : R.heal_report;
  commits : int;
  aborts_alloc : int;
  capacities : int;
  leak_words : int;
  violations : string list;
  error : string option;
}

let healed r = r.error = None && r.violations = [] && r.leak_words = 0

(* Each sweep run arms exactly one fault kind, at rates high enough to
   fire dozens of injections per run on this workload size (the default
   rates are tuned for long service runs, not short sweeps). *)
let config_for k =
  Plan.Real
    (match k with
    | Crash -> { crash_pct = 2.0; hang_pct = 0.0; hang_us = 1; oom_pct = 0.0 }
    | Hang ->
        { crash_pct = 0.0; hang_pct = 2.0; hang_us = 20_000; oom_pct = 0.0 }
    | Oom -> { crash_pct = 0.0; hang_pct = 0.0; hang_us = 1; oom_pct = 5.0 })

(* Injected hangs stall up to hang_us = 20 ms; a 5 ms heartbeat timeout
   guarantees the monitor actually observes them as stale. *)
let hang_timeout_for = function Hang -> 0.005 | Crash | Oom -> 0.05

let validate spec =
  if spec.domains < 1 then invalid_arg "Fault_run: domains < 1";
  if spec.per_thread < 1 then invalid_arg "Fault_run: per_thread < 1";
  if spec.key_range < 1 then invalid_arg "Fault_run: key_range < 1";
  if spec.initial_size < 0 then invalid_arg "Fault_run: initial_size < 0";
  match spec.limit with
  | Some l when l < 0 -> invalid_arg "Fault_run: limit < 0"
  | _ -> ()

let run_packed (module M : Bench_real.STM) spec =
  let module D = Driver.Make (R) (M) in
  let wspec =
    Workload.make ~structure:spec.structure ~initial_size:spec.initial_size
      ~update_pct:spec.update_pct ~nthreads:spec.domains ~duration:1.0
      ~seed:spec.seed ~key_range:spec.key_range ()
  in
  let t = M.create ~memory_words:(Workload.memory_words_for wspec) () in
  let ops = D.make_structure t spec.structure in
  let live_skel = M.live_words t in
  (* Populate before arming: the fault surface is the concurrent run. *)
  D.populate t ops wspec;
  M.reset_stats t;
  let capacities = Atomic.make 0 in
  (* One worker job.  A crash respawn replays it from the start — the
     per-tid RNG is rebuilt, so the replay is the same operation stream.
     Keys inserted before the crash are swept up by the drain below; the
     typed Capacity verdict (arena exhausted after the STM's bounded
     alloc-retry) is absorbed per operation so injected OOM storms cannot
     kill a worker. *)
  let job tid =
    let ctx = D.thread_ctx wspec tid in
    let g = Xrand.create (D.thread_seed wspec tid) in
    let pending = ref None in
    for _ = 1 to spec.per_thread do
      match D.step t ops wspec ctx g pending with
      | () -> ()
      | exception Intf.Capacity _ ->
          Atomic.incr capacities;
          pending := None
    done;
    match !pending with
    | None -> ()
    | Some k -> (
        match M.atomically t (fun tx -> ops.D.op_remove tx k) with
        | (_ : bool) -> ()
        | exception Intf.Capacity _ -> Atomic.incr capacities)
  in
  (* An uncapped crash plan at these rates would kill nearly every replay
     of a requeued job and exhaust the requeue budget; capping the fired
     count turns it into a bounded storm — after the cap, replays run
     clean and the pool converges.  Hangs and OOMs never kill a job, so
     they stay uncapped unless the spec says otherwise. *)
  let limit =
    match (spec.limit, spec.kind) with
    | (Some _ as l), _ -> l
    | None, Crash -> Some (4 * spec.domains)
    | None, (Hang | Oom) -> None
  in
  Plan.activate ~config:(config_for spec.kind) ?limit ~seed:spec.seed ();
  let fired = ref 0 and decisions = ref 0 in
  let outcome =
    Fun.protect
      ~finally:(fun () ->
        fired := Plan.fired ();
        decisions := Plan.decisions ();
        Plan.deactivate ())
    @@ fun () ->
    match
      R.run_healed ~hang_timeout_s:(hang_timeout_for spec.kind)
        ~nthreads:spec.domains job
    with
    | heal -> Ok heal
    | exception e -> Error (Printexc.to_string e)
  in
  (* Post-run audit, injection disarmed: drain the structure to empty and
     compare the arena against the pre-populate skeleton.  Crash replays
     make commit/size counts meaningless, but drift is exact. *)
  let violations = ref [] in
  D.drain t ops;
  let size = M.atomically t (fun tx -> ops.D.op_size tx) in
  if size <> 0 then
    violations :=
      Printf.sprintf "%d elements survived the drain" size :: !violations;
  let stats = M.stats t in
  {
    fired = !fired;
    decisions = !decisions;
    heal = (match outcome with Ok h -> h | Error _ -> R.no_heal);
    commits = stats.Stats.commits;
    aborts_alloc = stats.Stats.aborts_alloc;
    capacities = Atomic.get capacities;
    leak_words = M.live_words t - live_skel;
    violations = List.rev !violations;
    error = (match outcome with Ok _ -> None | Error e -> Some e);
  }

let run_one spec =
  validate spec;
  match Bench_real.find_stm spec.stm with
  | Error m -> invalid_arg ("Fault_run: " ^ m)
  | Ok (_canon, m) -> run_packed m spec

let plan ~seeds ~stms ~kinds spec =
  if seeds < 1 then invalid_arg "Fault_run.plan: seeds < 1";
  if stms = [] then invalid_arg "Fault_run.plan: no stms";
  if kinds = [] then invalid_arg "Fault_run.plan: no kinds";
  Array.of_list
    (List.concat_map
       (fun s ->
         List.concat_map
           (fun stm ->
             List.map
               (fun kind -> { spec with seed = spec.seed + s; stm; kind })
               kinds)
           stms)
       (List.init seeds Fun.id))
