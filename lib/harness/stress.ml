(* Chaos stress harness: seed sweeps, serializability checking, shrinking.

   One [run_one] executes a fully deterministic chaos run: build a fresh STM
   instance, run [nthreads] threads of random single-operation transactions
   under an armed [Sim] plan, read the final contents, and check the
   recorded history against sequential set semantics.  Everything is keyed
   by the spec, so a failing spec *is* the repro — [Tstm_exec.Cli] renders
   it as a `repro stress` invocation. *)

module R = Tstm_runtime.Runtime_sim
module Plan = Tstm_chaos.Plan
module History = Tstm_chaos.History
module San = Tstm_san.San
module Registry = Tstm_tm.Registry

type spec = {
  stm : string;
  structure : Workload.structure;
  nthreads : int;
  per_thread : int;
  key_range : int;
  seed : int;
  max_retries : int;
  cm : string;
  pattern : Workload.pattern;
  site_limit : int option;
  bug : Plan.bug option;
  window : int;
  san : bool;
}

let default =
  {
    stm = "tinystm-wb";
    structure = Workload.List;
    nthreads = 4;
    per_thread = 24;
    key_range = 16;
    seed = 0;
    max_retries = 0;
    cm = "backoff";
    pattern = Workload.Uniform;
    site_limit = None;
    bug = None;
    window = 48;
    san = false;
  }

type report = {
  violation : string option;
  san_findings : San.finding list;
  injected : int;
  decisions : int;
  events : int;
  commits : int;
  aborts : int;
  escalations : int;
}

let failed r = r.violation <> None || r.san_findings <> []

let run_one spec =
  (* Random adds can fill the structure with every key in range. *)
  let words =
    Workload.arena_words spec.structure ~elements:spec.key_range
      ~nthreads:spec.nthreads
  in
  let policy =
    match Tstm_cm.Cm.of_string spec.cm with
    | Ok p -> p
    | Error msg -> invalid_arg ("Stress.run_one: " ^ msg)
  in
  let history = History.create ~nthreads:spec.nthreads in
  Plan.with_bug spec.bug (fun () ->
      let final, stats, injected, decisions, san_findings =
        Plan.with_plan ~config:(Sim Plan.sim_default) ?limit:spec.site_limit
          ~seed:spec.seed (fun () ->
            let body () =
              let (module M) = Registry.get spec.stm in
              let module D = Driver.Make (R) (M) in
              let t =
                M.create ~max_retries:spec.max_retries ~cm:policy
                  ~memory_words:words ()
              in
              let ops = D.make_structure t spec.structure in
              D.run_recorded ~pattern:spec.pattern t ops
                ~nthreads:spec.nthreads ~per_thread:spec.per_thread
                ~key_range:spec.key_range ~seed:spec.seed history;
              let final = M.atomically t (fun tx -> ops.D.op_to_list tx) in
              (final, M.stats t)
            in
            let (final, stats), fs =
              if spec.san then San.with_armed ~ncpus:(max 1 spec.nthreads) body
              else (body (), [])
            in
            (final, stats, Plan.fired (), Plan.decisions (), fs))
      in
      let events = History.events history in
      let violation =
        match History.check ~window:spec.window ~final events with
        | Ok () -> None
        | Error msg -> Some msg
      in
      {
        violation;
        san_findings;
        injected;
        decisions;
        events = List.length events;
        commits = stats.Tstm_tm.Tm_stats.commits;
        aborts = Tstm_tm.Tm_stats.aborts stats;
        escalations = stats.Tstm_tm.Tm_stats.escalations;
      })

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)
(* ------------------------------------------------------------------ *)

type shrunk = { limit : int; report : report }

(* Reduce a failing run to a small injection-site budget that still fails.
   Capping at exactly [injected] fired sites reproduces the original run
   (sites past the cap never fired anyway); below that, bisection — the
   usual shrinker heuristic of assuming monotonicity, re-verified at the
   returned limit by construction (we only ever return limits whose run we
   executed and saw fail). *)
let shrink spec (base : report) =
  if not (failed base) then None
  else begin
    let check l = run_one { spec with site_limit = Some l } in
    let r0 = check 0 in
    if failed r0 then Some { limit = 0; report = r0 }
    else
      let rhi = check base.injected in
      if not (failed rhi) then None
      else begin
        let lo = ref 0 and hi = ref base.injected in
        let rep = ref rhi in
        while !hi - !lo > 1 do
          let mid = !lo + ((!hi - !lo) / 2) in
          let rm = check mid in
          if failed rm then begin
            hi := mid;
            rep := rm
          end
          else lo := mid
        done;
        Some { limit = !hi; report = !rep }
      end
  end

(* ------------------------------------------------------------------ *)
(* Seed sweep                                                          *)
(* ------------------------------------------------------------------ *)

type sweep_result = {
  runs : int;
  total_events : int;
  total_injected : int;
  total_escalations : int;
  total_commits : int;
  total_aborts : int;
  first_failure : (spec * report) option;
}

(* The ordered spec list of a sweep: seeds (outer) x stm x structure
   (inner) — the same nesting as the sequential [sweep], so plan rank
   order equals sequential execution order. *)
let plan ~seeds ~stms ~structures base =
  let acc = ref [] in
  for seed = seeds - 1 downto 0 do
    List.iter
      (fun stm ->
        List.iter
          (fun structure -> acc := { base with stm; structure; seed } :: !acc)
          (List.rev structures))
      (List.rev stms)
  done;
  Array.of_list !acc

(* Fold reports in plan order, truncating after the first failure — the
   summary a sequential early-exiting sweep would have produced, however
   many runs were actually executed (a parallel sweep completes in-flight
   jobs past the failure; their reports are ignored). *)
let summarize results =
  let acc =
    {
      runs = 0;
      total_events = 0;
      total_injected = 0;
      total_escalations = 0;
      total_commits = 0;
      total_aborts = 0;
      first_failure = None;
    }
  in
  Array.fold_left
    (fun acc (spec, r) ->
      if acc.first_failure <> None then acc
      else
        {
          runs = acc.runs + 1;
          total_events = acc.total_events + r.events;
          total_injected = acc.total_injected + r.injected;
          total_escalations = acc.total_escalations + r.escalations;
          total_commits = acc.total_commits + r.commits;
          total_aborts = acc.total_aborts + r.aborts;
          first_failure = (if failed r then Some (spec, r) else None);
        })
    acc results

(* Sweep sequentially with early exit — equivalent to evaluating the plan
   in order and summarising, but stops issuing runs at the first failure. *)
let sweep ?(on_run = fun _ _ -> ()) ~seeds ~stms ~structures base =
  let specs = plan ~seeds ~stms ~structures base in
  let results = ref [] in
  (try
     Array.iter
       (fun spec ->
         let r = run_one spec in
         results := (spec, r) :: !results;
         on_run spec r;
         if failed r then raise Exit)
       specs
   with Exit -> ());
  summarize (Array.of_list (List.rev !results))
