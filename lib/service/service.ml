(* The service front-end: admission, dispatch, deadlines, shedding and
   fault containment, one engine for an instance of either [Shm.kind].

   Execution model: the full arrival schedule and every request's operation
   are precomputed from the seed, so the open-loop offered load is
   independent of how fast the service drains it.  Workers share a global
   cursor into the schedule plus per-shard FIFO queues.  A worker loop is:
   admit everything that has arrived, take a batch from the first
   non-empty shard it may serve (round-robin scan from its own index),
   execute each request as one transaction, and otherwise wait for the
   next arrival.  The run terminates when the schedule is exhausted and
   every queue has drained: each dispatched request finishes in bounded
   time because its attempt guard raises past the deadline or the retry
   budget (the Storm escape-hatch pattern: raised at attempt entry, before
   any transactional access, so there is nothing to undo even when
   irrevocable), and injected crashes are retried within the same budget.

   The idle wait is the one step that differs by kind: the simulator
   charges virtual cycles up to the next arrival, domains sleep for at
   most [idle_sleep]. *)

module Runtime = Tstm_runtime.Runtime
module Shm = Tstm_runtime.Shm
module Watchdog = Tstm_runtime.Watchdog
module Registry = Tstm_tm.Registry
module Cm = Tstm_cm.Cm
module Workload = Tstm_harness.Workload
module Driver = Tstm_harness.Driver
module History = Tstm_chaos.History
module San = Tstm_san.San
module Slo = Tstm_obs.Slo
module Sink = Tstm_obs.Sink
module Event = Tstm_obs.Event
module Plan = Tstm_chaos.Plan
module Intf = Tstm_tm.Tm_intf
module Xrand = Tstm_util.Xrand
module Bitops = Tstm_util.Bitops

type shed_policy = No_shed | Drop_newest | Deadline_aware | Serialize_hot

let shed_to_string = function
  | No_shed -> "none"
  | Drop_newest -> "drop-newest"
  | Deadline_aware -> "deadline"
  | Serialize_hot -> "serialize-hot"

let all_sheds = [ No_shed; Drop_newest; Deadline_aware; Serialize_hot ]

let shed_of_string = function
  | "none" -> Ok No_shed
  | "drop-newest" -> Ok Drop_newest
  | "deadline" -> Ok Deadline_aware
  | "serialize-hot" -> Ok Serialize_hot
  | s ->
      Error
        (Printf.sprintf
           "unknown shedding policy %S (known: none, drop-newest, deadline, \
            serialize-hot)" s)

type backend = Intset of Workload.structure | Vacation

let backend_to_string = function
  | Intset s -> Workload.structure_to_string s
  | Vacation -> "vacation"

let backend_of_string s =
  if s = "vacation" then Ok Vacation
  else
    match Workload.structure_of_string s with
    | Some st -> Ok (Intset st)
    | None ->
        Error
          (Printf.sprintf
             "unknown backend %S (known: list, rbtree, skiplist, hashset, \
              vacation)" s)

type spec = {
  stm : string;
  kind : Shm.kind;
  cm : string;
  backend : backend;
  workers : int;
  shards : int;
  arrival : Arrival.t;
  overload : float option;
  session : int;
  pattern : Workload.pattern;
  horizon : float;
  deadline : float;
  retry_budget : int;
  queue_cap : int;
  batch : int;
  shed : shed_policy;
  watchdog : bool;
  wd_window : int;
  wd_starve : int;
  wd_calm : int;
  record : bool;
  san : bool;
  seed : int;
}

let default =
  {
    stm = "tinystm-wb";
    kind = Shm.Simulated;
    cm = "backoff";
    backend = Intset Workload.List;
    workers = 4;
    shards = 4;
    arrival = { Arrival.shape = Arrival.Poisson; rate = 100_000.0 };
    overload = Some 2.0;
    session = 4;
    pattern = Workload.Uniform;
    horizon = 0.002;
    deadline = 5e-4;
    retry_budget = 8;
    queue_cap = 64;
    batch = 4;
    shed = Deadline_aware;
    watchdog = false;
    wd_window = 50_000;
    wd_starve = 64;
    wd_calm = 2;
    record = false;
    san = false;
    seed = 0;
  }

(* The workload shape every service run shares. *)
let think = 2e-5 (* virtual seconds between a session's requests *)
let key_range = 128
let initial_size = 64 (* per-shard pre-population (Intset) *)
let update_pct = 20.0 (* Intset update share, percent *)

(* Hangs are left out: a hang only adds latency without feeding the
   breaker. *)
let fault_burst =
  Plan.Real { crash_pct = 10.0; hang_pct = 0.0; hang_us = 1; oom_pct = 2.0 }

type report = {
  capacity : float;
  offered : float;
  goodput : float;
  slo : Slo.summary;
  max_depth : int;
  hot_dispatches : int;
  wd : Watchdog.snapshot option;
  stats : Tstm_tm.Tm_stats.t;
  violations : string list;
  san_findings : San.finding list;
  leak_words : int;
  elapsed : float;
  log : (float * Slo.verdict * int) array;
  crash_faults : int;
  faults_retried : int;
  breaker_trips : int;
  breaker_state : Breaker.state;
}

let failed r = r.violations <> [] || r.san_findings <> [] || r.leak_words <> 0

let cycles_per_second = function
  | Shm.Simulated -> (Shm.params ()).Tstm_runtime.Cache_model.clock_ghz *. 1e9
  | Shm.Domains -> 1e9

(* ------------------------------------------------------------------ *)
(* Precomputed requests                                                *)
(* ------------------------------------------------------------------ *)

type vac_kind =
  | V_reserve of { cid : int; picks : (int * int) list }
  | V_cancel of { cid : int }
  | V_query of { picks : (int * int) list }

type op = Set_op of History.op | Vac_op of vac_kind

type request = { t_arr : float; shard : int; deadline : float; op : op }

(* Per-tenant Vacation sizing: small tables so a few tenants fit a test
   arena; the reserve/cancel/query mix below is the service's own (the
   benchmark's update-tables transactions would grow/shrink the resource
   tables and defeat the zero-drift drain check). *)
let vac_spec =
  {
    Tstm_vacation.Vacation.n_relations = key_range;
    n_customers = key_range;
    queries_per_tx = 2;
    reserve_pct = 80.0;
    delete_pct = 10.0;
  }

let gen_op spec gen_key g =
  match spec.backend with
  | Intset _ ->
      let p = Xrand.float g *. 100.0 in
      let key = gen_key g in
      Set_op
        (if p < update_pct /. 2.0 then History.Add key
         else if p < update_pct then History.Remove key
         else History.Contains key)
  | Vacation ->
      let vs = vac_spec in
      let picks () =
        List.init vs.Tstm_vacation.Vacation.queries_per_tx (fun _ ->
            let tbl = Xrand.int g 3 in
            (tbl, gen_key g))
      in
      let p = Xrand.float g *. 100.0 in
      Vac_op
        (if p < 60.0 then
           V_reserve
             { cid = 1 + Xrand.int g vs.Tstm_vacation.Vacation.n_customers;
               picks = picks () }
         else if p < 70.0 then
           V_cancel
             { cid = 1 + Xrand.int g vs.Tstm_vacation.Vacation.n_customers }
         else V_query { picks = picks () })

(* The schedule: session arrival instants from the (resolved) arrival
   process; each session pins one shard (tenant affinity, drawn through
   the skew pattern so a zipf pattern concentrates tenants) and spaces its
   requests by the think time.  Sorted by arrival, stable in generation
   order. *)
let gen_requests spec ~arrival =
  let sessions = Arrival.times arrival ~seed:spec.seed ~horizon:spec.horizon in
  let g = Xrand.create (Bitops.mix ((spec.seed * 7919) + 1)) in
  let pick_shard = Workload.key_gen spec.pattern ~key_range:spec.shards in
  let pick_key = Workload.key_gen spec.pattern ~key_range:key_range in
  let acc = ref [] in
  List.iter
    (fun t0 ->
      let shard = pick_shard g - 1 in
      for k = 0 to spec.session - 1 do
        let t_arr = t0 +. (float_of_int k *. think) in
        if t_arr < spec.horizon then
          acc :=
            {
              t_arr;
              shard;
              deadline = t_arr +. spec.deadline;
              op = gen_op spec pick_key g;
            }
            :: !acc
      done)
    sessions;
  let a = Array.of_list (List.rev !acc) in
  Array.stable_sort (fun r1 r2 -> Float.compare r1.t_arr r2.t_arr) a;
  a

(* ------------------------------------------------------------------ *)
(* Backend engines                                                     *)
(* ------------------------------------------------------------------ *)

(* One engine packages everything shard-indexed the dispatcher needs; the
   [exec] guard runs first inside every transaction attempt and may raise
   the give-up exceptions. *)
type engine = {
  exec : shard:int -> guard:(unit -> unit) -> op -> bool;
  finalize : unit -> string list;
      (* post-drain correctness checks (linearizability / consistency) *)
  cleanup : unit -> unit;  (* free all service-created state *)
  baseline : int;  (* live_words the cleanup must return to *)
  record : (shard:int -> tid:int -> inv:int -> resp:int -> op -> bool -> unit)
           option;
}

exception Deadline_hit
exception Budget_out

let validate spec =
  let on_domains = spec.kind = Shm.Domains in
  let bad =
    [
      (spec.workers < 1, "workers < 1");
      (spec.shards < 1, "shards < 1");
      (spec.session < 1, "session < 1");
      (spec.retry_budget < 1, "retry_budget < 1");
      (spec.queue_cap < 1, "queue_cap < 1");
      (spec.batch < 1, "batch < 1");
      (spec.horizon <= 0.0, "horizon <= 0");
      (spec.deadline <= 0.0, "deadline <= 0");
      ( (match spec.overload with
        | Some x -> not (Float.is_finite x && x > 0.0)
        | None -> false),
        "overload must be finite and positive" );
      (not (Registry.mem spec.stm), Printf.sprintf "unknown STM %S" spec.stm);
      ( on_domains && spec.san,
        "san needs the simulator: its tap sees only simulated arrays" );
      ( on_domains && spec.watchdog,
        "the watchdog needs the simulator: its record is unsynchronised \
         plain OCaml" );
    ]
  in
  match List.find_opt fst bad with
  | Some (_, msg) -> Error msg
  | None -> Result.map ignore (Cm.of_string spec.cm)

let memory_words spec =
  match spec.backend with
  | Intset structure ->
      (* [initial_size + 64] is [key_range]: the slack covers a shard that
         fills with every key. *)
      spec.shards
      * Workload.arena_words structure ~elements:initial_size
          ~nthreads:spec.workers
  | Vacation ->
      let per =
        Tstm_vacation.Vacation.memory_words_for vac_spec
      in
      (spec.shards * per) + 8192

(* Build the backend over an already-created STM instance.  Population
   happens outside [Runtime.run], so it costs no virtual time. *)
let make_engine (type a) spec
    (module M : Tstm_tm.Tm_intf.STM with type t = a) (t : a) =
  match spec.backend with
  | Intset structure ->
      let module D = Driver.Make (M) (M) in
      let now_cycles = Runtime.now_cycles M.kind in
      let shard_ops =
        Array.init spec.shards (fun _ -> D.make_structure t structure)
      in
      let empty_baseline = M.live_words t in
      let histories =
        if spec.record then
          Some
            (Array.init spec.shards (fun _ ->
                 History.create ~nthreads:spec.workers))
        else None
      in
      (* The checker replays from an empty set, so the pre-population
         inserts must be part of the recorded history: sequential tid-0
         events that precede (in real time) everything the workers log. *)
      Array.iteri
        (fun s ops ->
          let g = Xrand.create (Bitops.mix ((spec.seed * 131) + s)) in
          let inserted = ref 0 in
          while !inserted < initial_size do
            let v = 1 + Xrand.int g key_range in
            let inv = now_cycles () in
            if M.atomically t (fun tx -> ops.D.op_add tx v) then begin
              (match histories with
              | Some hs ->
                  History.record hs.(s) ~tid:0 ~inv ~resp:(now_cycles ())
                    ~op:(History.Add v) ~result:true
              | None -> ());
              incr inserted
            end
          done)
        shard_ops;
      let exec ~shard ~guard op =
        let ops = shard_ops.(shard) in
        match op with
        | Set_op sop ->
            M.atomically t (fun tx ->
                guard ();
                match sop with
                | History.Add k -> ops.D.op_add tx k
                | History.Remove k -> ops.D.op_remove tx k
                | History.Contains k -> ops.D.op_contains tx k)
        | Vac_op _ -> invalid_arg "Service: vacation op on intset backend"
      in
      let record =
        Option.map
          (fun hs ~shard ~tid ~inv ~resp op result ->
            match op with
            | Set_op sop ->
                History.record hs.(shard) ~tid ~inv ~resp ~op:sop ~result
            | Vac_op _ -> ())
          histories
      in
      let finalize () =
        match histories with
        | None -> []
        | Some hs ->
            let violations = ref [] in
            Array.iteri
              (fun s h ->
                let final =
                  M.atomically t (fun tx -> shard_ops.(s).D.op_to_list tx)
                in
                match
                  History.check ~window:64 ~final (History.events h)
                with
                | Ok () -> ()
                | Error msg ->
                    violations :=
                      Printf.sprintf "shard %d: %s" s msg :: !violations)
              hs;
            List.rev !violations
      in
      let cleanup () = Array.iter (D.drain t) shard_ops in
      { exec; finalize; cleanup; baseline = empty_baseline; record }
  | Vacation ->
      let module V = Tstm_vacation.Vacation.Make (M) in
      let vs = vac_spec in
      let tenants =
        Array.init spec.shards (fun s ->
            let v = V.create t in
            V.populate v vs ~seed:(Bitops.mix ((spec.seed * 257) + s)))
      in
      (* Baseline after population: reservations and customer records are
         the only state the service adds, and cancelling every customer
         releases all of it. *)
      let populated_baseline = M.live_words t in
      let table_of = function
        | 0 -> V.Car
        | 1 -> V.Flight
        | _ -> V.Room
      in
      let exec ~shard ~guard op =
        let v = tenants.(shard) in
        match op with
        | Vac_op (V_reserve { cid; picks }) ->
            M.atomically t (fun tx ->
                guard ();
                (* Query each pick, reserve the cheapest available (ties:
                   first) — the Vacation client shape. *)
                let best = ref None in
                List.iter
                  (fun (tbl, id) ->
                    match V.query_price v tx (table_of tbl) id with
                    | Some price -> (
                        match !best with
                        | Some (_, _, p) when p <= price -> ()
                        | _ -> best := Some (tbl, id, price))
                    | None -> ())
                  picks;
                match !best with
                | Some (tbl, id, _) -> V.reserve v tx (table_of tbl) id cid
                | None -> false)
        | Vac_op (V_cancel { cid }) ->
            M.atomically t (fun tx ->
                guard ();
                Option.is_some (V.delete_customer v tx cid))
        | Vac_op (V_query { picks }) ->
            M.atomically t (fun tx ->
                guard ();
                List.fold_left
                  (fun acc (tbl, id) ->
                    acc || Option.is_some (V.query_price v tx (table_of tbl) id))
                  false picks)
        | Set_op _ -> invalid_arg "Service: set op on vacation backend"
      in
      let finalize () =
        let violations = ref [] in
        Array.iteri
          (fun s v ->
            try V.check_consistency v
            with V.Inconsistent msg ->
              violations := Printf.sprintf "tenant %d: %s" s msg :: !violations)
          tenants;
        List.rev !violations
      in
      let cleanup () =
        Array.iter
          (fun v ->
            for cid = 1 to vs.Tstm_vacation.Vacation.n_customers do
              ignore (M.atomically t (fun tx -> V.delete_customer v tx cid))
            done)
          tenants
      in
      {
        exec;
        finalize;
        cleanup;
        baseline = populated_baseline;
        record = None;
      }

(* ------------------------------------------------------------------ *)
(* Capacity calibration                                                *)
(* ------------------------------------------------------------------ *)

(* The service's fault surface is the request path: instance setup,
   population, calibration and the post-run audit run with an armed fault
   plan suspended for the calling thread. *)
let quiet f = Plan.masked ~tid:(Shm.tid ()) f

let make_watchdog spec =
  if spec.watchdog then
    Some
      (Watchdog.create ~window:spec.wd_window ~starve_retries:spec.wd_starve
         ~recover_windows:spec.wd_calm ())
  else None

(* Closed-loop saturation: the same workers, shards and operation mix, but
   back-to-back with no arrival gaps — the commit rate is the service's
   capacity, the denominator of every goodput ratio and the base of the
   [--overload x] rate resolution.  Runs on its own fresh instance (and,
   when the spec arms the watchdog, its own fresh watchdog with the same
   thresholds: its per-commit accounting is part of the capacity being
   measured) so the measured run starts cold. *)
let calib_horizon = 0.001
let dispatch_cost = 80

let calibrate spec policy (module M : Intf.STM) =
  let engine =
    quiet (fun () ->
        make_engine spec (module M)
          (M.create ~cm:policy ?watchdog:(make_watchdog spec)
             ~memory_words:(memory_words spec) ()))
  in
  let g0 = Xrand.create (Bitops.mix ((spec.seed * 11) + 5)) in
  let pick_key = Workload.key_gen spec.pattern ~key_range:key_range in
  (* One pregenerated op ring per worker keeps the loop allocation-free
     and the op mix identical to the open-loop run's. *)
  let ring_len = 256 in
  let rings =
    Array.init spec.workers (fun _ ->
        Array.init ring_len (fun _ -> gen_op spec pick_key g0))
  in
  let commits = Atomic.make 0 in
  let now = Runtime.now M.kind in
  let t0 = now () in
  Runtime.run M.kind ~nthreads:spec.workers (fun w ->
      quiet (fun () ->
          let ring = rings.(w) in
          let i = ref 0 in
          let shard = ref (w mod spec.shards) in
          while now () -. t0 < calib_horizon do
            Shm.charge dispatch_cost;
            (* The same attempt bound as the open-loop run's retry budget,
               so a pathological contention-manager choice cannot hang
               calibration. *)
            let attempts = ref 0 in
            let guard () =
              incr attempts;
              if !attempts > max 64 spec.retry_budget then raise Budget_out
            in
            (match engine.exec ~shard:!shard ~guard ring.(!i) with
            | _ -> Atomic.incr commits
            | exception Budget_out -> ());
            i := (!i + 1) mod ring_len;
            shard := (!shard + 1) mod spec.shards
          done));
  float_of_int (Atomic.get commits) /. calib_horizon

(* ------------------------------------------------------------------ *)
(* The service run                                                     *)
(* ------------------------------------------------------------------ *)

let idle_quantum = 2_000 (* cycles, simulator *)
let idle_sleep = 2e-4 (* seconds, domains *)

(* What a worker does next, decided under the dispatcher lock. *)
type step = Batch of request list | Wait of float | Finished

let packaging spec =
  let e = Option.get (Registry.entry_of spec.stm) in
  match spec.kind with
  | Shm.Simulated -> e.Registry.sim
  | Shm.Domains -> e.Registry.real

let run_one spec =
  (match validate spec with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Service.run_one: " ^ msg));
  let policy = Result.get_ok (Cm.of_string spec.cm) in
  let (module M) = packaging spec in
  let now = Runtime.now M.kind and now_cycles = Runtime.now_cycles M.kind in
  let hz = cycles_per_second M.kind in
  let capacity = calibrate spec policy (module M) in
  let arrival =
    match spec.overload with
    | Some x -> Arrival.scale spec.arrival (x *. capacity)
    | None -> spec.arrival
  in
  let offered = Arrival.mean_rate arrival in
  let reqs = gen_requests spec ~arrival in
  let n = Array.length reqs in
  let wd = make_watchdog spec in
  let body () =
    let t, engine =
      quiet (fun () ->
          let t =
            M.create ~cm:policy ?watchdog:wd ~memory_words:(memory_words spec)
              ()
          in
          (t, make_engine spec (module M) t))
    in
    M.reset_stats t;
    (* Dispatcher state: the cursor, the queues and depths, the SLO
       counters, the completion log, the breaker and the fault counters,
       all behind [lock] on both kinds.  Nothing charges cycles or yields
       while [lock] is held, so on the simulator, whose fibers share one
       system thread, no fiber ever finds it taken: taking it there costs
       no virtual time and cannot block. *)
    let lock = Mutex.create () in
    let queues = Array.init spec.shards (fun _ -> Queue.create ()) in
    let depth = Array.make spec.shards 0 in
    let cursor = ref 0 in
    let max_depth = ref 0 in
    let hot_dispatches = ref 0 in
    let slo = Slo.create () in
    let log = ref [] in
    let crash_faults = ref 0 in
    let faults_retried = ref 0 in
    let ends = Array.make spec.workers 0.0 in
    let t0 = now () in
    let clock () = now () -. t0 in
    let breaker =
      Breaker.create Breaker.default ~on_transition:(fun st ->
          if Sink.enabled () then
            Sink.emit ~ts:(now_cycles ()) ~cpu:(Shm.tid ())
              (Event.Breaker_trip { state = Breaker.state_to_string st }))
    in
    (* The [_locked] helpers run with [lock] held. *)
    let finish_locked verdict lat_cycles =
      Slo.note slo verdict ~lat_cycles;
      log := (clock (), verdict, lat_cycles) :: !log
    in
    let finish verdict lat_cycles =
      Mutex.protect lock (fun () -> finish_locked verdict lat_cycles)
    in
    let cap =
      match spec.shed with No_shed -> max_int | _ -> spec.queue_cap
    in
    let admit_locked () =
      let now = clock () in
      while !cursor < n && reqs.(!cursor).t_arr <= now do
        let r = reqs.(!cursor) in
        incr cursor;
        if not (Breaker.admit breaker ~now) then finish_locked Slo.Tripped 0
        else if depth.(r.shard) >= cap then finish_locked Slo.Shed 0
        else begin
          Queue.push r queues.(r.shard);
          depth.(r.shard) <- depth.(r.shard) + 1;
          if depth.(r.shard) > !max_depth then max_depth := depth.(r.shard)
        end
      done
    in
    let wd_degraded () =
      match wd with
      | Some w -> Watchdog.level w <> Watchdog.Normal
      | None -> false
    in
    let hot_threshold = max 1 (spec.queue_cap / 2) in
    (* Under [Serialize_hot], a degraded watchdog or a deep queue turns a
       shard owner-only: cross-worker conflicts on the hot tenant drop to
       zero, the request-level analogue of serial-irrevocable escalation. *)
    let restricted s =
      spec.shed = Serialize_hot
      && (wd_degraded () || depth.(s) >= hot_threshold)
    in
    let take_locked w =
      let found = ref None in
      let k = ref 0 in
      while !found = None && !k < spec.shards do
        let s = (w + !k) mod spec.shards in
        if depth.(s) > 0 then
          if restricted s then begin
            if s mod spec.workers = w then begin
              incr hot_dispatches;
              found := Some s
            end
          end
          else found := Some s;
        incr k
      done;
      match !found with
      | None -> None
      | Some s ->
          let m = min spec.batch depth.(s) in
          let batch = ref [] in
          for _ = 1 to m do
            batch := Queue.pop queues.(s) :: !batch
          done;
          depth.(s) <- depth.(s) - m;
          Some (List.rev !batch)
    in
    let next_locked w =
      admit_locked ();
      match take_locked w with
      | Some batch -> Batch batch
      | None ->
          if !cursor >= n && Array.for_all (fun d -> d = 0) depth then Finished
          else if !cursor < n then Wait (reqs.(!cursor).t_arr -. clock ())
          else Wait 0.0
    in
    (* Idle until the next arrival, or briefly when only restricted shards
       or other workers' batches hold work. *)
    let wait dt =
      match M.kind with
      | Shm.Simulated ->
          Shm.charge
            (if dt > 0.0 then 1 + int_of_float (dt *. hz) else idle_quantum)
      | Shm.Domains ->
          Unix.sleepf (if dt > 0.0 then Float.min dt idle_sleep else idle_sleep)
    in
    let lat_of r =
      let l = clock () -. r.t_arr in
      if l <= 0.0 then 0 else int_of_float (l *. hz)
    in
    let hopeless_drop =
      match spec.shed with
      | Deadline_aware | Serialize_hot -> true
      | No_shed | Drop_newest -> false
    in
    let process w r =
      if hopeless_drop && clock () > r.deadline then
        finish Slo.Dropped (lat_of r)
      else begin
        Shm.charge dispatch_cost;
        let attempts = ref 0 in
        let guard () =
          incr attempts;
          if !attempts > spec.retry_budget then raise Budget_out;
          if clock () > r.deadline then raise Deadline_hit
        in
        let rec go crashes =
          let inv = now_cycles () in
          match engine.exec ~shard:r.shard ~guard r.op with
          | result ->
              let resp = now_cycles () in
              (match engine.record with
              | Some rec_fn ->
                  rec_fn ~shard:r.shard ~tid:w ~inv ~resp r.op result
              | None -> ());
              let lat = lat_of r in
              Mutex.protect lock (fun () ->
                  Breaker.on_success breaker ~now:(clock ());
                  finish_locked
                    (if clock () <= r.deadline then Slo.Committed else Slo.Late)
                    lat)
          | exception Deadline_hit -> finish Slo.Gave_up (lat_of r)
          | exception Budget_out -> finish Slo.Budget_exhausted (lat_of r)
          | exception Plan.Injected_crash _ ->
              (* The transaction rolled back cleanly; the request, not the
                 worker, absorbs the crash and retries within its budget. *)
              let retry =
                Mutex.protect lock (fun () ->
                    incr crash_faults;
                    Breaker.on_fault breaker ~now:(clock ());
                    let retry = crashes + 1 < spec.retry_budget in
                    if retry then incr faults_retried;
                    retry)
              in
              if retry then go (crashes + 1) else finish Slo.Faulted (lat_of r)
          | exception Intf.Capacity _ ->
              (* Arena exhaustion: retrying cannot help. *)
              Mutex.protect lock (fun () ->
                  Breaker.on_fault breaker ~now:(clock ());
                  finish_locked Slo.Faulted (lat_of r))
        in
        go 0
      end
    in
    Runtime.run M.kind ~nthreads:spec.workers (fun w ->
        let rec loop () =
          match Mutex.protect lock (fun () -> next_locked w) with
          | Batch batch ->
              List.iter (process w) batch;
              Shm.yield ();
              loop ()
          | Wait dt ->
              wait dt;
              loop ()
          | Finished -> ()
        in
        loop ();
        ends.(w) <- clock ());
    (* Drained: verify, then tear down the service state and compare the
       allocator against the engine's baseline. *)
    let violations, stats, leak_words =
      quiet (fun () ->
          let violations = engine.finalize () in
          let stats = M.stats t in
          engine.cleanup ();
          (violations, stats, M.live_words t - engine.baseline))
    in
    let slo = Slo.summary slo in
    let violations =
      if slo.Slo.requests = n then violations
      else
        violations
        @ [
            Printf.sprintf "accounting: %d verdicts for %d requests"
              slo.Slo.requests n;
          ]
    in
    {
      capacity;
      offered;
      goodput = float_of_int slo.Slo.committed /. spec.horizon;
      slo;
      max_depth = !max_depth;
      hot_dispatches = !hot_dispatches;
      wd = Option.map Watchdog.snapshot wd;
      stats;
      violations;
      san_findings = [];
      leak_words;
      elapsed = Array.fold_left Float.max 0.0 ends;
      log = Array.of_list (List.rev !log);
      crash_faults = !crash_faults;
      faults_retried = !faults_retried;
      breaker_trips = Breaker.trips breaker;
      breaker_state = Breaker.state breaker;
    }
  in
  if spec.san then
    let report, san_findings =
      San.with_armed ~ncpus:(max 1 spec.workers) body
    in
    { report with san_findings }
  else body ()

(* ------------------------------------------------------------------ *)
(* Per-period SLO table                                                *)
(* ------------------------------------------------------------------ *)

let per_period_metrics ~periods report =
  if periods < 1 then invalid_arg "Service.per_period_metrics: periods < 1";
  let span = if report.elapsed > 0.0 then report.elapsed else 1.0 in
  let slos = Array.init periods (fun _ -> Slo.create ()) in
  Array.iter
    (fun (t_done, verdict, lat) ->
      let idx =
        min (periods - 1)
          (max 0 (int_of_float (t_done /. span *. float_of_int periods)))
      in
      Slo.note slos.(idx) verdict ~lat_cycles:lat)
    report.log;
  let m = Tstm_obs.Metrics.create ~columns:Slo.columns in
  Array.iteri
    (fun i s ->
      let t_end = span *. float_of_int (i + 1) /. float_of_int periods in
      Tstm_obs.Metrics.add_row m
        (Slo.row ~period:i ~t_end (Slo.summary s)))
    slos;
  m

(* ------------------------------------------------------------------ *)
(* Sweep plan                                                          *)
(* ------------------------------------------------------------------ *)

(* seeds (outer) x stm x shed (inner), mirroring [Stress.plan]: plan rank
   order equals sequential execution order. *)
let plan ~seeds ~stms ~sheds base =
  let acc = ref [] in
  for seed = seeds - 1 downto 0 do
    List.iter
      (fun stm ->
        List.iter
          (fun shed -> acc := { base with stm; shed; seed } :: !acc)
          (List.rev sheds))
      (List.rev stms)
  done;
  Array.of_list !acc
