(* Real-domain service dispatcher: wall-clock arrivals into mutex-protected
   shard queues, dispatcher domains running one transaction per request,
   a circuit breaker fed by typed faults.  See service_real.mli. *)

module R = Tstm_runtime.Runtime_real
module Shm = Tstm_runtime.Shm
module Mono = Tstm_obs.Monotonic
module Slo = Tstm_obs.Slo
module Sink = Tstm_obs.Sink
module Event = Tstm_obs.Event
module Stats = Tstm_tm.Tm_stats
module Intf = Tstm_tm.Tm_intf
module Plan = Tstm_chaos.Plan
module BR = Tstm_harness.Bench_real
module Driver = Tstm_harness.Driver
module Workload = Tstm_harness.Workload
module Xrand = Tstm_util.Xrand
module Bitops = Tstm_util.Bitops

type spec = {
  stm : string;
  workers : int;
  shards : int;
  structure : Workload.structure;
  arrival : Arrival.t;
  horizon_s : float;
  deadline_s : float;
  fault_budget : int;
  queue_cap : int;
  seed : int;
}

let default =
  {
    stm = "tinystm-wb";
    workers = 3;
    shards = 4;
    structure = Workload.Hashset;
    arrival = { Arrival.shape = Arrival.Poisson; rate = 20_000.0 };
    horizon_s = 0.2;
    deadline_s = 0.01;
    fault_budget = 8;
    queue_cap = 256;
    seed = 42;
  }

(* The workload shape every run shares. *)
let key_range = 1024
let initial_size = 128 (* per-shard pre-population *)
let update_pct = 50.0 (* share of add/remove requests, percent *)

(* Hangs are left out: the dispatchers run under plain [R.run], so a hang
   only adds latency without feeding the breaker. *)
let fault_burst =
  Plan.Real { crash_pct = 10.0; hang_pct = 0.0; hang_us = 1; oom_pct = 2.0 }

type report = {
  offered : int;
  elapsed_s : float;
  goodput : float;
  slo : Slo.summary;
  crash_faults : int;
  faults_retried : int;
  breaker_trips : int;
  breaker_state : string;
  leak_words : int;
  violations : string list;
  stats : Stats.t;
}

let failed r = r.violations <> [] || r.leak_words <> 0

type op = Contains | Add | Remove

type request = {
  t_arr : float;  (* seconds from run start *)
  shard : int;
  key : int;
  op : op;
}

(* The whole request stream is precomputed from the spec — the arrival
   instants by the same pure [Arrival.times] the simulated service uses,
   the per-request shard/key/op by one seeded RNG — so two runs of a spec
   offer identical work (wall-clock interleaving is the only variance). *)
let make_requests spec =
  let g = Xrand.create (Bitops.mix (spec.seed + 0x5e41)) in
  List.map
    (fun t_arr ->
      let shard = Xrand.int g spec.shards in
      let key = 1 + Xrand.int g key_range in
      let op =
        if Xrand.below_percent g update_pct then
          if Xrand.bool g then Add else Remove
        else Contains
      in
      { t_arr; shard; key; op })
    (Arrival.times spec.arrival ~seed:spec.seed ~horizon:spec.horizon_s)

type shard_q = { m : Mutex.t; q : request Queue.t }

let validate spec =
  if spec.workers < 1 then invalid_arg "Service_real: workers < 1";
  if spec.shards < 1 then invalid_arg "Service_real: shards < 1";
  if spec.horizon_s <= 0.0 then invalid_arg "Service_real: horizon <= 0";
  if spec.deadline_s <= 0.0 then invalid_arg "Service_real: deadline <= 0";
  if spec.fault_budget < 1 then invalid_arg "Service_real: fault_budget < 1";
  if spec.queue_cap < 1 then invalid_arg "Service_real: queue_cap < 1"

let run_packed (module M : BR.STM) spec =
  let module D = Driver.Make (M) (M) in
  let wspec =
    Workload.make ~structure:spec.structure ~initial_size:initial_size
      ~update_pct:update_pct ~nthreads:1 ~duration:1.0 ~seed:spec.seed
      ~key_range:key_range ()
  in
  (* Random adds can fill a shard with every key in range. *)
  let memory_words =
    spec.shards
    * Workload.arena_words spec.structure ~elements:key_range
        ~nthreads:spec.workers
  in
  let t = M.create ~memory_words () in
  (* Structure setup, population and (later) the drain run on the
     orchestrator with injection masked: a caller may arm the fault plan
     around the whole run, but the service's fault surface is the request
     path, not setup or the integrity audit. *)
  let masked f = Plan.masked ~tid:(Shm.tid ()) f in
  let opss =
    masked (fun () ->
        Array.init spec.shards (fun _ -> D.make_structure t spec.structure))
  in
  let live_skel = M.live_words t in
  masked (fun () -> Array.iter (fun ops -> D.populate t ops wspec) opss);
  let requests = make_requests spec in
  let offered = List.length requests in
  let queues =
    Array.init spec.shards (fun _ ->
        { m = Mutex.create (); q = Queue.create () })
  in
  let closed = Atomic.make false in
  (* Shared accounting, all under one mutex: the SLO counters, the breaker
     (whose fault window needs a single timeline) and the fault counters. *)
  let stat_m = Mutex.create () in
  let slo = Slo.create () in
  let crash_faults = ref 0 in
  let faults_retried = ref 0 in
  let on_transition st =
    if Sink.enabled () then
      Sink.emit ~ts:(Mono.now_ns ()) ~cpu:(Shm.tid ())
        (Event.Breaker_trip { state = Breaker.state_to_string st })
  in
  let breaker = Breaker.create ~on_transition Breaker.default in
  let t0_ns = Mono.now_ns () in
  let now_s () = float_of_int (Mono.now_ns () - t0_ns) *. 1e-9 in
  let note v ~lat =
    Mutex.lock stat_m;
    Slo.note slo v ~lat_cycles:lat;
    Mutex.unlock stat_m
  in
  let deadline_len_ns = int_of_float (spec.deadline_s *. 1e9) in
  let feeder () =
    List.iter
      (fun r ->
        let rec wait () =
          let now = now_s () in
          if now < r.t_arr then begin
            Unix.sleepf (Float.min 0.0005 (r.t_arr -. now));
            wait ()
          end
        in
        wait ();
        let admitted =
          Mutex.lock stat_m;
          let a = Breaker.admit breaker ~now:(now_s ()) in
          Mutex.unlock stat_m;
          a
        in
        if not admitted then note Slo.Tripped ~lat:0
        else begin
          let sh = queues.(r.shard) in
          Mutex.lock sh.m;
          if Queue.length sh.q >= spec.queue_cap then begin
            Mutex.unlock sh.m;
            note Slo.Shed ~lat:0
          end
          else begin
            Queue.push r sh.q;
            Mutex.unlock sh.m
          end
        end)
      requests;
    Atomic.set closed true
  in
  let take_from i =
    let sh = queues.(i) in
    Mutex.lock sh.m;
    let r = Queue.take_opt sh.q in
    Mutex.unlock sh.m;
    r
  in
  let exec ops r tx =
    match r.op with
    | Contains -> ignore (ops.D.op_contains tx r.key)
    | Add -> ignore (ops.D.op_add tx r.key)
    | Remove -> ignore (ops.D.op_remove tx r.key)
  in
  let process r =
    let arr_ns = t0_ns + int_of_float (r.t_arr *. 1e9) in
    let deadline_ns = arr_ns + deadline_len_ns in
    if Mono.now_ns () > deadline_ns then
      (* Already hopeless at dequeue: deadline-aware drop, no transaction
         burned (same rung as the simulated service's Deadline_aware). *)
      note Slo.Dropped ~lat:(Mono.now_ns () - arr_ns)
    else begin
      let ops = opss.(r.shard) in
      let rec go crashes =
        match M.atomically t (fun tx -> exec ops r tx) with
        | () ->
            let fin = Mono.now_ns () in
            Mutex.lock stat_m;
            Slo.note slo
              (if fin <= deadline_ns then Slo.Committed else Slo.Late)
              ~lat_cycles:(fin - arr_ns);
            Breaker.on_success breaker ~now:(now_s ());
            Mutex.unlock stat_m
        | exception Plan.Injected_crash _ ->
            (* The transaction rolled back cleanly (locks released,
               speculative allocations freed); the request, not the
               worker, absorbs the crash.  Retry within the budget. *)
            Mutex.lock stat_m;
            incr crash_faults;
            Breaker.on_fault breaker ~now:(now_s ());
            let retry = crashes + 1 < spec.fault_budget in
            if retry then incr faults_retried;
            Mutex.unlock stat_m;
            if retry then go (crashes + 1)
            else note Slo.Faulted ~lat:(Mono.now_ns () - arr_ns)
        | exception Intf.Capacity _ ->
            (* Typed arena-exhaustion verdict: retrying cannot help. *)
            Mutex.lock stat_m;
            Breaker.on_fault breaker ~now:(now_s ());
            Mutex.unlock stat_m;
            note Slo.Faulted ~lat:(Mono.now_ns () - arr_ns)
      in
      go 0
    end
  in
  let all_empty () =
    Array.for_all
      (fun sh ->
        Mutex.lock sh.m;
        let e = Queue.is_empty sh.q in
        Mutex.unlock sh.m;
        e)
      queues
  in
  let worker wid () =
    let rec loop idle =
      let rec scan k =
        if k >= spec.shards then None
        else
          match take_from ((wid + idle + k) mod spec.shards) with
          | Some r -> Some r
          | None -> scan (k + 1)
      in
      match scan 0 with
      | Some r ->
          process r;
          loop 0
      | None ->
          if Atomic.get closed && all_empty () then ()
          else begin
            Unix.sleepf 0.0002;
            loop (idle + 1)
          end
    in
    loop 0
  in
  R.run ~nthreads:(spec.workers + 1) (fun tid ->
      if tid = 0 then feeder () else worker (tid - 1) ());
  let elapsed_s = now_s () in
  (* Drain: transactionally remove every remaining element, then compare
     the arena against the pre-populate skeleton baseline.  Injection is
     masked — the run is over; this is the integrity audit. *)
  let violations = ref [] in
  masked (fun () ->
      Array.iteri
        (fun i ops ->
          D.drain t ops;
          let size = M.atomically t (fun tx -> ops.D.op_size tx) in
          if size <> 0 then
            violations :=
              Printf.sprintf "shard %d: %d elements survived the drain" i size
              :: !violations)
        opss);
  let leak_words = M.live_words t - live_skel in
  let s = Slo.summary slo in
  if s.Slo.requests <> offered then
    violations :=
      Printf.sprintf "accounting: %d verdicts <> %d offered" s.Slo.requests
        offered
      :: !violations;
  {
    offered;
    elapsed_s;
    goodput =
      (if elapsed_s > 0.0 then float_of_int s.Slo.committed /. elapsed_s
       else 0.0);
    slo = s;
    crash_faults = !crash_faults;
    faults_retried = !faults_retried;
    breaker_trips = Breaker.trips breaker;
    breaker_state = Breaker.state_to_string (Breaker.state breaker);
    leak_words;
    violations = List.rev !violations;
    stats = M.stats t;
  }

let run_one spec =
  validate spec;
  match BR.find_stm spec.stm with
  | Error m -> invalid_arg ("Service_real: " ^ m)
  | Ok (_canon, m) -> run_packed m spec
