module Sink = Tstm_obs.Sink
module Event = Tstm_obs.Event
module Plan = Tstm_chaos.Plan
module San = Tstm_san.San
module Watchdog = Tstm_runtime.Watchdog
module Shm = Tstm_runtime.Shm
module Stats = Tm_stats

let on = Tstm_util.Gate.on

type point = Plan.point =
  | Charge
  | Tx_begin
  | Lock_cas
  | Lock_acquired
  | Clock_sample
  | Clock_inc
  | Write_back
  | Clock_read
  | Commit
  | Abort
  | Alloc

type bug = Plan.bug = Skip_extension | Skip_validation

let bug_active = Plan.bug_active

type span = { mutable start : int; mutable reads0 : int; mutable writes0 : int }

let span () = { start = 0; reads0 = 0; writes0 = 0 }

(* Every event calls the systems in the order the call sites always had:
   traces, plan replays and virtual time depend on it. *)
module Make (R : Tstm_runtime.Runtime_intf.S) = struct
  (* Out of line: inlined into a barrier, the clock read through [R] would
     put an indirect call back on the read path. *)
  let[@inline never] emit ev =
    Sink.emit ~ts:(R.now_cycles ()) ~cpu:(Shm.tid ()) ev

  let tracing = Sink.enabled
  let sanning = San.enabled

  let fault_fired ~kind p =
    if tracing () then emit (Event.Tx_fault { kind; point = Plan.point_name p })

  (* The plan's decision at [p].  A delay is simulated time; a crash
     unwinds through the caller's user-exception path; a hang stalls
     wall-clock time without a heartbeat tick. *)
  let perturb ~tid (stats : Stats.t) p =
    if Plan.enabled () then
      match Plan.at p ~tid with
      | Proceed | Oom -> ()
      | Delay n -> Shm.charge n
      | Crash ->
          stats.faults_crash <- stats.faults_crash + 1;
          fault_fired ~kind:"crash" p;
          raise (Plan.Injected_crash { tid; point = Plan.point_name p })
      | Hang ns ->
          stats.faults_hang <- stats.faults_hang + 1;
          fault_fired ~kind:"hang" p;
          Plan.hang ~ns

  let tx_begin ~cpu stats =
    perturb ~tid:cpu stats Tx_begin;
    if sanning () then San.tx_begin ~cpu

  let tx_started span (stats : Stats.t) =
    if tracing () then begin
      span.start <- R.now_cycles ();
      span.reads0 <- stats.reads;
      span.writes0 <- stats.writes;
      emit Event.Tx_begin
    end

  let serial_begin ~cpu span stats =
    if sanning () then San.tx_begin ~cpu;
    tx_started span stats

  let tx_committed span (stats : Stats.t) ~read_only ~retries =
    if tracing () then begin
      let lat = R.now_cycles () - span.start in
      let reads = stats.reads - span.reads0 in
      let writes = stats.writes - span.writes0 in
      emit (Event.Tx_commit { read_only; reads; writes; retries });
      Sink.note_commit ~lat ~retries ~reads ~writes
    end

  let tx_aborted span ~reason ~retries =
    if tracing () then begin
      let lat = R.now_cycles () - span.start in
      let reason = Stats.abort_reason_to_string reason in
      emit (Event.Tx_abort { reason; retries });
      Sink.note_abort ~lat
    end

  let tx_abort ~cpu = if sanning () then San.tx_abort ~cpu
  let tx_exit ~cpu ~committed = if sanning () then San.tx_exit ~cpu ~committed
  let escalated ~retries =
    if tracing () then emit (Event.Tx_escalate { retries })

  let oom () =
    if tracing () then emit (Event.Tx_fault { kind = "oom"; point = "alloc" })

  let watchdog ev =
    if tracing () then
      emit
        (match ev with
        | Watchdog.Livelock { window } -> Event.Tx_livelock { window }
        | Watchdog.Starved { retries; _ } -> Event.Tx_starved { retries }
        | Watchdog.Switch { level } ->
            Event.Cm_switch { level = Watchdog.level_to_string level })

  let fence_pass ~cpu = if sanning () then San.fence_pass ~cpu
  let thread_park ~cpu = if sanning () then San.thread_park ~cpu
  let fence_owner_entry ~cpu = if sanning () then San.fence_owner_entry ~cpu
  let fence_owner_exit ~cpu = if sanning () then San.fence_owner_exit ~cpu
  let clock_read ~cpu ~value = if sanning () then San.clock_read ~cpu ~value

  let extended ~cpu ~value =
    clock_read ~cpu ~value;
    if tracing () then emit Event.Clock_extend

  let clock_advance ~cpu ~drawn =
    if sanning () then San.clock_advance ~cpu ~drawn
  let reconfigured () = if sanning () then San.rollover ~cpu:(Shm.tid ())

  let clock_rollover () =
    reconfigured ();
    if tracing () then emit Event.Clock_rollover

  let read_accepted ~cpu ~addr = if sanning () then San.read_accept ~cpu ~addr

  let lock_acquired ~cpu stats ~lock =
    if sanning () then San.lock_acquire ~cpu ~lock;
    perturb ~tid:cpu stats Lock_acquired;
    if tracing () then emit (Event.Lock_acquire { lock })

  let lock_released ~cpu ~lock =
    if sanning () then San.lock_release ~cpu ~lock;
    if tracing () then emit (Event.Lock_release { lock })

  let commit_publish ~cpu ~wv = if sanning () then San.commit_publish ~cpu ~wv

  let serial_publish ~cpu ~wv =
    clock_advance ~cpu ~drawn:wv;
    commit_publish ~cpu ~wv

  let seqlock_validate ~cpu ~value =
    if sanning () then San.seqlock_validate ~cpu ~value

  let seqlock_acquired ~cpu stats ~drawn =
    if sanning () then San.seqlock_acquire ~cpu ~drawn;
    perturb ~tid:cpu stats Lock_acquired;
    if tracing () then emit (Event.Lock_acquire { lock = 0 })

  let serial_seqlock_released ~cpu = if sanning () then San.seqlock_release ~cpu

  let seqlock_released ~cpu =
    serial_seqlock_released ~cpu;
    if tracing () then emit (Event.Lock_release { lock = 0 })

  let serial_seqlock_acquired ~cpu ~wv =
    if sanning () then San.seqlock_acquire ~cpu ~drawn:wv;
    commit_publish ~cpu ~wv
end
