module Sink = Tstm_obs.Sink
module Event = Tstm_obs.Event
module Chaos = Tstm_chaos.Chaos
module San = Tstm_san.San
module Fault = Tstm_fault.Fault
module Watchdog = Tstm_runtime.Watchdog
module Stats = Tm_stats

let on = Tstm_util.Gate.on

type point = Clock_read | Commit | Abort

let point_name = function
  | Clock_read -> "clock-read"
  | Commit -> "commit"
  | Abort -> "abort"

type bug = Chaos.bug = Skip_extension | Skip_validation

let bug_active = Chaos.bug_active

type span = { mutable start : int; mutable reads0 : int; mutable writes0 : int }

let span () = { start = 0; reads0 = 0; writes0 = 0 }

let without_faults ~tid f =
  Fault.mask ~tid;
  Fun.protect ~finally:(fun () -> Fault.unmask ~tid) f

(* Every event calls the systems in the order the call sites always had:
   traces, chaos schedules, fault replays and virtual time depend on it. *)
module Make (R : Tstm_runtime.Runtime_intf.S) = struct
  let emit ev = Sink.emit ~ts:(R.now_cycles ()) ~cpu:(R.tid ()) ev
  let tracing = Sink.enabled
  let sanning = San.enabled

  let preempt () =
    if Chaos.enabled () then begin
      let n = Chaos.preempt () in
      if n > 0 then R.charge n
    end

  let lock_cas = preempt
  let clock_sample = preempt
  let clock_inc = preempt
  let commit_point = preempt

  let tx_begin ~cpu =
    preempt ();
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

  let fault_fired ~kind p =
    if tracing () then emit (Event.Tx_fault { kind; point = point_name p })

  (* A crash unwinds through the caller's user-exception path; a hang
     stalls wall-clock time without a heartbeat tick. *)
  let fault ~tid (stats : Stats.t) p =
    if Fault.enabled () then
      match Fault.at_point ~tid with
      | Fault.Proceed -> ()
      | Fault.Crash ->
          stats.faults_crash <- stats.faults_crash + 1;
          fault_fired ~kind:"crash" p;
          raise (Fault.Injected_crash { tid; point = point_name p })
      | Fault.Hang ns ->
          stats.faults_hang <- stats.faults_hang + 1;
          fault_fired ~kind:"hang" p;
          Fault.hang ~ns

  let after_abort ~tid stats =
    preempt ();
    fault ~tid stats Abort

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
  let reconfigured () = if sanning () then San.rollover ~cpu:(R.tid ())

  let clock_rollover () =
    reconfigured ();
    if tracing () then emit Event.Clock_rollover

  let read_accepted ~cpu ~addr = if sanning () then San.read_accept ~cpu ~addr

  let lock_acquired ~cpu ~lock =
    if sanning () then San.lock_acquire ~cpu ~lock;
    preempt ();
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

  let seqlock_acquired ~cpu ~drawn =
    if sanning () then San.seqlock_acquire ~cpu ~drawn;
    preempt ();
    if tracing () then emit (Event.Lock_acquire { lock = 0 })

  let serial_seqlock_released ~cpu = if sanning () then San.seqlock_release ~cpu

  let seqlock_released ~cpu =
    serial_seqlock_released ~cpu;
    if tracing () then emit (Event.Lock_release { lock = 0 })

  let serial_seqlock_acquired ~cpu ~wv =
    if sanning () then San.seqlock_acquire ~cpu ~drawn:wv;
    commit_publish ~cpu ~wv
end
