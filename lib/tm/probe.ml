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

(* Stamped by the instance's own clock ([clk] is any of its arrays), so a
   simulated instance traced outside a run stamps 0, never wall time.  Out
   of line: every event is a cold path. *)
let[@inline never] emit ~clk ev =
  Sink.emit ~ts:(Shm.now_cycles clk) ~cpu:(Shm.tid ()) ev

let tracing = Sink.enabled
let sanning = San.enabled

let fault_fired ~clk ~kind p =
  if tracing () then
    emit ~clk (Event.Tx_fault { kind; point = Plan.point_name p })

(* The plan's decision at [p].  A delay is simulated time; a crash
   unwinds through the caller's user-exception path; a hang stalls
   wall-clock time without a heartbeat tick. *)
let perturb ~clk ~tid (stats : Stats.t) p =
  if Plan.enabled () then
    match Plan.at p ~tid with
    | Proceed | Oom -> ()
    | Delay n -> Shm.charge n
    | Crash ->
        stats.faults_crash <- stats.faults_crash + 1;
        fault_fired ~clk ~kind:"crash" p;
        raise (Plan.Injected_crash { tid; point = Plan.point_name p })
    | Hang ns ->
        stats.faults_hang <- stats.faults_hang + 1;
        fault_fired ~clk ~kind:"hang" p;
        Plan.hang ~ns

let tx_begin ~clk ~cpu stats =
  perturb ~clk ~tid:cpu stats Tx_begin;
  if sanning () then San.tx_begin ~cpu

let tx_started ~clk span (stats : Stats.t) =
  if tracing () then begin
    span.start <- Shm.now_cycles clk;
    span.reads0 <- stats.reads;
    span.writes0 <- stats.writes;
    emit ~clk Event.Tx_begin
  end

let serial_begin ~clk ~cpu span stats =
  if sanning () then San.tx_begin ~cpu;
  tx_started ~clk span stats

let tx_committed ~clk span (stats : Stats.t) ~read_only ~retries =
  if tracing () then begin
    let lat = Shm.now_cycles clk - span.start in
    let reads = stats.reads - span.reads0 in
    let writes = stats.writes - span.writes0 in
    emit ~clk (Event.Tx_commit { read_only; reads; writes; retries });
    Sink.note_commit ~cpu:(Shm.tid ()) ~lat ~retries ~reads ~writes
  end

let tx_aborted ~clk span ~reason ~retries =
  if tracing () then begin
    let lat = Shm.now_cycles clk - span.start in
    let reason = Stats.abort_reason_to_string reason in
    emit ~clk (Event.Tx_abort { reason; retries });
    Sink.note_abort ~cpu:(Shm.tid ()) ~lat
  end

let tx_abort ~cpu = if sanning () then San.tx_abort ~cpu
let tx_exit ~cpu ~committed = if sanning () then San.tx_exit ~cpu ~committed
let escalated ~clk ~retries =
  if tracing () then emit ~clk (Event.Tx_escalate { retries })

let oom ~clk =
  if tracing () then
    emit ~clk (Event.Tx_fault { kind = "oom"; point = "alloc" })

let watchdog ~clk ev =
  if tracing () then
    emit ~clk
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

let extended ~clk ~cpu ~value =
  clock_read ~cpu ~value;
  if tracing () then emit ~clk Event.Clock_extend

let clock_advance ~cpu ~drawn =
  if sanning () then San.clock_advance ~cpu ~drawn
let reconfigured () = if sanning () then San.rollover ~cpu:(Shm.tid ())

let clock_rollover ~clk =
  reconfigured ();
  if tracing () then emit ~clk Event.Clock_rollover

let read_accepted ~cpu ~addr = if sanning () then San.read_accept ~cpu ~addr

let lock_acquired ~clk ~cpu stats ~lock =
  if sanning () then San.lock_acquire ~cpu ~lock;
  perturb ~clk ~tid:cpu stats Lock_acquired;
  if tracing () then emit ~clk (Event.Lock_acquire { lock })

let lock_released ~clk ~cpu ~lock =
  if sanning () then San.lock_release ~cpu ~lock;
  if tracing () then emit ~clk (Event.Lock_release { lock })

let commit_publish ~cpu ~wv = if sanning () then San.commit_publish ~cpu ~wv

let serial_publish ~cpu ~wv =
  clock_advance ~cpu ~drawn:wv;
  commit_publish ~cpu ~wv

let seqlock_validate ~cpu ~value =
  if sanning () then San.seqlock_validate ~cpu ~value

let seqlock_acquired ~clk ~cpu stats ~drawn =
  if sanning () then San.seqlock_acquire ~cpu ~drawn;
  perturb ~clk ~tid:cpu stats Lock_acquired;
  if tracing () then emit ~clk (Event.Lock_acquire { lock = 0 })

let serial_seqlock_released ~cpu = if sanning () then San.seqlock_release ~cpu

let seqlock_released ~clk ~cpu =
  serial_seqlock_released ~cpu;
  if tracing () then emit ~clk (Event.Lock_release { lock = 0 })

let serial_seqlock_acquired ~cpu ~wv =
  if sanning () then San.seqlock_acquire ~cpu ~drawn:wv;
  commit_publish ~cpu ~wv
