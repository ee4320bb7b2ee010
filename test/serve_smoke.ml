(* Serve smoke: a short deterministic overload run per STM asserting the
   shed/goodput invariants the service layer exists to provide.

   For every registry STM, drive the default list-set service at 2x the
   calibrated capacity:

   - with shedding disabled ([No_shed]) the deadline-miss rate blows up
     (most admitted requests miss) and the executed-request p99 blows past
     the configured deadline;
   - with the full ladder ([Serialize_hot]) goodput stays >= 80% of the
     calibrated capacity, at most 1% of commits land past the deadline,
     and nothing is left unaccounted;
   - both runs pass [Service.failed]: every request has exactly one
     verdict, nothing leaks and no violation is reported.

   Exit code 0 = all invariants hold on every STM. *)

module Service = Tstm_service.Service
module Slo = Tstm_obs.Slo

let check label cond =
  if not cond then begin
    Printf.eprintf "serve-smoke FAILED: %s\n" label;
    exit 1
  end

let hz = Service.cycles_per_second Tstm_runtime.Shm.Simulated

let run stm =
  let base = { Service.default with stm; seed = 7; watchdog = true } in
  (* (a) shedding disabled: the queue grows without bound and the SLO is
     blown. *)
  let r0 = Service.run_one { base with shed = Service.No_shed } in
  let s0 = r0.Service.slo in
  check (stm ^ ": no-shed passes") (not (Service.failed r0));
  check (stm ^ ": no-shed sheds nothing") (s0.Slo.shed = 0);
  check (stm ^ ": no-shed misses deadlines")
    (float_of_int s0.Slo.deadline_missed
    >= 0.3 *. float_of_int (max 1 s0.Slo.admitted));
  check (stm ^ ": no-shed p99 blows past the deadline")
    (float_of_int s0.Slo.p99_done /. hz >= base.Service.deadline);
  (* (b) the full ladder: goodput and tail latency hold. *)
  let r1 = Service.run_one { base with shed = Service.Serialize_hot } in
  let s1 = r1.Service.slo in
  check (stm ^ ": ladder passes") (not (Service.failed r1));
  check (stm ^ ": ladder sheds under overload")
    (s1.Slo.shed + s1.Slo.dropped > 0);
  check (stm ^ ": ladder goodput >= 80% of capacity")
    (r1.Service.goodput >= 0.8 *. r1.Service.capacity);
  check (stm ^ ": ladder keeps late commits under 1%")
    (float_of_int s1.Slo.late
    <= 0.01 *. float_of_int (max 1 (s1.Slo.committed + s1.Slo.late)));
  Printf.printf
    "serve-smoke %s: capacity=%.0f/s offered=%.0f/s | no-shed: missed %d/%d \
     p99done=%.2fms | ladder: goodput=%.0f/s shed=%d dropped=%d late=%d\n"
    stm r1.Service.capacity r1.Service.offered s0.Slo.deadline_missed
    s0.Slo.admitted
    (float_of_int s0.Slo.p99_done /. hz *. 1e3)
    r1.Service.goodput s1.Slo.shed s1.Slo.dropped s1.Slo.late

let () =
  List.iter run Tstm_harness.Scenario.all_stms;
  print_endline "serve-smoke: all invariants hold"
