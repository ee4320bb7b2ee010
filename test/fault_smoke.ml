(* Fault-injection smoke battery (`dune build @fault-smoke`; folded into
   runtest).  Four legs:

   1. disarmed sanity — with no plan armed the taps are inert and a short
      bench cell passes its full integrity audit;
   2. a seeded sweep of every STM family x {crash, hang, oom} under
      [Fault_run]: every run must heal (no escaped exception, clean drain,
      zero arena drift) and every kind must actually fire somewhere;
   3. the Bench_real failed-repetition contract — a single injected crash
      inside a timed repetition becomes a typed [failed_reps] entry while
      the remaining repetitions still yield samples;
   4. a [Service_real] fault burst — the breaker trips, the run keeps
      goodput above zero, and once the bounded storm ends the breaker
      recovers to closed with the integrity audit green. *)

module Plan = Tstm_chaos.Plan
module FR = Tstm_harness.Fault_run
module BR = Tstm_harness.Bench_real
module Bench = Tstm_obs.Bench
module SR = Tstm_service.Service_real

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("fault-smoke: FAIL " ^ s);
      exit 1)
    fmt

let disarmed () =
  if Plan.enabled () then fail "a plan is armed at startup";
  let proto =
    { BR.duration_s = 0.02; warmup_s = 0.0; reps = 2; observe = false }
  in
  let req =
    { BR.default_request with BR.structure = "hashset"; domains = 2; size = 64 }
  in
  match BR.run_cell req proto with
  | Error m -> fail "disarmed bench rejected: %s" m
  | exception e -> fail "disarmed bench raised: %s" (Printexc.to_string e)
  | Ok (_, integ) ->
      if integ.BR.violations <> [] then
        fail "disarmed bench violations: %s"
          (String.concat "; " integ.BR.violations);
      if integ.BR.failed_reps <> [] then fail "disarmed bench failed a rep";
      print_endline "fault-smoke: disarmed taps inert, bench cell clean"

let sweep () =
  let specs =
    FR.plan ~seeds:2 ~stms:BR.stm_names
      ~kinds:FR.[ Crash; Hang; Oom ]
      { FR.default with FR.domains = 2; per_thread = 150 }
  in
  let fired = Hashtbl.create 3 in
  Array.iter
    (fun spec ->
      let r = FR.run_one spec in
      if not (FR.healed r) then
        fail "not healed (%s): error=%s leak=%d violations=[%s]"
          (Tstm_exec.Cli.Fault.replay spec)
          (Option.value ~default:"-" r.FR.error)
          r.FR.leak_words
          (String.concat "; " r.FR.violations);
      let k = FR.kind_name spec.FR.kind in
      let prev = try Hashtbl.find fired k with Not_found -> 0 in
      Hashtbl.replace fired k (prev + r.FR.fired))
    specs;
  List.iter
    (fun k ->
      if (try Hashtbl.find fired k with Not_found -> 0) = 0 then
        fail "kind %s never fired across the sweep" k)
    [ "crash"; "hang"; "oom" ];
  Printf.printf "fault-smoke: sweep healed all %d runs\n%!" (Array.length specs)

(* One crash, capped by [limit:1], landing inside a timed repetition.  The
   populate phase runs under the same armed plan, so some seeds spend the
   crash there (it then escapes [run_cell]); retry seeds until one lands in
   a repetition.  The crashed repetition must surface as a typed
   [failed_reps] entry — never abort the remaining repetitions. *)
let bench_failed_rep () =
  let proto =
    { BR.duration_s = 0.03; warmup_s = 0.0; reps = 3; observe = false }
  in
  let req =
    { BR.default_request with BR.structure = "hashset"; domains = 2; size = 32 }
  in
  let burst =
    Plan.Real { crash_pct = 1.0; hang_pct = 0.0; hang_us = 1; oom_pct = 0.0 }
  in
  let rec attempt s =
    if s >= 20 then
      fail "bench failed-rep: no seed landed the crash in a timed repetition"
    else begin
      Plan.activate ~config:burst ~limit:1 ~seed:(1000 + s) ();
      let outcome =
        match BR.run_cell { req with BR.seed = s } proto with
        | r -> Some r
        | exception Plan.Injected_crash _ -> None (* spent during populate *)
      in
      Plan.deactivate ();
      match outcome with
      | Some (Ok (cell, integ)) when integ.BR.failed_reps <> [] ->
          let kept = List.length cell.Bench.samples in
          let lost = List.length integ.BR.failed_reps in
          if kept + lost <> proto.BR.reps then
            fail "bench failed-rep: %d samples + %d failures <> %d reps" kept
              lost proto.BR.reps;
          List.iter
            (fun (_, e) ->
              (* The registered printer for [Plan.Injected_crash]. *)
              let sub = "injected worker crash" in
              let n = String.length sub and m = String.length e in
              let rec has i =
                i + n <= m && (String.sub e i n = sub || has (i + 1))
              in
              if not (has 0) then fail "bench failed-rep: untyped failure %S" e)
            integ.BR.failed_reps;
          Printf.printf
            "fault-smoke: bench seed %d lost %d rep(s) to the crash, kept %d \
             sample(s)\n\
             %!"
            s lost kept
      | Some (Ok _) | Some (Error _) | None -> attempt (s + 1)
    end
  in
  attempt 0

let service_burst () =
  Plan.activate ~config:SR.fault_burst ~limit:12 ~seed:7 ();
  let r =
    Fun.protect ~finally:Plan.deactivate (fun () -> SR.run_one SR.default)
  in
  if SR.failed r then
    fail "service burst: leak=%d violations=[%s]" r.SR.leak_words
      (String.concat "; " r.SR.violations);
  if r.SR.crash_faults = 0 then fail "service burst: no crash faults recorded";
  if r.SR.breaker_trips = 0 then fail "service burst: breaker never tripped";
  if r.SR.breaker_state <> "closed" then
    fail "service burst: breaker did not recover (final %s)" r.SR.breaker_state;
  if r.SR.goodput <= 0.0 then fail "service burst: zero goodput";
  Printf.printf
    "fault-smoke: service burst survived (%d crash faults, %d trips, \
     recovered closed, goodput %.0f/s)\n\
     %!"
    r.SR.crash_faults r.SR.breaker_trips r.SR.goodput

let () =
  disarmed ();
  sweep ();
  bench_failed_rep ();
  service_burst ();
  print_endline "fault-smoke: OK"
