(* The service layer: arrival processes, the admission/shedding ladder,
   the overload demo the ISSUE pins (shedding disabled -> SLO blown;
   ladder -> goodput and tail held), cross-process determinism of serve
   plans, and a small record+san stress sweep with the zero-drift drain
   check.

   Also home to the PR's robustness satellites: negative workload-pattern
   parses and the golden watchdog-threshold defaults of `repro storm` and
   `repro serve`. *)

module Service = Tstm_service.Service
module Arrival = Tstm_service.Arrival
module Breaker = Tstm_service.Breaker
module Slo = Tstm_obs.Slo
module W = Tstm_harness.Workload
module Storm = Tstm_harness.Storm
module Scenario = Tstm_harness.Scenario
module Job = Tstm_exec.Job
module Plan = Tstm_exec.Plan
module Cli = Tstm_exec.Cli
module Shm = Tstm_runtime.Shm

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Arrival processes                                                   *)
(* ------------------------------------------------------------------ *)

let test_arrival_parse_roundtrip () =
  List.iter
    (fun s ->
      match Arrival.of_string s with
      | Error e -> Alcotest.fail (s ^ ": " ^ e)
      | Ok a ->
          check_string ("round-trips " ^ s) s (Arrival.to_string a);
          (match Arrival.of_string (Arrival.to_string a) with
          | Ok a' -> check_bool ("stable " ^ s) true (a = a')
          | Error e -> Alcotest.fail e))
    [
      "poisson:100000";
      "bursty:50000:4:0.001";
      "diurnal:80000:0.002:0.5";
    ];
  (* diurnal amp defaults to 0.8 when omitted. *)
  match Arrival.of_string "diurnal:1000:0.01" with
  | Ok { Arrival.shape = Arrival.Diurnal { amp; _ }; _ } ->
      Alcotest.(check (float 1e-9)) "default amp" 0.8 amp
  | _ -> Alcotest.fail "diurnal without amp rejected"

let test_arrival_parse_negative () =
  List.iter
    (fun s ->
      match Arrival.of_string s with
      | Ok _ -> Alcotest.fail ("accepted " ^ s)
      | Error e -> check_bool ("usage message for " ^ s) true (e <> ""))
    [
      "";
      "poisson";
      "poisson:";
      "poisson:-1";
      "poisson:inf";
      "poisson:nan";
      "bursty:100";
      "bursty:100:0.5:0.01" (* boost must exceed 1 *);
      "bursty:100:4:0" (* period must be positive *);
      "diurnal:100:0.01:1.5" (* amp must stay below 1 *);
      "diurnal:100:0.01:-0.1";
      "weibull:3:4";
    ]

let test_arrival_times () =
  let a = { Arrival.shape = Arrival.Poisson; rate = 50_000.0 } in
  let ts = Arrival.times a ~seed:3 ~horizon:0.01 in
  check_bool "nonempty" true (ts <> []);
  check_bool "deterministic" true (ts = Arrival.times a ~seed:3 ~horizon:0.01);
  check_bool "another seed differs" true
    (ts <> Arrival.times a ~seed:4 ~horizon:0.01);
  let rec ascending = function
    | a :: (b :: _ as rest) -> a <= b && ascending rest
    | _ -> true
  in
  check_bool "ascending" true (ascending ts);
  check_bool "inside the horizon" true
    (List.for_all (fun t -> t >= 0.0 && t < 0.01) ts);
  (* ~500 expected; thinning keeps the count in the right decade. *)
  let n = List.length ts in
  check_bool "plausible count" true (n > 300 && n < 800)

let test_arrival_rates () =
  let base = 1000.0 in
  let bursty =
    { Arrival.shape = Arrival.Bursty { boost = 4.0; period = 0.01 }; rate = base }
  in
  Alcotest.(check (float 1e-6))
    "bursty boosts the window head" (4.0 *. base)
    (Arrival.rate_at bursty ~now:0.001);
  Alcotest.(check (float 1e-6))
    "bursty tail is the base rate" base
    (Arrival.rate_at bursty ~now:0.009);
  Alcotest.(check (float 1e-6))
    "bursty mean counts the duty cycle"
    (base *. (1.0 +. (Arrival.duty *. 3.0)))
    (Arrival.mean_rate bursty);
  let diurnal =
    { Arrival.shape = Arrival.Diurnal { amp = 0.5; period = 0.01 }; rate = base }
  in
  Alcotest.(check (float 1e-6))
    "diurnal mean is the base rate" base (Arrival.mean_rate diurnal);
  Alcotest.(check (float 1e-6))
    "diurnal peak" (1.5 *. base) (Arrival.peak_rate diurnal)

(* ------------------------------------------------------------------ *)
(* Workload-pattern parsing (negative paths)                           *)
(* ------------------------------------------------------------------ *)

let test_pattern_parse_negative () =
  List.iter
    (fun s ->
      match W.pattern_of_string s with
      | Ok _ -> Alcotest.fail ("accepted " ^ s)
      | Error e -> check_bool ("usage message for " ^ s) true (e <> ""))
    [
      "zipf:";
      "zipf:abc";
      "zipf:-1";
      "zipf:0";
      "zipf:inf";
      "zipf:nan";
      "hotspot:-1";
      "hotspot:0";
      "hotspot:";
      "bimodal:-3";
      "rates:0.5";
      "rates:inf";
      "uniform:2";
      "pareto:1.5";
      "";
    ]

let test_pattern_parse_positive () =
  List.iter
    (fun (s, p) ->
      match W.pattern_of_string s with
      | Ok p' -> check_bool ("parses " ^ s) true (p = p')
      | Error e -> Alcotest.fail (s ^ ": " ^ e))
    [
      ("uniform", W.Uniform);
      ("zipf:1.2", W.Zipf 1.2);
      ("hotspot:4", W.Hotspot 4);
      ("bimodal:8", W.Bimodal 8);
      ("rates:2.0", W.Asym 2.0);
    ]

(* ------------------------------------------------------------------ *)
(* Golden watchdog-threshold defaults                                  *)
(* ------------------------------------------------------------------ *)

(* These defaults are CLI surface: `repro storm`/`repro serve` replay
   commands embed them implicitly, so changing one silently changes what
   old repro lines mean.  Pin them. *)
let test_watchdog_defaults () =
  check_int "storm window" 1024 Storm.default.Storm.wd_window;
  check_int "storm retry ceiling" 64 Storm.default.Storm.wd_starve;
  check_int "storm calm windows" 2 Storm.default.Storm.wd_calm;
  check_int "serve window" 50_000 Service.default.Service.wd_window;
  check_int "serve retry ceiling" 64 Service.default.Service.wd_starve;
  check_int "serve calm windows" 2 Service.default.Service.wd_calm

let test_repro_commands_render_thresholds () =
  let storm =
    Cli.Storm.replay
      { Storm.default with Storm.wd_window = 2048; wd_starve = 32; wd_calm = 3 }
  in
  check_bool "storm window flag" true
    (contains ~sub:"--watchdog-window 2048" storm);
  check_bool "storm ceiling flag" true
    (contains ~sub:"--watchdog-retry-ceiling 32" storm);
  check_bool "storm calm flag" true (contains ~sub:"--watchdog-calm 3" storm);
  check_bool "storm defaults stay implicit" false
    (contains ~sub:"--watchdog-window" (Cli.Storm.replay Storm.default));
  let serve =
    Cli.Serve.replay
      {
        Service.default with
        Service.watchdog = true;
        wd_window = 9999;
        shed = Service.Serialize_hot;
      }
  in
  check_bool "serve window flag" true
    (contains ~sub:"--watchdog-window 9999" serve);
  check_bool "serve shed flag" true (contains ~sub:"--shed serialize-hot" serve);
  check_bool "serve defaults stay implicit" false
    (contains ~sub:"--watchdog-window" (Cli.Serve.replay Service.default))

(* ------------------------------------------------------------------ *)
(* Replay lines parse back to the spec that printed them               *)
(* ------------------------------------------------------------------ *)

(* Parse a replay line ("repro CMD FLAG...") with CMD's own term. *)
let parse_line term line =
  match String.split_on_char ' ' line with
  | "repro" :: cmd :: args -> (
      let null = Format.make_formatter (fun _ _ _ -> ()) ignore in
      match
        Cmdliner.Cmd.eval_value ~err:null ~help:null
          ~argv:(Array.of_list (cmd :: args))
          (Cmdliner.Cmd.v (Cmdliner.Cmd.info cmd) term)
      with
      | Ok (`Ok v) -> v
      | _ -> Alcotest.fail ("replay line does not parse: " ^ line))
  | _ -> Alcotest.fail ("not a repro line: " ^ line)

let roundtrip label term replay get spec =
  let line = replay spec in
  check_bool (label ^ " round-trips: " ^ line) true
    (get (parse_line term line) = spec)

let test_replay_lines_roundtrip () =
  let module St = Tstm_harness.Stress in
  let module FR = Tstm_harness.Fault_run in
  roundtrip "stress" Cli.Stress.term Cli.Stress.replay
    (fun (c : Cli.Stress.t) -> c.spec)
    {
      St.stm = "norec";
      structure = W.Skiplist;
      nthreads = 3;
      per_thread = 7;
      key_range = 9;
      seed = 5;
      max_retries = 2;
      cm = "karma";
      pattern = W.Zipf 0.9999999;
      site_limit = Some 4;
      bug = Some Tstm_chaos.Plan.Skip_validation;
      window = 24;
      san = true;
    };
  roundtrip "storm" Cli.Storm.term Cli.Storm.replay
    (fun (c : Cli.Storm.t) -> c.spec)
    {
      Storm.stm = "tl2";
      cm = "serialize:4";
      nthreads = 6;
      quota = 9;
      watchdog = true;
      wd_window = 2048;
      wd_starve = 32;
      wd_calm = 3;
      seed = 7;
    };
  let serve =
    {
      Service.stm = "tinystm-wt";
      kind = Shm.Simulated;
      cm = Service.default.Service.cm;
      backend = Service.Vacation;
      workers = 3;
      shards = 5;
      arrival = { Arrival.shape = Arrival.Poisson; rate = 1234567.0 };
      overload = None;
      session = 2;
      pattern = W.Asym 1.0000001;
      horizon = 0.0012345678;
      deadline = 0.00025;
      retry_budget = 5;
      queue_cap = 17;
      batch = 2;
      shed = Service.Serialize_hot;
      watchdog = true;
      wd_window = 9999;
      wd_starve = 33;
      wd_calm = 4;
      record = true;
      san = true;
      seed = 11;
    }
  in
  List.iter
    (roundtrip "serve" Cli.Serve.term Cli.Serve.replay (fun (c : Cli.Serve.t) ->
         c.spec))
    [
      serve;
      {
        serve with
        Service.backend = Service.Intset W.Hashset;
        overload = Some 1.2345678;
        arrival =
          Arrival.
            { shape = Bursty { boost = 3.3333333; period = 1e-3 }; rate = 7e4 };
      };
      { serve with Service.kind = Shm.Domains; watchdog = false; san = false };
    ];
  roundtrip "fault" Cli.Fault.term Cli.Fault.replay
    (fun (c : Cli.Fault.t) -> c.spec)
    {
      FR.stm = "norec";
      kind = FR.Hang;
      structure = W.List;
      domains = 2;
      per_thread = 50;
      key_range = 64;
      initial_size = 16;
      update_pct = 33.3333333;
      limit = Some 5;
      seed = 9;
    }

(* Default specs print the same lines they always have: old repro lines
   keep their meaning. *)
let test_default_replay_lines () =
  check_string "stress" "repro stress --stm tinystm-wb --structure list --seed 0"
    (Cli.Stress.replay Tstm_harness.Stress.default);
  check_string "storm" "repro storm --stm tinystm-wb --cm suicide --seed 0"
    (Cli.Storm.replay Storm.default);
  check_string "serve" "repro serve --stm tinystm-wb --shed deadline --seed 0"
    (Cli.Serve.replay Service.default);
  check_string "fault"
    "repro fault --stm tinystm-wb --kind crash --structure hashset --domains \
     3 --ops 400 --initial 128 --key-range 512 --update 50 --seed 42"
    (Cli.Fault.replay Tstm_harness.Fault_run.default)

(* `serve --real` runs the one engine on domains, so it rejects only what
   domains cannot run: the sanitizer and the watchdog (see
   [Service.validate]) and a pooled sweep (the fault plan is
   process-global). *)
let test_serve_real_rejects_what_domains_cannot_run () =
  let parses args =
    let null = Format.make_formatter (fun _ _ _ -> ()) ignore in
    match
      Cmdliner.Cmd.eval_value ~err:null ~help:null
        ~argv:(Array.of_list ("serve" :: args))
        (Cmdliner.Cmd.v (Cmdliner.Cmd.info "serve") Cli.Serve.term)
    with
    | Ok (`Ok _) -> true
    | _ -> false
  in
  let with_real expect cases =
    List.iter
      (fun args ->
        check_bool
          (String.concat " " args ^ " with --real")
          expect
          (parses ("--real" :: args)))
      cases
  in
  check_bool "--real alone" true (parses [ "--real" ]);
  with_real true
    [
      [ "--stm"; "tl2"; "--horizon"; "0.1"; "--fault-seed"; "3" ];
      [ "--shed"; "none" ];
      [ "--overload"; "3" ];
      [ "--session"; "2" ];
      [ "--batch"; "2" ];
      [ "--record" ];
      [ "--seeds"; "2" ];
      [ "--metrics-csv"; "m.csv" ];
      [ "--all-stms" ];
      [ "--all-sheds" ];
      [ "--workload"; "zipf:1.2" ];
      [ "--backend"; "vacation" ];
      [ "--jobs"; "1" ];
    ];
  with_real false [ [ "--san" ]; [ "--watchdog" ]; [ "--jobs"; "2" ] ];
  check_bool "--san without --real" true (parses [ "--san" ]);
  check_bool "--fault-seed without --real" false (parses [ "--fault-seed"; "3" ])

(* ------------------------------------------------------------------ *)
(* Spec validation and parsing                                         *)
(* ------------------------------------------------------------------ *)

let test_spec_validation () =
  let expect_invalid label spec =
    match Service.run_one spec with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail (label ^ ": accepted")
  in
  let d = Service.default in
  expect_invalid "workers" { d with Service.workers = 0 };
  expect_invalid "shards" { d with Service.shards = 0 };
  expect_invalid "budget" { d with Service.retry_budget = 0 };
  expect_invalid "deadline" { d with Service.deadline = 0.0 };
  expect_invalid "queue cap" { d with Service.queue_cap = 0 };
  expect_invalid "overload" { d with Service.overload = Some (-2.0) };
  expect_invalid "san on domains"
    { d with Service.kind = Shm.Domains; san = true };
  expect_invalid "watchdog on domains"
    { d with Service.kind = Shm.Domains; watchdog = true };
  match Service.backend_of_string "btree" with
  | Ok _ -> Alcotest.fail "accepted unknown backend"
  | Error e -> check_bool "backend error message" true (contains ~sub:"btree" e)

(* ------------------------------------------------------------------ *)
(* The overload demo (ISSUE acceptance): fixed seed, 2x capacity        *)
(* ------------------------------------------------------------------ *)

(* The same invariants as test/serve_smoke.ml but on a shorter horizon:
   (a) shedding disabled -> deadline-miss rate and executed-request p99
   blow past the SLO; (b) the full ladder -> goodput >= 80% of calibrated
   capacity and admitted-request tail inside the deadline. *)
let overload_demo stm () =
  let hz = Service.cycles_per_second Shm.Simulated in
  let base =
    {
      Service.default with
      Service.stm;
      seed = 7;
      watchdog = true;
      horizon = 0.001;
    }
  in
  let r0 = Service.run_one { base with Service.shed = Service.No_shed } in
  let s0 = r0.Service.slo in
  check_bool "no-shed accounted" true (not (Service.failed r0));
  check_int "no-shed sheds nothing" 0 s0.Slo.shed;
  check_bool "no-shed miss rate blows up" true
    (float_of_int s0.Slo.deadline_missed
    >= 0.3 *. float_of_int (max 1 s0.Slo.admitted));
  check_bool "no-shed p99 past the deadline" true
    (float_of_int s0.Slo.p99_done /. hz >= base.Service.deadline);
  let r1 = Service.run_one { base with Service.shed = Service.Serialize_hot } in
  let s1 = r1.Service.slo in
  check_bool "ladder accounted" true (not (Service.failed r1));
  check_bool "ladder sheds under overload" true (s1.Slo.shed + s1.Slo.dropped > 0);
  check_bool "ladder goodput >= 80% of capacity" true
    (r1.Service.goodput >= 0.8 *. r1.Service.capacity);
  check_bool "ladder keeps the tail inside the deadline" true
    (float_of_int s1.Slo.late
    <= 0.01 *. float_of_int (max 1 (s1.Slo.committed + s1.Slo.late)));
  check_int "no leak either way" 0 (r0.Service.leak_words + r1.Service.leak_words)

(* ------------------------------------------------------------------ *)
(* Cross-process determinism of serve plans                            *)
(* ------------------------------------------------------------------ *)

let fingerprint (res : Plan.result) =
  Digest.to_hex (Digest.string (Marshal.to_string res.Plan.outcomes []))

let test_serve_plan_deterministic () =
  let base =
    { Service.default with Service.horizon = 0.0005; watchdog = true }
  in
  let specs =
    Service.plan ~seeds:2 ~stms:[ "tinystm-wb"; "tl2" ]
      ~sheds:[ Service.No_shed; Service.Serialize_hot ]
      base
  in
  check_int "plan size" 8 (Array.length specs);
  let plan = Array.map (fun s -> Job.Serve_run s) specs in
  let a = Plan.execute ~jobs:1 plan in
  let b = Plan.execute ~jobs:4 plan in
  check_bool "no failures at jobs=1" true (a.Plan.failures = []);
  check_bool "no failures at jobs=4" true (b.Plan.failures = []);
  check_string "byte-identical outcomes across --jobs" (fingerprint a)
    (fingerprint b)

(* ------------------------------------------------------------------ *)
(* Record+san stress sweep with the zero-drift drain check             *)
(* ------------------------------------------------------------------ *)

let test_serve_stress_sweep () =
  let base =
    {
      Service.default with
      Service.horizon = 0.0005;
      record = true;
      san = true;
      watchdog = true;
    }
  in
  let specs =
    Service.plan ~seeds:2 ~stms:Scenario.all_stms
      ~sheds:[ Service.Deadline_aware; Service.Serialize_hot ]
      base
  in
  Array.iter
    (fun spec ->
      let r = Service.run_one spec in
      let label =
        Printf.sprintf "%s/%s/seed=%d" spec.Service.stm
          (Service.shed_to_string spec.Service.shed)
          spec.Service.seed
      in
      check_bool (label ^ ": linearizable") true (r.Service.violations = []);
      check_bool (label ^ ": san-clean") true (r.Service.san_findings = []);
      check_int (label ^ ": zero live-word drift") 0 r.Service.leak_words;
      let s = r.Service.slo in
      check_int
        (label ^ ": admitted = committed + missed + exhausted")
        s.Slo.admitted
        (s.Slo.committed + s.Slo.deadline_missed + s.Slo.budget_exhausted);
      check_int
        (label ^ ": requests = shed + admitted")
        s.Slo.requests
        (s.Slo.shed + s.Slo.admitted))
    specs

(* ------------------------------------------------------------------ *)
(* Vacation backend: multi-tenant consistency + drain                  *)
(* ------------------------------------------------------------------ *)

let test_vacation_backend () =
  let r =
    Service.run_one
      {
        Service.default with
        Service.backend = Service.Vacation;
        horizon = 0.0005;
        san = true;
      }
  in
  check_bool "tenants consistent" true (r.Service.violations = []);
  check_bool "san-clean" true (r.Service.san_findings = []);
  check_int "reservations drain to the populated baseline" 0
    r.Service.leak_words;
  check_bool "it actually served" true (r.Service.slo.Slo.committed > 0)

(* ------------------------------------------------------------------ *)
(* Per-period SLO table                                                *)
(* ------------------------------------------------------------------ *)

let test_per_period_metrics () =
  let r =
    Service.run_one { Service.default with Service.horizon = 0.0005 }
  in
  let m = Service.per_period_metrics ~periods:4 r in
  let csv = Tstm_obs.Metrics.to_csv m in
  check_bool "has the Slo columns" true (contains ~sub:"budget_exhausted" csv);
  (* 4 period rows + header. *)
  let lines = String.split_on_char '\n' (String.trim csv) in
  check_int "one row per period" 5 (List.length lines);
  (* The completion log covers every request (shed included). *)
  let s = r.Service.slo in
  check_int "the log covers every verdict" s.Slo.requests
    (Array.length r.Service.log)

(* ------------------------------------------------------------------ *)
(* The same engine on real domains                                     *)
(* ------------------------------------------------------------------ *)

(* A short recorded run: 20k sessions/s for 20 ms of wall-clock time. *)
let domains_spec =
  {
    Service.default with
    Service.kind = Shm.Domains;
    arrival = { Arrival.shape = Arrival.Poisson; rate = 20_000.0 };
    overload = None;
    horizon = 0.02;
    record = true;
  }

let check_domains_run label r =
  check_bool
    (Printf.sprintf "%s: passes (violations=[%s] leak=%d)" label
       (String.concat "; " r.Service.violations)
       r.Service.leak_words)
    false (Service.failed r);
  check_bool (label ^ ": served") true (r.Service.slo.Slo.requests > 0)

let test_domains_every_stm () =
  List.iter
    (fun stm ->
      check_domains_run stm (Service.run_one { domains_spec with Service.stm }))
    (Tstm_tm.Registry.names ())

let test_domains_vacation () =
  check_domains_run "vacation"
    (Service.run_one { domains_spec with Service.backend = Service.Vacation })

(* ------------------------------------------------------------------ *)
(* Circuit breaker: calm-window state machine at exact boundaries      *)
(* ------------------------------------------------------------------ *)

let bcfg =
  { Breaker.fault_threshold = 3; window_s = 1.0; cooldown_s = 0.5; calm = 2 }

let check_state = Alcotest.check (Alcotest.testable
    (Fmt.of_to_string Breaker.state_to_string) ( = ))

let test_breaker_trips_at_threshold () =
  let b = Breaker.create bcfg in
  Breaker.on_fault b ~now:0.0;
  Breaker.on_fault b ~now:0.1;
  check_state "two faults stay closed" Breaker.Closed (Breaker.state b);
  check_bool "closed admits" true (Breaker.admit b ~now:0.2);
  Breaker.on_fault b ~now:0.2;
  check_state "third fault trips" Breaker.Open (Breaker.state b);
  check_int "trip counted" 1 (Breaker.trips b);
  check_bool "open rejects" false (Breaker.admit b ~now:0.3)

let test_breaker_cooldown_boundary () =
  let b = Breaker.create bcfg in
  List.iter (fun now -> Breaker.on_fault b ~now) [ 0.0; 0.0; 0.0 ];
  check_state "tripped" Breaker.Open (Breaker.state b);
  check_bool "just before cooldown" false (Breaker.admit b ~now:0.499);
  check_state "still open" Breaker.Open (Breaker.state b);
  check_bool "at cooldown probes" true (Breaker.admit b ~now:0.5);
  check_state "half-open" Breaker.Half_open (Breaker.state b)

let test_breaker_fault_while_probing_retrips () =
  let b = Breaker.create bcfg in
  List.iter (fun now -> Breaker.on_fault b ~now) [ 0.0; 0.0; 0.0 ];
  ignore (Breaker.admit b ~now:0.6);
  check_state "probing" Breaker.Half_open (Breaker.state b);
  Breaker.on_success b ~now:0.61;
  Breaker.on_fault b ~now:0.62;
  check_state "probe fault re-opens" Breaker.Open (Breaker.state b);
  check_int "re-open is a trip" 2 (Breaker.trips b);
  (* The cooldown restarted at the re-trip instant, not the first one. *)
  check_bool "fresh cooldown" false (Breaker.admit b ~now:1.0);
  check_bool "fresh cooldown elapses" true (Breaker.admit b ~now:1.12)

let test_breaker_calm_window_closes () =
  let b = Breaker.create bcfg in
  List.iter (fun now -> Breaker.on_fault b ~now) [ 0.0; 0.0; 0.0 ];
  ignore (Breaker.admit b ~now:0.6);
  Breaker.on_success b ~now:0.7;
  check_state "calm - 1 stays half-open" Breaker.Half_open (Breaker.state b);
  Breaker.on_success b ~now:0.8;
  check_state "calm-th success closes" Breaker.Closed (Breaker.state b);
  (* Closing cleared the fault window: the old burst cannot combine with
     fresh faults to re-trip early. *)
  Breaker.on_fault b ~now:0.9;
  Breaker.on_fault b ~now:0.91;
  check_state "window cleared on close" Breaker.Closed (Breaker.state b);
  Breaker.on_fault b ~now:0.92;
  check_state "fresh burst re-trips" Breaker.Open (Breaker.state b)

let test_breaker_window_prunes_stale_faults () =
  let b = Breaker.create bcfg in
  Breaker.on_fault b ~now:0.0;
  Breaker.on_fault b ~now:0.1;
  (* 1.5 is past 0.0 + window and 0.1 + window: both prune; this third
     fault stands alone and must not trip. *)
  Breaker.on_fault b ~now:1.5;
  check_state "stale faults pruned" Breaker.Closed (Breaker.state b);
  Breaker.on_fault b ~now:1.6;
  Breaker.on_fault b ~now:1.7;
  check_state "in-window burst trips" Breaker.Open (Breaker.state b)

let test_breaker_create_validates () =
  List.iter
    (fun cfg ->
      match Breaker.create cfg with
      | (_ : Breaker.t) -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ())
    [
      { bcfg with Breaker.fault_threshold = 0 };
      { bcfg with Breaker.window_s = 0.0 };
      { bcfg with Breaker.cooldown_s = 0.0 };
      { bcfg with Breaker.calm = 0 };
    ]

let test_breaker_transition_callback () =
  let seen = ref [] in
  let b = Breaker.create ~on_transition:(fun st -> seen := st :: !seen) bcfg in
  List.iter (fun now -> Breaker.on_fault b ~now) [ 0.0; 0.0; 0.0 ];
  ignore (Breaker.admit b ~now:0.6);
  Breaker.on_success b ~now:0.7;
  Breaker.on_success b ~now:0.8;
  Alcotest.(check (list string))
    "transition order" [ "open"; "half-open"; "closed" ]
    (List.rev_map Breaker.state_to_string !seen)

let () =
  Alcotest.run "service"
    [
      ( "arrival",
        [
          Alcotest.test_case "parse roundtrip" `Quick test_arrival_parse_roundtrip;
          Alcotest.test_case "parse negative" `Quick test_arrival_parse_negative;
          Alcotest.test_case "times" `Quick test_arrival_times;
          Alcotest.test_case "rates" `Quick test_arrival_rates;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "pattern negative" `Quick test_pattern_parse_negative;
          Alcotest.test_case "pattern positive" `Quick test_pattern_parse_positive;
          Alcotest.test_case "watchdog defaults" `Quick test_watchdog_defaults;
          Alcotest.test_case "repro thresholds" `Quick
            test_repro_commands_render_thresholds;
          Alcotest.test_case "replay lines round-trip" `Quick
            test_replay_lines_roundtrip;
          Alcotest.test_case "default replay lines" `Quick
            test_default_replay_lines;
          Alcotest.test_case "serve --real rejects what domains cannot run"
            `Quick test_serve_real_rejects_what_domains_cannot_run;
          Alcotest.test_case "spec validation" `Quick test_spec_validation;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "trips at threshold" `Quick
            test_breaker_trips_at_threshold;
          Alcotest.test_case "cooldown boundary" `Quick
            test_breaker_cooldown_boundary;
          Alcotest.test_case "probe fault re-trips" `Quick
            test_breaker_fault_while_probing_retrips;
          Alcotest.test_case "calm window closes" `Quick
            test_breaker_calm_window_closes;
          Alcotest.test_case "window prunes" `Quick
            test_breaker_window_prunes_stale_faults;
          Alcotest.test_case "create validates" `Quick
            test_breaker_create_validates;
          Alcotest.test_case "transition callback" `Quick
            test_breaker_transition_callback;
        ] );
      ( "overload",
        List.map
          (fun stm -> Alcotest.test_case stm `Slow (overload_demo stm))
          Scenario.all_stms );
      ( "determinism",
        [
          Alcotest.test_case "jobs 1 vs 4" `Slow test_serve_plan_deterministic;
        ] );
      ( "stress",
        [
          Alcotest.test_case "record+san sweep" `Slow test_serve_stress_sweep;
          Alcotest.test_case "vacation backend" `Slow test_vacation_backend;
          Alcotest.test_case "per-period metrics" `Quick test_per_period_metrics;
        ] );
      ( "domains",
        [
          Alcotest.test_case "every stm, recorded" `Quick test_domains_every_stm;
          Alcotest.test_case "vacation audit" `Quick test_domains_vacation;
        ] );
    ]
