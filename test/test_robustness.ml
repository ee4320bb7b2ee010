(* Robustness and edge-case tests: failure injection around the write
   barriers, write-through incarnation overflow, read-only staleness aborts,
   the read-only path of every registered STM, API misuse errors, tuner
   corner rules, overwrite workloads. *)

module R = Tstm_runtime.Runtime_sim
module Shm = Tstm_runtime.Shm
module Ts = Tinystm
module Tl = Tstm_tl2.Tl2
module Config = Tinystm.Config
module Lockenc = Tinystm.Lockenc

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

exception Boom

let make ?(strategy = Config.Write_back) ?(n_locks = 256) ?max_clock () =
  Ts.create ~kind:R.kind ~config:(Config.make ~n_locks ~strategy ()) ?max_clock
    ~memory_words:4096 ()

(* ------------------------------------------------------------------ *)
(* Failure injection                                                   *)
(* ------------------------------------------------------------------ *)

(* The abort-path tests only need the common [Tm_intf.TM] operations plus a
   way to build an instance and inspect the arena, so they are written once
   as a functor and instantiated for TinySTM (both write strategies) and
   TL2. *)
module type INSTANCE = sig
  module T : Tstm_tm.Tm_intf.TM

  val make : unit -> T.t
  val live_words : T.t -> int
end

module Failure_injection (I : INSTANCE) = struct
  module T = I.T

  (* Abort after each prefix of a multi-write transaction: memory must
     always revert to the pre-transaction image. *)
  let test_abort_after_every_prefix () =
    let t = I.make () in
    let a = T.atomically t (fun tx -> T.alloc tx 8) in
    T.atomically t (fun tx ->
        for i = 0 to 7 do
          T.write tx (a + i) (100 + i)
        done);
    for prefix = 1 to 8 do
      (try
         T.atomically t (fun tx ->
             for i = 0 to prefix - 1 do
               T.write tx (a + i) (-1)
             done;
             raise Boom)
       with Boom -> ());
      for i = 0 to 7 do
        check_int
          (Printf.sprintf "prefix %d word %d restored" prefix i)
          (100 + i)
          (T.atomically t (fun tx -> T.read tx (a + i)))
      done
    done

  (* Repeated writes to the same word inside an aborting transaction: the
     rollback (undo log or discarded write set) must restore the *original*
     value, not an intermediate one. *)
  let test_abort_restores_oldest () =
    let t = I.make () in
    let a = T.atomically t (fun tx -> T.alloc tx 1) in
    T.atomically t (fun tx -> T.write tx a 7);
    (try
       T.atomically t (fun tx ->
           T.write tx a 1;
           T.write tx a 2;
           T.write tx a 3;
           raise Boom)
     with Boom -> ());
    check_int "original restored" 7 (T.atomically t (fun tx -> T.read tx a))

  (* Writes to words freshly allocated by the aborting transaction must not
     leak: the block is reclaimed and reusable. *)
  let test_abort_with_writes_to_fresh_alloc () =
    let t = I.make () in
    let live_before = I.live_words t in
    (try
       T.atomically t (fun tx ->
           let b = T.alloc tx 4 in
           for i = 0 to 3 do
             T.write tx (b + i) 999
           done;
           raise Boom)
     with Boom -> ());
    check_int "no leak" live_before (I.live_words t)

  (* Genuine arena exhaustion mid-transaction: the allocation-failed abort
     retries in place, escalates to the typed [Capacity] verdict once the
     bounded retry budget runs out, and leaks nothing — [live_words] stays
     exactly where the last successful transaction left it. *)
  let test_arena_exhaustion_leaks_nothing () =
    let t = I.make () in
    let last_live = ref (I.live_words t) in
    let rec fill n =
      if n > 1000 then Alcotest.fail "arena never filled"
      else
        match T.atomically t (fun tx -> ignore (T.alloc tx 96)) with
        | () ->
            last_live := I.live_words t;
            fill (n + 1)
        | exception Tstm_tm.Tm_intf.Capacity { retries; _ } ->
            check_bool "escalated after the bounded retry budget" true
              (retries >= 16);
            check_int "no leak at exhaustion" !last_live (I.live_words t)
    in
    fill 0

  let tests tag =
    [
      Alcotest.test_case (tag ^ ": abort after every prefix") `Quick
        test_abort_after_every_prefix;
      Alcotest.test_case (tag ^ ": abort restores oldest") `Quick
        test_abort_restores_oldest;
      Alcotest.test_case (tag ^ ": abort with fresh alloc") `Quick
        test_abort_with_writes_to_fresh_alloc;
      Alcotest.test_case (tag ^ ": arena exhaustion leaks nothing") `Quick
        test_arena_exhaustion_leaks_nothing;
    ]
end

module Inject_wb = Failure_injection (struct
  module T = Ts

  let make () = make ~strategy:Config.Write_back ()
  let live_words t = Tstm_vmm.Vmm.live_words (Ts.memory t)
end)

module Inject_wt = Failure_injection (struct
  module T = Ts

  let make () = make ~strategy:Config.Write_through ()
  let live_words t = Tstm_vmm.Vmm.live_words (Ts.memory t)
end)

module Inject_tl2 = Failure_injection (struct
  module T = Tl

  let make () = Tl.create ~kind:R.kind ~n_locks:256 ~memory_words:4096 ()
  let live_words t = Tstm_vmm.Vmm.live_words (Tl.memory t)
end)

module No = Tstm_norec.Norec

module Inject_norec = Failure_injection (struct
  module T = No

  let make () = No.create ~kind:R.kind ~memory_words:4096 ()
  let live_words t = Tstm_vmm.Vmm.live_words (No.memory t)
end)

(* ------------------------------------------------------------------ *)
(* Write-through incarnation overflow                                  *)
(* ------------------------------------------------------------------ *)

let test_incarnation_overflow () =
  (* More aborting writers on one lock than the 3-bit incarnation space:
     the implementation must take a fresh version from the clock and stay
     consistent. *)
  let t = make ~strategy:Config.Write_through () in
  let a = Ts.atomically t (fun tx -> Ts.alloc tx 1) in
  Ts.atomically t (fun tx -> Ts.write tx a 55);
  for _ = 1 to 3 * (Lockenc.max_incarnation + 1) do
    try
      Ts.atomically t (fun tx ->
          Ts.write tx a 0;
          raise Boom)
    with Boom -> ()
  done;
  check_int "value survives incarnation wrap" 55
    (Ts.atomically t (fun tx -> Ts.read tx a));
  (* The instance still commits fine afterwards. *)
  Ts.atomically t (fun tx -> Ts.write tx a 56);
  check_int "post-wrap commit" 56 (Ts.atomically t (fun tx -> Ts.read tx a))

(* ------------------------------------------------------------------ *)
(* Read-only staleness                                                 *)
(* ------------------------------------------------------------------ *)

let test_read_only_aborts_on_stale () =
  (* A read-only transaction cannot extend its snapshot: arrange a writer
     commit between its two reads and check it still returns a consistent
     pair (after internal retry), with at least one recorded abort. *)
  let t = make () in
  let a = Ts.atomically t (fun tx -> Ts.alloc tx 2) in
  Ts.atomically t (fun tx ->
      Ts.write tx a 1;
      Ts.write tx (a + 1) 1);
  Ts.reset_stats t;
  let seen = ref (0, 0) in
  R.run ~nthreads:2 (fun tid ->
      if tid = 0 then begin
        (* Writer: commit a coherent bump while the reader sleeps. *)
        Shm.charge 3_000;
        Ts.atomically t (fun tx ->
            Ts.write tx a 2;
            Ts.write tx (a + 1) 2)
      end
      else
        seen :=
          Ts.atomically ~read_only:true t (fun tx ->
              let x = Ts.read tx a in
              Shm.charge 20_000 (* give the writer time to land in between *);
              let y = Ts.read tx (a + 1) in
              (x, y)))
  ;
  let x, y = !seen in
  check_bool "consistent pair" true (x = y);
  check_int "reader saw the new snapshot after retry" 2 x;
  let s = Ts.stats t in
  check_bool "one read-only abort recorded" true
    (s.Tstm_tm.Tm_stats.aborts_validation >= 1)

(* ------------------------------------------------------------------ *)
(* API misuse and limits                                               *)
(* ------------------------------------------------------------------ *)

let test_create_validations () =
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  check_bool "max_threads 0" true
    (bad (fun () -> Ts.create ~kind:R.kind ~max_threads:0 ~memory_words:64 ()));
  check_bool "max_threads beyond tid space" true
    (bad (fun () ->
         Ts.create ~kind:R.kind ~max_threads:500 ~memory_words:64 ()));
  check_bool "absurd max_clock" true
    (bad (fun () -> Ts.create ~kind:R.kind ~max_clock:2 ~memory_words:64 ()));
  check_bool "tl2 bad locks" true
    (bad (fun () -> Tl.create ~kind:R.kind ~n_locks:1000 ~memory_words:64 ()))

let test_set_config_validates () =
  let t = make () in
  (try
     Ts.set_config t
       { Config.n_locks = 4; shifts = 0; hierarchy = 8; strategy = Config.Write_back };
     Alcotest.fail "expected rejection"
   with Invalid_argument _ -> ());
  (* Instance unharmed. *)
  let a = Ts.atomically t (fun tx -> Ts.alloc tx 1) in
  Ts.atomically t (fun tx -> Ts.write tx a 5);
  check_int "still functional" 5 (Ts.atomically t (fun tx -> Ts.read tx a))

let test_nested_atomically_rejected () =
  let t = make () in
  try
    Ts.atomically t (fun _ -> Ts.atomically t (fun _ -> ()));
    Alcotest.fail "nested transaction must be rejected"
  with Invalid_argument _ -> ()

let test_strategy_switch_via_set_config () =
  (* Re-tuning may also flip the write strategy; data survives. *)
  let t = make ~strategy:Config.Write_back () in
  let a = Ts.atomically t (fun tx -> Ts.alloc tx 1) in
  Ts.atomically t (fun tx -> Ts.write tx a 11);
  Ts.set_config t (Config.make ~n_locks:512 ~strategy:Config.Write_through ());
  check_int "data kept across strategy switch" 11
    (Ts.atomically t (fun tx -> Ts.read tx a));
  (try
     Ts.atomically t (fun tx ->
         Ts.write tx a 12;
         raise Boom)
   with Boom -> ());
  check_int "write-through undo works after switch" 11
    (Ts.atomically t (fun tx -> Ts.read tx a))

(* ------------------------------------------------------------------ *)
(* Bounded conflict waiting (paper §3.1 alternative policy)            *)
(* ------------------------------------------------------------------ *)

let hot_counter_run ~conflict_wait =
  let t =
    Ts.create ~kind:R.kind
      ~config:(Config.make ~n_locks:64 ())
      ~conflict_wait ~memory_words:256 ()
  in
  let a = Ts.atomically t (fun tx -> Ts.alloc tx 1) in
  Ts.atomically t (fun tx -> Ts.write tx a 0);
  Ts.reset_stats t;
  R.run ~nthreads:8 (fun _ ->
      for _ = 1 to 100 do
        Ts.atomically t (fun tx -> Ts.write tx a (Ts.read tx a + 1))
      done);
  let s = Ts.stats t in
  let v = Ts.atomically t (fun tx -> Ts.read tx a) in
  (v, Tstm_tm.Tm_stats.aborts s)

let test_conflict_wait_correct_and_calmer () =
  let v0, aborts0 = hot_counter_run ~conflict_wait:0 in
  let v1, aborts1 = hot_counter_run ~conflict_wait:16 in
  check_int "exact count without waiting" 800 v0;
  check_int "exact count with waiting" 800 v1;
  check_bool
    (Printf.sprintf "waiting reduces aborts (%d -> %d)" aborts0 aborts1)
    true (aborts1 < aborts0)

let test_conflict_wait_validated () =
  try
    ignore (Ts.create ~kind:R.kind ~conflict_wait:(-1) ~memory_words:64 ());
    Alcotest.fail "negative conflict_wait accepted"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Lockenc boundaries                                                  *)
(* ------------------------------------------------------------------ *)

let test_lockenc_maxima () =
  let w =
    Lockenc.unlocked ~version:Lockenc.max_version
      ~incarnation:Lockenc.max_incarnation
  in
  check_int "max version roundtrip" Lockenc.max_version (Lockenc.version w);
  check_int "max incarnation roundtrip" Lockenc.max_incarnation
    (Lockenc.incarnation w);
  let l = Lockenc.locked ~tid:Lockenc.max_tid ~payload:0 in
  check_int "max tid roundtrip" Lockenc.max_tid (Lockenc.owner l);
  check_bool "distinct" true (w <> l)

(* ------------------------------------------------------------------ *)
(* Tuner corner rules                                                  *)
(* ------------------------------------------------------------------ *)

module Tuner = Tstm_tuning.Tuner

let test_tuner_second_best_switch () =
  (* Explore a 1-D landscape until the best is saturated, then degrade the
     best configuration's throughput below the second best: the tuner must
     switch to the second best. *)
  let t = Tuner.create ~seed:2 (Config.make ~n_locks:16 ~shifts:0 ~hierarchy:1 ()) in
  (* Synthetic: locks=16 scores 100, every other config scores 90 the first
     time.  After convergence we feed the best config 50. *)
  let fed = ref 0 in
  let decide () =
    let cfg = Tuner.current t in
    let base = if cfg.Config.n_locks = 16 then 100.0 else 90.0 in
    let v = if !fed > 120 && cfg.Config.n_locks = 16 then 50.0 else base in
    incr fed;
    Tuner.record t v
  in
  for _ = 1 to 400 do
    ignore (decide ())
  done;
  (* 400 measurements are far past the degradation point: the tuner has seen
     the best config score 50 and must have moved off it for good. *)
  check_bool "saw the degradation phase" true (!fed > 120);
  check_bool "left the degraded n_locks=16" true
    ((Tuner.current t).Config.n_locks <> 16)

let test_tuner_nop_at_converged_best () =
  (* Single legal configuration: every neighbour forbidden by bounds is not
     constructible here, so emulate with a flat landscape and check the tuner
     eventually revisits (nop) its best rather than crashing. *)
  let t = Tuner.create ~seed:4 (Config.make ~n_locks:16 ~shifts:0 ~hierarchy:1 ()) in
  for _ = 1 to 300 do
    ignore (Tuner.record t 100.0)
  done;
  Config.validate (Tuner.current t);
  check_bool "still exploring or parked" true (Tuner.explored t >= 1)

(* ------------------------------------------------------------------ *)
(* Overwrite workloads                                                 *)
(* ------------------------------------------------------------------ *)

module D = Tstm_harness.Driver.Make (Tstm_harness.Scenario.Sim) (Ts)
module W = Tstm_harness.Workload

let test_overwrite_workload_writes_heavily () =
  let spec =
    W.make ~structure:W.List ~initial_size:128 ~update_pct:0.0
      ~overwrite_pct:100.0 ~nthreads:2 ~duration:0.001 ()
  in
  let t = Ts.create ~kind:R.kind ~config:(Config.make ~n_locks:1024 ())
      ~memory_words:(W.memory_words_for spec) () in
  let ops = D.make_structure t spec.W.structure in
  D.populate t ops spec;
  let r, _ = D.run t ops spec in
  check_bool "commits" true (r.W.commits > 0);
  let writes_per_tx =
    float_of_int r.W.stats.Tstm_tm.Tm_stats.writes /. float_of_int r.W.commits
  in
  check_bool
    (Printf.sprintf "large write sets (%.1f writes/tx)" writes_per_tx)
    true (writes_per_tx > 10.0)

let test_overwrite_preserves_contents () =
  let spec =
    W.make ~structure:W.Rbtree ~initial_size:64 ~update_pct:0.0
      ~overwrite_pct:50.0 ~nthreads:4 ~duration:0.001 ()
  in
  let t = Ts.create ~kind:R.kind ~config:(Config.make ~n_locks:1024 ())
      ~memory_words:(W.memory_words_for spec) () in
  let ops = D.make_structure t spec.W.structure in
  D.populate t ops spec;
  let before = Ts.atomically t (fun tx -> ops.D.op_size tx) in
  ignore (D.run t ops spec);
  check_int "overwrites do not change membership" before
    (Ts.atomically t (fun tx -> ops.D.op_size tx))

(* ------------------------------------------------------------------ *)
(* Contention managers: registry and decision tables                   *)
(* ------------------------------------------------------------------ *)

module Cm = Tstm_cm.Cm

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_cm_registry () =
  check_bool "backoff default" true (Cm.default = Cm.Backoff);
  (* Canonical names roundtrip through of_string/to_string. *)
  List.iter
    (fun p ->
      match Cm.of_string (Cm.to_string p) with
      | Ok p' -> check_bool (Cm.to_string p ^ " roundtrips") true (p = p')
      | Error m -> Alcotest.fail m)
    [ Cm.Suicide; Cm.Backoff; Cm.Karma; Cm.Greedy; Cm.Serialize 3 ];
  check_bool "timid alias" true (Cm.of_string "timid" = Ok Cm.Backoff);
  check_bool "serialize default arg" true
    (Cm.of_string "serialize" = Ok (Cm.Serialize 8));
  check_bool "serialize:N parses" true
    (Cm.of_string "serialize:4" = Ok (Cm.Serialize 4));
  check_bool "serialize:0 rejected" true
    (match Cm.of_string "serialize:0" with Error _ -> true | Ok _ -> false);
  (match Cm.of_string "nope" with
  | Error msg ->
      check_bool "unknown error lists names" true
        (List.for_all (fun n -> contains ~sub:n msg) (Cm.names ()))
  | Ok _ -> Alcotest.fail "unknown name accepted");
  check_bool "mem" true (Cm.mem "karma" && not (Cm.mem "nope"));
  List.iter
    (fun n -> check_bool (n ^ " described") true (Cm.describe n <> ""))
    (Cm.names ())

let decide p ~sp ~ep ~st ~et =
  Cm.on_enemy p ~self_prio:sp ~enemy_prio:ep ~self_tid:st ~enemy_tid:et

let test_cm_decision_tables () =
  (* Suicide always aborts self; backoff/serialize always wait-then-abort —
     whatever the priorities say. *)
  List.iter
    (fun (sp, ep, st, et) ->
      check_bool "suicide aborts" true
        (decide Cm.Suicide ~sp ~ep ~st ~et = Cm.Abort_now);
      check_bool "backoff waits" true
        (decide Cm.Backoff ~sp ~ep ~st ~et = Cm.Wait_retry);
      check_bool "serialize waits" true
        (decide (Cm.Serialize 4) ~sp ~ep ~st ~et = Cm.Wait_retry))
    [ (0, 0, 1, 2); (5, 1, 2, 1); (1, 5, 1, 2) ];
  (* Karma: richer kills poorer; ties break toward the lower tid. *)
  check_bool "karma richer kills" true
    (decide Cm.Karma ~sp:10 ~ep:3 ~st:2 ~et:1 = Cm.Kill_enemy);
  check_bool "karma poorer waits" true
    (decide Cm.Karma ~sp:3 ~ep:10 ~st:1 ~et:2 = Cm.Wait_retry);
  check_bool "karma tie, lower tid kills" true
    (decide Cm.Karma ~sp:5 ~ep:5 ~st:1 ~et:2 = Cm.Kill_enemy);
  check_bool "karma tie, higher tid waits" true
    (decide Cm.Karma ~sp:5 ~ep:5 ~st:2 ~et:1 = Cm.Wait_retry);
  (* Greedy: smaller ticket = older = winner; an unpublished enemy ticket
     (0) means the enemy is completing — wait for its lock to go. *)
  check_bool "greedy older kills" true
    (decide Cm.Greedy ~sp:3 ~ep:9 ~st:2 ~et:1 = Cm.Kill_enemy);
  check_bool "greedy younger waits" true
    (decide Cm.Greedy ~sp:9 ~ep:3 ~st:1 ~et:2 = Cm.Wait_retry);
  check_bool "greedy zero enemy ticket waits" true
    (decide Cm.Greedy ~sp:9 ~ep:0 ~st:1 ~et:2 = Cm.Wait_retry);
  check_bool "greedy tie, lower tid kills" true
    (decide Cm.Greedy ~sp:4 ~ep:4 ~st:1 ~et:2 = Cm.Kill_enemy)

(* The conservation property that makes priority policies livelock-free:
   for any symmetric conflict (both sides see the other as enemy), exactly
   one side decides Kill_enemy — never both (mutual kills = livelock),
   never neither (mutual waits = both spin out and abort, re-entering the
   same state).  Holds for karma always, and for greedy whenever both
   tickets are published. *)
let cm_kill_total_order =
  QCheck.Test.make ~count:500 ~name:"karma/greedy kill is a total order"
    QCheck.(quad (int_bound 1000) (int_bound 1000) (int_bound 126) (int_bound 126))
    (fun (pa, pb, ta, tb) ->
      QCheck.assume (ta <> tb);
      let kills p ~sp ~ep ~st ~et =
        decide p ~sp ~ep ~st ~et = Cm.Kill_enemy
      in
      let one_of p spa spb =
        let a = kills p ~sp:spa ~ep:spb ~st:ta ~et:tb in
        let b = kills p ~sp:spb ~ep:spa ~st:tb ~et:ta in
        (a || b) && not (a && b)
      in
      one_of Cm.Karma pa pb && one_of Cm.Greedy (pa + 1) (pb + 1))

let test_effective_max_retries () =
  check_int "serialize with no budget" 4
    (Cm.effective_max_retries (Cm.Serialize 4) 0);
  check_int "serialize tightens budget" 4
    (Cm.effective_max_retries (Cm.Serialize 4) 9);
  check_int "budget tightens serialize" 2
    (Cm.effective_max_retries (Cm.Serialize 4) 2);
  check_int "backoff passes through" 7 (Cm.effective_max_retries Cm.Backoff 7);
  check_int "suicide passes 0 through" 0
    (Cm.effective_max_retries Cm.Suicide 0)

(* ------------------------------------------------------------------ *)
(* Backoff determinism and shift-overflow regression                   *)
(* ------------------------------------------------------------------ *)

let test_backoff_bounded_at_any_attempts () =
  (* Regression: [16 lsl attempts] overflows the OCaml int at attempts >=
     59, which would make the "wait" negative.  The capped formula must
     stay within [base/2, cap] for any attempt count. *)
  let rng = Tstm_util.Xrand.create 7 in
  List.iter
    (fun attempts ->
      let base = min Cm.backoff_cap (16 lsl min attempts 16) in
      for _ = 1 to 50 do
        let c = Cm.backoff_cycles ~rng ~attempts in
        check_bool
          (Printf.sprintf "attempts=%d cycles=%d in range" attempts c)
          true
          (c >= base / 2 && c <= Cm.backoff_cap && c <= base)
      done)
    [ 0; 1; 4; 8; 15; 16; 17; 58; 59; 60; 62; 1000; max_int ]

let test_backoff_replay_stable () =
  (* Same seed, same attempt sequence => byte-identical delays: the jitter
     must come only from the given rng. *)
  let sample seed =
    let rng = Tstm_util.Xrand.create seed in
    List.init 64 (fun i -> Cm.backoff_cycles ~rng ~attempts:(i mod 20))
  in
  check_bool "same seed, same sequence" true (sample 42 = sample 42);
  check_bool "different seed, different sequence" true
    (sample 42 <> sample 43)

(* ------------------------------------------------------------------ *)
(* Fairness counters (Tm_stats)                                        *)
(* ------------------------------------------------------------------ *)

module Stats = Tstm_tm.Tm_stats

let test_fairness_counters () =
  let s = Stats.create () in
  Stats.record_retries s 0;
  Stats.record_retries s 3;
  Stats.record_retries s 70;
  check_int "max retries tracked" 70 s.Stats.max_retries_seen;
  check_int "0 retries -> bucket 0" 1 s.Stats.retry_hist.(0);
  check_int "3 retries -> bucket 2" 1 s.Stats.retry_hist.(2);
  check_int "70 retries -> bucket 7" 1 s.Stats.retry_hist.(7);
  let s2 = Stats.create () in
  Stats.record_retries s2 1_000_000;
  check_bool "huge retries land in the last bucket" true
    (s2.Stats.retry_hist.(Stats.retry_hist_buckets - 1) = 1);
  Stats.add_into ~dst:s2 s;
  check_int "merge keeps max, not sum" 1_000_000 s2.Stats.max_retries_seen;
  check_int "merge sums buckets" 1 s2.Stats.retry_hist.(2);
  s.Stats.cm_switches <- 5;
  Stats.record_abort s Stats.Killed;
  check_int "killed aborts counted" 1 s.Stats.aborts_killed;
  check_int "killed aborts in the total" 1 (Stats.aborts s);
  let rendered = Format.asprintf "%a" Stats.pp s in
  List.iter
    (fun sub ->
      check_bool (sub ^ " surfaced in pp") true (contains ~sub rendered))
    [ "max-retries=70"; "cm-switches=5"; "kill=1"; "retry-hist=" ]

(* ------------------------------------------------------------------ *)
(* Watchdog state machine                                              *)
(* ------------------------------------------------------------------ *)

module Wd = Tstm_runtime.Watchdog

let test_watchdog_validation () =
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  check_bool "window < 1" true (bad (fun () -> Wd.create ~window:0 ()));
  check_bool "negative starve_retries" true
    (bad (fun () -> Wd.create ~starve_retries:(-1) ()));
  check_bool "recover_windows < 1" true
    (bad (fun () -> Wd.create ~recover_windows:0 ()))

let test_watchdog_livelock_ladder () =
  let w = Wd.create ~window:100 ~starve_retries:0 ~recover_windows:2 () in
  check_bool "starts normal" true (Wd.level w = Wd.Normal);
  check_bool "quiet inside the window" true
    (Wd.note_abort w ~now:50 ~tid:1 ~retries:3 = []);
  (* First zero-commit window: Normal -> Boosted. *)
  (match Wd.note_abort w ~now:150 ~tid:1 ~retries:4 with
  | [ Wd.Livelock { window = 100 }; Wd.Switch { level = Wd.Boosted } ] -> ()
  | _ -> Alcotest.fail "expected livelock + boost");
  (* Second: Boosted -> Serialized; the ladder then saturates. *)
  (match Wd.note_abort w ~now:300 ~tid:1 ~retries:5 with
  | [ Wd.Livelock _; Wd.Switch { level = Wd.Serialized } ] -> ()
  | _ -> Alcotest.fail "expected livelock + serialize");
  (match Wd.note_abort w ~now:450 ~tid:1 ~retries:6 with
  | [ Wd.Livelock _ ] -> ()
  | _ -> Alcotest.fail "saturated ladder must not switch");
  check_int "livelocks counted" 3 (Wd.livelocks w);
  (* Recovery: two consecutive commit-bearing windows per step back down. *)
  check_bool "commit lands quietly" true (Wd.note_commit w ~now:460 ~tid:2 = []);
  check_bool "first calm window" true (Wd.note_commit w ~now:580 ~tid:2 = []);
  (match Wd.note_commit w ~now:700 ~tid:2 with
  | [ Wd.Switch { level = Wd.Boosted } ] -> ()
  | _ -> Alcotest.fail "expected de-escalation to boosted");
  check_int "heartbeat tracks last commit" 700 (Wd.last_commit w ~tid:2);
  check_int "other cpu untouched" (-1) (Wd.last_commit w ~tid:3);
  check_bool "switch count" true (Wd.switches w = 3)

let test_watchdog_starvation_once () =
  let w = Wd.create ~window:1_000_000 ~starve_retries:8 () in
  (* Fires exactly at the ceiling, not before, not again after. *)
  check_bool "below ceiling quiet" true
    (Wd.note_abort w ~now:10 ~tid:3 ~retries:7 = []);
  (match Wd.note_abort w ~now:20 ~tid:3 ~retries:8 with
  | [ Wd.Starved { tid = 3; retries = 8 }; Wd.Switch { level = Wd.Boosted } ]
    -> ()
  | _ -> Alcotest.fail "expected starvation + boost");
  check_bool "past ceiling quiet" true
    (Wd.note_abort w ~now:30 ~tid:3 ~retries:9 = []);
  check_int "one starvation" 1 (Wd.starvations w)

(* ------------------------------------------------------------------ *)
(* Adversarial workload patterns                                       *)
(* ------------------------------------------------------------------ *)

let test_pattern_names () =
  List.iter
    (fun p ->
      match W.pattern_of_string (W.pattern_to_string p) with
      | Ok p' ->
          check_bool (W.pattern_to_string p ^ " roundtrips") true (p = p')
      | Error m -> Alcotest.fail m)
    [ W.Uniform; W.Zipf 1.2; W.Hotspot 4; W.Bimodal 8; W.Asym 2.0 ];
  check_bool "unknown rejected" true
    (match W.pattern_of_string "nope" with Error _ -> true | Ok _ -> false);
  check_bool "bad zipf rejected" true
    (match W.pattern_of_string "zipf:0" with Error _ -> true | Ok _ -> false)

let test_uniform_stream_identity () =
  (* The Uniform sampler must consume exactly the historical RNG stream:
     one [Xrand.int] per key. *)
  let g1 = Tstm_util.Xrand.create 7 and g2 = Tstm_util.Xrand.create 7 in
  let draw = W.key_gen W.Uniform ~key_range:512 in
  for _ = 1 to 1000 do
    check_int "same stream" (1 + Tstm_util.Xrand.int g2 512) (draw g1)
  done

let test_skewed_patterns_concentrate () =
  let count_hot pattern ~hot =
    let g = Tstm_util.Xrand.create 11 in
    let draw = W.key_gen pattern ~key_range:1024 in
    let n = 10_000 in
    let c = ref 0 in
    for _ = 1 to n do
      let k = draw g in
      check_bool "key in range" true (k >= 1 && k <= 1024);
      if k <= hot then incr c
    done;
    float_of_int !c /. float_of_int n
  in
  let uni = count_hot W.Uniform ~hot:8 in
  let zipf = count_hot (W.Zipf 1.2) ~hot:8 in
  let hots = count_hot (W.Hotspot 8) ~hot:8 in
  check_bool
    (Printf.sprintf "zipf concentrates (%.3f vs uniform %.3f)" zipf uni)
    true
    (zipf > 20.0 *. uni);
  check_bool (Printf.sprintf "hotspot sends ~90%% to the hot set (%.3f)" hots)
    true
    (hots > 0.85 && hots < 0.95)

let test_pattern_roles () =
  check_int "bimodal even tid scans" 16 (W.reader_span (W.Bimodal 16) ~tid:2);
  check_int "bimodal odd tid normal" 0 (W.reader_span (W.Bimodal 16) ~tid:3);
  check_int "asym odd tid idles" 500 (W.idle_cycles (W.Asym 2.0) ~tid:1);
  check_int "asym even tid full speed" 0 (W.idle_cycles (W.Asym 2.0) ~tid:2);
  check_int "uniform no roles" 0
    (W.reader_span W.Uniform ~tid:0 + W.idle_cycles W.Uniform ~tid:1)

(* ------------------------------------------------------------------ *)
(* Progress guarantees on the storm workload                           *)
(* ------------------------------------------------------------------ *)

module Storm = Tstm_harness.Storm

let storm stm cm ~watchdog = Storm.run_one { Storm.default with stm; cm; watchdog }

module Registry = Tstm_tm.Registry

(* The batteries enumerate the registry rather than naming STMs, so a new
   registration is tested automatically.  The suicide-livelock pair holds
   only for lock-array STMs: symmetric hold-and-wait needs at least two
   locks, so it is gated on [capabilities.lock_array] — a single global
   sequence lock admits no such cycle (the CAS winner always commits), and
   that obstruction-freedom is asserted separately below. *)
let all_stms = Tstm_harness.Scenario.all_stms

let lock_array_stms =
  List.map
    (fun e -> e.Registry.name)
    (Registry.filter (fun e ->
         e.Registry.capabilities.Tstm_tm.Tm_intf.lock_array))

let seqlock_stms =
  List.map
    (fun e -> e.Registry.name)
    (Registry.filter (fun e ->
         not e.Registry.capabilities.Tstm_tm.Tm_intf.lock_array))

let test_suicide_livelocks () =
  (* Unmanaged symmetric conflicts: the pairs shadow-box until the deadline
     and nobody reaches the quota, on every lock-array STM. *)
  check_bool "battery covers at least the seed STMs" true
    (List.length lock_array_stms >= 3);
  List.iter
    (fun stm ->
      let r = storm stm "suicide" ~watchdog:false in
      check_bool (stm ^ " livelocked") true (not r.Storm.completed);
      check_int (stm ^ " zero commits") 0
        (Array.fold_left ( + ) 0 r.Storm.commits))
    lock_array_stms

let test_watchdog_rescues_suicide () =
  List.iter
    (fun stm ->
      let r = storm stm "suicide" ~watchdog:true in
      check_bool (stm ^ " completed under watchdog") true r.Storm.completed;
      check_bool (stm ^ " livelock detected") true (r.Storm.livelocks >= 1);
      check_bool (stm ^ " degradation engaged") true (r.Storm.switches >= 1);
      check_bool (stm ^ " escalations commit the storm") true
        (r.Storm.escalations >= 1))
    lock_array_stms

let test_seqlock_obstruction_free () =
  (* The flip side of the gate above: the same unmanaged suicide storm that
     livelocks every lock-array STM completes at full quota on a
     single-seqlock STM, with no watchdog and no serial escalation. *)
  check_bool "a seqlock STM is registered" true (seqlock_stms <> []);
  List.iter
    (fun stm ->
      let r = storm stm "suicide" ~watchdog:false in
      check_bool (stm ^ " suicide storm completed") true r.Storm.completed;
      Array.iteri
        (fun tid c ->
          check_int
            (Printf.sprintf "%s thread %d met quota" stm tid)
            Storm.default.Storm.quota c)
        r.Storm.commits;
      check_int (stm ^ " no escalations needed") 0 r.Storm.escalations;
      check_int (stm ^ " no livelock windows") 0 r.Storm.livelocks)
    seqlock_stms

let test_priority_cms_commit_everything () =
  List.iter
    (fun stm ->
      List.iter
        (fun cm ->
          let r = storm stm cm ~watchdog:false in
          check_bool
            (Printf.sprintf "%s under %s completed" stm cm)
            true r.Storm.completed;
          Array.iteri
            (fun tid c ->
              check_int
                (Printf.sprintf "%s/%s thread %d met quota" stm cm tid)
                Storm.default.Storm.quota c)
            r.Storm.commits;
          check_int
            (Printf.sprintf "%s/%s no serial escalations needed" stm cm)
            0 r.Storm.escalations)
        [ "karma"; "greedy" ])
    all_stms

let test_serialize_commits_via_escalation () =
  List.iter
    (fun stm ->
      let r = storm stm "serialize:4" ~watchdog:false in
      check_bool (stm ^ " serialize completed") true r.Storm.completed;
      check_bool (stm ^ " serialize escalated") true (r.Storm.escalations >= 1))
    all_stms

(* ------------------------------------------------------------------ *)
(* The read-only path on every registered STM                          *)
(* ------------------------------------------------------------------ *)

(* Shared-array labels holding concurrency-control state: TinySTM's and
   TL2's lock words and hierarchical counters, and the control block that
   holds each family's clock (NOrec's seqlock).  "mem" is the arena. *)
let protocol_labels = [ "locks"; "hier"; "ctl"; "mem" ]

(* Every mutating access ([Set], [Cas], [Faa]) to a protocol array while
   [f] runs; NOrec's seqlock acquire is its [Cas true] on "ctl".  An empty
   log means no lock word, counter, clock, seqlock or arena word
   changed. *)
let mutations_during f =
  let log = ref [] in
  let note s = log := s :: !log in
  let on_access ~cpu:_ ~label ~index = function
    | Tstm_runtime.Tap.Get -> ()
    | (Set | Cas _ | Faa) when List.mem label protocol_labels ->
        note (Printf.sprintf "%s[%d]" label index)
    | Set | Cas _ | Faa -> ()
  in
  Tstm_runtime.Tap.install
    (Some
       {
         Tstm_runtime.Tap.on_access;
         on_vmm_load = (fun ~cpu:_ ~addr:_ -> ());
         on_vmm_store = (fun ~cpu:_ ~addr -> note (Printf.sprintf "store %d" addr));
         on_vmm_alloc = (fun ~cpu:_ ~addr:_ ~len:_ -> ());
         on_vmm_free = (fun ~cpu:_ ~addr:_ ~len:_ -> ());
         on_run_boundary = (fun () -> ());
       });
  Fun.protect ~finally:(fun () -> Tstm_runtime.Tap.install None) f;
  List.rev !log

let test_read_only_path (e : Registry.entry) () =
  let (module S) = e.Registry.sim in
  let stm = e.Registry.name in
  let t = S.create ~memory_words:4096 () in
  let words = 8 in
  let a = S.atomically t (fun tx -> S.alloc tx words) in
  S.atomically t (fun tx ->
      for i = 0 to words - 1 do
        S.write tx (a + i) (10 * i)
      done);
  S.reset_stats t;
  (* Read-only lookups commit, each counted as a read-only commit. *)
  let lookups = 5 in
  let sums = Array.make lookups 0 in
  R.run ~nthreads:1 (fun _ ->
      for k = 0 to lookups - 1 do
        sums.(k) <-
          S.atomically ~read_only:true t (fun tx ->
              let s = ref 0 in
              for i = 0 to words - 1 do
                s := !s + S.read tx (a + i)
              done;
              !s)
      done);
  Array.iter (check_int (stm ^ " lookup sum") 280) sums;
  let s = S.stats t in
  check_int (stm ^ " lookups committed") lookups s.Tstm_tm.Tm_stats.commits;
  check_int (stm ^ " commits_read_only") lookups s.Tstm_tm.Tm_stats.commits_read_only;
  (* A write inside a read-only transaction is rejected before it touches
     any lock word, counter, clock, seqlock or arena word. *)
  let rejected = ref false in
  let mutated =
    mutations_during (fun () ->
        R.run ~nthreads:1 (fun _ ->
            try
              S.atomically ~read_only:true t (fun tx ->
                  ignore (S.read tx a);
                  S.write tx a (-1))
            with Invalid_argument _ -> rejected := true))
  in
  check_bool (stm ^ " write raised Invalid_argument") true !rejected;
  Alcotest.(check (list string)) (stm ^ " no protocol state mutated") [] mutated;
  let s = S.stats t in
  check_int (stm ^ " rejected transaction not counted") lookups
    s.Tstm_tm.Tm_stats.commits_read_only;
  (* The next update transaction, from another thread, commits. *)
  R.run ~nthreads:2 (fun tid ->
      if tid = 1 then S.atomically t (fun tx -> S.write tx a 7));
  let s = S.stats t in
  check_int (stm ^ " update committed") (lookups + 1) s.Tstm_tm.Tm_stats.commits;
  check_int (stm ^ " update is not read-only") lookups
    s.Tstm_tm.Tm_stats.commits_read_only;
  check_int (stm ^ " update visible") 7 (S.atomically t (fun tx -> S.read tx a))

let read_only_tests =
  List.map
    (fun e ->
      Alcotest.test_case e.Registry.name `Quick (test_read_only_path e))
    (Registry.all ())

(* ------------------------------------------------------------------ *)
(* Consistent snapshots on real domains                                *)
(* ------------------------------------------------------------------ *)

(* Two domains increment words [x] and [y] together for about 0.2 s.  Every
   attempt reads both, an attempt that later aborts included, and counts a
   torn pair [x <> y]; thread 1 alternates update and read-only attempts.
   The data words are plain loads and stores on real domains, ordered only
   by the lock and clock accesses around them, so a broken ordering shows
   here as a torn pair.  Workers only touch [Atomic]s; the checks run after
   [run] returns. *)
let test_real_snapshot (e : Registry.entry) () =
  let (module S) = e.Registry.real in
  let stm = e.Registry.name in
  let t = S.create ~memory_words:4096 () in
  let x = S.atomically t (fun tx -> S.alloc tx 1) in
  let y = S.atomically t (fun tx -> S.alloc tx 1) in
  let torn = Atomic.make 0 and attempts = Atomic.make 0 in
  let updates = Array.init 2 (fun _ -> Atomic.make 0) in
  let deadline = Tstm_obs.Monotonic.now_ns () + 200_000_000 in
  Tstm_runtime.Runtime_real.run ~nthreads:2 (fun tid ->
      let k = ref 0 in
      while Tstm_obs.Monotonic.now_ns () < deadline do
        let update = tid = 0 || !k land 1 = 0 in
        S.atomically ~read_only:(not update) t (fun tx ->
            Atomic.incr attempts;
            let a = S.read tx x in
            let b = S.read tx y in
            if a <> b then Atomic.incr torn;
            if update then begin
              S.write tx x (a + 1);
              S.write tx y (b + 1)
            end);
        if update then Atomic.incr updates.(tid);
        incr k
      done);
  let total = Atomic.get updates.(0) + Atomic.get updates.(1) in
  check_int (stm ^ " no torn snapshot") 0 (Atomic.get torn);
  check_bool (stm ^ " both threads updated") true
    (Atomic.get updates.(0) > 0 && Atomic.get updates.(1) > 0);
  check_bool (stm ^ " attempts cover the updates") true
    (Atomic.get attempts >= total);
  let fx, fy = S.atomically t (fun tx -> (S.read tx x, S.read tx y)) in
  check_int (stm ^ " x counts every update") total fx;
  check_int (stm ^ " y counts every update") total fy

let real_snapshot_tests =
  List.map
    (fun e ->
      Alcotest.test_case e.Registry.name `Quick (test_real_snapshot e))
    (Registry.all ())

let () =
  Alcotest.run "robustness"
    [
      ( "failure injection",
        Inject_wb.tests (Config.strategy_to_string Config.Write_back)
        @ Inject_wt.tests (Config.strategy_to_string Config.Write_through)
        @ Inject_tl2.tests "tl2" @ Inject_norec.tests "norec" );
      ("real-domain snapshots", real_snapshot_tests);
      ( "write-through incarnations",
        [ Alcotest.test_case "overflow" `Quick test_incarnation_overflow ] );
      ( "read-only staleness",
        [ Alcotest.test_case "stale abort + retry" `Quick test_read_only_aborts_on_stale ] );
      ("read-only path", read_only_tests);
      ( "api limits",
        [
          Alcotest.test_case "create validations" `Quick test_create_validations;
          Alcotest.test_case "set_config validates" `Quick
            test_set_config_validates;
          Alcotest.test_case "nested rejected" `Quick
            test_nested_atomically_rejected;
          Alcotest.test_case "strategy switch" `Quick
            test_strategy_switch_via_set_config;
          Alcotest.test_case "lockenc maxima" `Quick test_lockenc_maxima;
        ] );
      ( "conflict waiting",
        [
          Alcotest.test_case "correct and calmer" `Quick
            test_conflict_wait_correct_and_calmer;
          Alcotest.test_case "validated" `Quick test_conflict_wait_validated;
        ] );
      ( "tuner corners",
        [
          Alcotest.test_case "second-best switch" `Quick
            test_tuner_second_best_switch;
          Alcotest.test_case "flat landscape" `Quick
            test_tuner_nop_at_converged_best;
        ] );
      ( "overwrite workloads",
        [
          Alcotest.test_case "heavy write sets" `Quick
            test_overwrite_workload_writes_heavily;
          Alcotest.test_case "membership preserved" `Quick
            test_overwrite_preserves_contents;
        ] );
      ( "contention managers",
        [
          Alcotest.test_case "registry" `Quick test_cm_registry;
          Alcotest.test_case "decision tables" `Quick test_cm_decision_tables;
          QCheck_alcotest.to_alcotest cm_kill_total_order;
          Alcotest.test_case "effective max retries" `Quick
            test_effective_max_retries;
        ] );
      ( "backoff determinism",
        [
          Alcotest.test_case "bounded at any attempts" `Quick
            test_backoff_bounded_at_any_attempts;
          Alcotest.test_case "replay stable" `Quick test_backoff_replay_stable;
        ] );
      ( "fairness counters",
        [ Alcotest.test_case "record/merge/pp" `Quick test_fairness_counters ] );
      ( "watchdog",
        [
          Alcotest.test_case "create validation" `Quick
            test_watchdog_validation;
          Alcotest.test_case "livelock ladder + recovery" `Quick
            test_watchdog_livelock_ladder;
          Alcotest.test_case "starvation fires once" `Quick
            test_watchdog_starvation_once;
        ] );
      ( "workload patterns",
        [
          Alcotest.test_case "names" `Quick test_pattern_names;
          Alcotest.test_case "uniform stream identity" `Quick
            test_uniform_stream_identity;
          Alcotest.test_case "skew concentrates" `Quick
            test_skewed_patterns_concentrate;
          Alcotest.test_case "bimodal/asym roles" `Quick test_pattern_roles;
        ] );
      ( "progress guarantees",
        [
          Alcotest.test_case "suicide livelocks" `Quick test_suicide_livelocks;
          Alcotest.test_case "watchdog rescues suicide" `Quick
            test_watchdog_rescues_suicide;
          Alcotest.test_case "seqlock STM is obstruction-free" `Quick
            test_seqlock_obstruction_free;
          Alcotest.test_case "karma/greedy commit everything" `Quick
            test_priority_cms_commit_everything;
          Alcotest.test_case "serialize commits via escalation" `Quick
            test_serialize_commits_via_escalation;
        ] );
    ]
