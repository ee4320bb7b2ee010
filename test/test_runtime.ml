(* Tests for the execution substrate: scheduler determinism, virtual-time
   accounting, cache-model pricing, atomic semantics under both runtimes. *)

open Tstm_runtime

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Sim_sched                                                          *)
(* ------------------------------------------------------------------ *)

let test_sched_runs_all () =
  let seen = Array.make 5 false in
  Sim_sched.run ~nthreads:5 (fun i -> seen.(i) <- true);
  Array.iteri (fun i b -> check_bool (Printf.sprintf "fiber %d ran" i) true b) seen

let test_sched_tid () =
  let tids = ref [] in
  Sim_sched.run ~nthreads:3 (fun i ->
      check_int "tid matches" i (Sim_sched.tid ());
      tids := i :: !tids);
  check_int "three fibers" 3 (List.length !tids)

let test_sched_vtime_advances () =
  let final = Array.make 2 0 in
  Sim_sched.run ~nthreads:2 (fun i ->
      Sim_sched.charge 100;
      Sim_sched.charge 50;
      final.(i) <- Sim_sched.now_cycles ());
  check_int "fiber 0 time" 150 final.(0);
  check_int "fiber 1 time" 150 final.(1)

let test_sched_noyield_advances () =
  let final = ref 0 in
  Sim_sched.run ~nthreads:1 (fun _ ->
      Sim_sched.charge_noyield 42;
      final := Sim_sched.now_cycles ());
  check_int "noyield counted" 42 !final

let test_sched_interleaves_by_time () =
  (* Fiber 0 does cheap steps, fiber 1 expensive ones: the trace must be
     ordered by virtual time. *)
  let trace = ref [] in
  Sim_sched.run ~nthreads:2 (fun i ->
      let cost = if i = 0 then 10 else 25 in
      for _ = 1 to 4 do
        Sim_sched.charge cost;
        trace := (i, Sim_sched.now_cycles ()) :: !trace
      done);
  let trace = List.rev !trace in
  let times = List.map snd trace in
  let rec sorted = function
    | a :: (b :: _ as rest) -> a <= b && sorted rest
    | _ -> true
  in
  check_bool "trace ordered by vtime" true (sorted times);
  (* First event must be fiber 0 at t=10 (cheaper step). *)
  (match trace with
  | (0, 10) :: _ -> ()
  | (i, t) :: _ -> Alcotest.failf "first event was fiber %d at %d" i t
  | [] -> Alcotest.fail "empty trace")

let test_sched_deterministic () =
  let run_once () =
    let trace = ref [] in
    Sim_sched.run ~nthreads:4 (fun i ->
        let g = Tstm_util.Xrand.create (1000 + i) in
        for _ = 1 to 50 do
          Sim_sched.charge (1 + Tstm_util.Xrand.int g 20);
          trace := (i, Sim_sched.now_cycles ()) :: !trace
        done);
    !trace
  in
  check_bool "two identical runs" true (run_once () = run_once ())

let test_sched_outside_defaults () =
  check_bool "not inside" false (Sim_sched.inside ());
  check_int "tid 0" 0 (Sim_sched.tid ());
  check_int "time 0" 0 (Sim_sched.now_cycles ());
  Sim_sched.charge 10 (* must be a harmless no-op *)

let test_sched_rejects_bad_nthreads () =
  Alcotest.check_raises "0 threads"
    (Invalid_argument "Sim_sched.run: nthreads < 1") (fun () ->
      Sim_sched.run ~nthreads:0 (fun _ -> ()))

let test_sched_many_switches_no_stack_growth () =
  (* A trampolined scheduler must survive hundreds of thousands of context
     switches; a recursive one would blow the stack here. *)
  Sim_sched.run ~nthreads:2 (fun _ ->
      for _ = 1 to 200_000 do
        Sim_sched.charge 1
      done);
  check_bool "switch count high" true (Sim_sched.switches () > 200_000)

let test_sched_exception_propagates () =
  (try
     Sim_sched.run ~nthreads:1 (fun _ -> failwith "boom");
     Alcotest.fail "expected exception"
   with Failure m -> Alcotest.(check string) "message" "boom" m);
  (* Scheduler state must be cleaned up: a fresh run still works. *)
  let ok = ref false in
  Sim_sched.run ~nthreads:1 (fun _ -> ok := true);
  check_bool "recovered" true !ok

(* ------------------------------------------------------------------ *)
(* Cache_model                                                        *)
(* ------------------------------------------------------------------ *)

let params = Cache_model.default

let test_cache_first_read_misses () =
  let c = Cache_model.create (Cache_model.create_global params) 64 in
  let cost = Cache_model.read_cost c ~cpu:0 ~index:0 in
  check_int "cold miss" (params.Cache_model.read_hit + params.Cache_model.line_transfer) cost;
  let cost2 = Cache_model.read_cost c ~cpu:0 ~index:0 in
  check_int "then hit" params.Cache_model.read_hit cost2

let test_cache_same_line_shares () =
  let c = Cache_model.create (Cache_model.create_global params) 64 in
  ignore (Cache_model.read_cost c ~cpu:0 ~index:0);
  (* Word 1 is on the same line as word 0 (words_per_line >= 2). *)
  let cost = Cache_model.read_cost c ~cpu:0 ~index:1 in
  check_int "line already present" params.Cache_model.read_hit cost

let test_cache_write_invalidates_reader () =
  let c = Cache_model.create (Cache_model.create_global params) 64 in
  ignore (Cache_model.read_cost c ~cpu:0 ~index:0);
  ignore (Cache_model.read_cost c ~cpu:1 ~index:0);
  (* CPU 1 writes: must pay to invalidate CPU 0's copy. *)
  let wcost = Cache_model.write_cost c ~cpu:1 ~index:0 in
  check_int "invalidation"
    (params.Cache_model.write_hit + params.Cache_model.line_transfer)
    wcost;
  (* CPU 0's next read pays a transfer (line dirty at CPU 1). *)
  let rcost = Cache_model.read_cost c ~cpu:0 ~index:0 in
  check_int "transfer back"
    (params.Cache_model.read_hit + params.Cache_model.line_transfer)
    rcost

let test_cache_exclusive_writes_are_cheap () =
  let c = Cache_model.create (Cache_model.create_global params) 64 in
  ignore (Cache_model.write_cost c ~cpu:2 ~index:8);
  let cost = Cache_model.write_cost c ~cpu:2 ~index:8 in
  check_int "owned write" params.Cache_model.write_hit cost

let test_cache_sole_sharer_upgrade () =
  let c = Cache_model.create (Cache_model.create_global params) 64 in
  ignore (Cache_model.read_cost c ~cpu:3 ~index:16);
  let cost = Cache_model.write_cost c ~cpu:3 ~index:16 in
  check_int "silent upgrade" params.Cache_model.write_hit cost

let test_cache_false_sharing_pingpong () =
  (* Two CPUs writing *different* words on the same line must ping-pong. *)
  let c = Cache_model.create (Cache_model.create_global params) 64 in
  ignore (Cache_model.write_cost c ~cpu:0 ~index:0);
  let a = Cache_model.write_cost c ~cpu:1 ~index:1 in
  let b = Cache_model.write_cost c ~cpu:0 ~index:0 in
  check_int "cpu1 pays" (params.Cache_model.write_hit + params.Cache_model.line_transfer) a;
  check_int "cpu0 pays again" (params.Cache_model.write_hit + params.Cache_model.line_transfer) b

let test_cache_validate () =
  Alcotest.check_raises "bad words_per_line"
    (Invalid_argument "Cache_model: words_per_line must be a power of two")
    (fun () -> Cache_model.validate { params with Cache_model.words_per_line = 3 });
  (* Fewer lines than ways would leave a cache with no set. *)
  Alcotest.check_raises "l1 below one set"
    (Invalid_argument "Cache_model: l1_lines must be at least 8 (one set of 8 ways)")
    (fun () -> Cache_model.validate { params with Cache_model.l1_lines = 4 })

let test_cache_capacity_conflict_evicts () =
  (* The private cache is 8-way set-associative: 8 lines mapping to the same
     set coexist; a 9th evicts the round-robin victim, even though coherence
     alone would allow a hit. *)
  let g = Cache_model.create_global params in
  let wpl = params.Cache_model.words_per_line in
  let sets = params.Cache_model.private_cache_lines / 8 in
  let stride = sets * wpl in
  let c = Cache_model.create g (10 * stride) in
  for k = 0 to 7 do
    ignore (Cache_model.read_cost c ~cpu:0 ~index:(k * stride))
  done;
  check_int "8 ways coexist" params.Cache_model.read_hit
    (Cache_model.read_cost c ~cpu:0 ~index:0);
  (* The 9th same-set line evicts one way; cycling through 9 lines keeps
     missing somewhere. *)
  ignore (Cache_model.read_cost c ~cpu:0 ~index:(8 * stride));
  let misses = ref 0 in
  for k = 0 to 8 do
    let cost = Cache_model.read_cost c ~cpu:0 ~index:(k * stride) in
    if cost > params.Cache_model.read_hit + params.Cache_model.l1_miss then
      incr misses
  done;
  check_bool "conflict misses occur" true (!misses > 0);
  (* A line in a different set is untouched by all this. *)
  ignore (Cache_model.read_cost c ~cpu:0 ~index:wpl);
  check_int "independent set hits" params.Cache_model.read_hit
    (Cache_model.read_cost c ~cpu:0 ~index:wpl)

let test_cache_reset_tags_cools () =
  let g = Cache_model.create_global params in
  let c = Cache_model.create g 64 in
  ignore (Cache_model.read_cost c ~cpu:0 ~index:0);
  check_int "warm hit" params.Cache_model.read_hit
    (Cache_model.read_cost c ~cpu:0 ~index:0);
  Cache_model.reset_tags g;
  check_int "cold again after reset"
    (params.Cache_model.read_hit + params.Cache_model.line_transfer)
    (Cache_model.read_cost c ~cpu:0 ~index:0)

let test_cache_per_cpu_private () =
  (* CPU 1's evictions must not disturb CPU 0's cache. *)
  let g = Cache_model.create_global params in
  let stride = params.Cache_model.private_cache_lines * params.Cache_model.words_per_line in
  let c = Cache_model.create g (2 * stride) in
  ignore (Cache_model.read_cost c ~cpu:0 ~index:0);
  ignore (Cache_model.read_cost c ~cpu:1 ~index:0);
  ignore (Cache_model.read_cost c ~cpu:1 ~index:stride);
  check_int "cpu0 unaffected" params.Cache_model.read_hit
    (Cache_model.read_cost c ~cpu:0 ~index:0)

let test_cache_highest_cpu_shares () =
  (* The sharer mask has a bit for every CPU up to [max_cpus - 1]: the
     highest CPU's re-read hits like anyone else's. *)
  check_int "max_cpus" 63 Cache_model.max_cpus;
  let c = Cache_model.create (Cache_model.create_global params) 64 in
  let cpu = Cache_model.max_cpus - 1 in
  check_int "cold miss"
    (params.Cache_model.read_hit + params.Cache_model.line_transfer)
    (Cache_model.read_cost c ~cpu ~index:0);
  check_int "then hit" params.Cache_model.read_hit
    (Cache_model.read_cost c ~cpu ~index:0);
  check_int "silent upgrade" params.Cache_model.write_hit
    (Cache_model.write_cost c ~cpu ~index:0)

let test_cache_id_guard () =
  (* Word indices and line ids live in 32-bit slots: an array they would
     not fit is refused before anything is allocated. *)
  let g = Cache_model.create_global params in
  let refused len =
    match Cache_model.create g len with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "2^40 words" true (refused (1 lsl 40));
  check_bool "2^31 words" true (refused (1 lsl 31));
  check_bool "negative length" true (refused (-1));
  let c = Cache_model.create g 64 in
  check_int "usable after refusals"
    (params.Cache_model.read_hit + params.Cache_model.line_transfer)
    (Cache_model.read_cost c ~cpu:0 ~index:0)

(* A scripted access mix on small caches, every cost pinned: L1 has 2 sets
   and L2 8 sets, each of 8 ways.  Array [a] spans 2^16 lines, so the ids
   of [b]'s lines need 17 bits and share L2 sets with [a]'s lines (b line
   0 is id 65538, a line 1 is id 2: same low 16 bits, same set 2).  The
   script walks L1 misses, L2 set conflicts across both arrays, cursor
   wrap-around, remote transfers, invalidations and silent upgrades on
   three CPUs.  A step is (op, array, cpu, line, word, cost). *)
let test_cache_pinned_costs () =
  let small =
    { params with Cache_model.l1_lines = 16; private_cache_lines = 64 }
  in
  let g = Cache_model.create_global small in
  let a = Cache_model.create g (65536 * 8) in
  let b = Cache_model.create g 64 in
  let script =
    [
      (* cold miss, hit, a word on the same line *)
      (`R, a, 0, 1, 0, 103); (`R, a, 0, 1, 0, 3); (`R, a, 0, 1, 5, 3);
      (* b line 0 joins a line 1 in L2 set 2 *)
      (`R, b, 0, 0, 0, 103); (`R, a, 0, 1, 0, 3); (`R, b, 0, 0, 0, 3);
      (* six more a lines fill set 2; a seventh wraps the cursor *)
      (`R, a, 0, 9, 0, 103); (`R, a, 0, 17, 0, 103); (`R, a, 0, 25, 0, 103);
      (`R, a, 0, 33, 0, 103); (`R, a, 0, 41, 0, 103); (`R, a, 0, 49, 0, 103);
      (`R, a, 0, 57, 0, 103); (`R, a, 0, 1, 0, 103); (`R, b, 0, 0, 0, 103);
      (`R, a, 0, 9, 0, 103); (`R, a, 0, 57, 0, 3);
      (* set-4 lines push set-2 lines out of L1 (both even ids: L1 set 0) *)
      (`R, a, 0, 3, 0, 103); (`R, a, 0, 11, 0, 103); (`R, a, 0, 19, 0, 103);
      (`R, a, 0, 27, 0, 103); (`R, a, 0, 35, 0, 103); (`R, a, 0, 43, 0, 103);
      (`R, a, 0, 57, 0, 14); (`R, b, 0, 0, 0, 14); (`R, a, 0, 3, 0, 3);
      (* a second reader, then an invalidating writer and transfers back *)
      (`R, a, 1, 1, 0, 103); (`R, a, 0, 1, 0, 14); (`W, a, 1, 1, 2, 103);
      (`R, a, 0, 1, 2, 103); (`R, a, 1, 1, 3, 3); (`W, a, 0, 1, 4, 103);
      (`W, a, 0, 1, 4, 3); (`R, a, 2, 1, 4, 103); (`W, a, 2, 1, 6, 103);
      (* owned writes, silent upgrades, ping-pong on b *)
      (`W, b, 2, 1, 0, 103); (`W, b, 2, 1, 1, 3); (`R, b, 2, 2, 0, 103);
      (`W, b, 2, 2, 0, 3); (`R, b, 1, 2, 0, 103); (`W, b, 2, 2, 3, 103);
      (`W, b, 1, 2, 4, 103); (`W, b, 2, 2, 4, 103); (`R, b, 0, 2, 7, 103);
      (* CPU 2 owns b line 0, then eight a lines of L2 set 2 evict it *)
      (`W, b, 2, 0, 0, 103); (`R, a, 2, 9, 0, 103); (`R, a, 2, 17, 0, 103);
      (`R, a, 2, 25, 0, 103); (`R, a, 2, 33, 0, 103); (`R, a, 2, 41, 0, 103);
      (`R, a, 2, 49, 0, 103); (`R, a, 2, 57, 0, 103); (`R, a, 2, 65, 0, 103);
      (`W, b, 2, 0, 1, 103); (`R, a, 2, 1, 0, 103); (`W, a, 2, 9, 0, 103);
      (* eight a lines of L2 set 4 push the owned b line 0 out of L1 only:
         the next owned write pays the L1 miss *)
      (`W, b, 2, 0, 2, 3); (`R, a, 2, 3, 0, 103); (`R, a, 2, 11, 0, 103);
      (`R, a, 2, 19, 0, 103); (`R, a, 2, 27, 0, 103); (`R, a, 2, 35, 0, 103);
      (`R, a, 2, 43, 0, 103); (`R, a, 2, 51, 0, 103); (`R, a, 2, 59, 0, 103);
      (`W, b, 2, 0, 2, 14); (`W, b, 2, 0, 2, 3); (`R, b, 2, 8, 0, 103);
      (`W, b, 2, 8, 1, 3); (`R, b, 0, 8, 1, 103); (`R, b, 1, 8, 1, 103);
      (`W, b, 0, 8, 2, 103); (`R, b, 1, 8, 2, 103); (`R, b, 2, 8, 2, 103);
    ]
  in
  let got =
    List.map
      (fun (op, arr, cpu, line, word, _) ->
        let index = (line * 8) + word in
        match op with
        | `R -> Cache_model.read_cost arr ~cpu ~index
        | `W -> Cache_model.write_cost arr ~cpu ~index)
      script
  in
  Alcotest.(check (list int))
    "cost sequence"
    (List.map (fun (_, _, _, _, _, c) -> c) script)
    got

(* ------------------------------------------------------------------ *)
(* Runtime implementations (shared semantics)                         *)
(* ------------------------------------------------------------------ *)

(* Construction and [run] come from the runtime; every access is [Shm]'s. *)
module Semantics (R : sig val kind : Shm.kind end) = struct
  let test_array_basic () =
    let a = Shm.make R.kind 10 7 in
    check_int "length" 10 (Shm.length a);
    for i = 0 to 9 do
      check_int "init" 7 (Shm.get a i)
    done;
    Shm.set a 3 42;
    check_int "set/get" 42 (Shm.get a 3);
    check_int "others untouched" 7 (Shm.get a 2)

  let test_cas () =
    let a = Shm.make R.kind 1 5 in
    check_bool "cas succeeds" true (Shm.cas a 0 5 6);
    check_int "updated" 6 (Shm.get a 0);
    check_bool "cas fails" false (Shm.cas a 0 5 7);
    check_int "unchanged" 6 (Shm.get a 0)

  let test_fetch_add () =
    let a = Shm.make R.kind 1 10 in
    check_int "returns old" 10 (Shm.fetch_add a 0 5);
    check_int "adds" 15 (Shm.get a 0);
    check_int "negative delta" 15 (Shm.fetch_add a 0 (-3));
    check_int "subtracted" 12 (Shm.get a 0)

  let test_counter_under_threads () =
    let a = Shm.make R.kind 1 0 in
    let n = 4 and per = 1000 in
    Runtime.run R.kind ~nthreads:n (fun _ ->
        for _ = 1 to per do
          ignore (Shm.fetch_add a 0 1)
        done);
    check_int "no lost updates" (n * per) (Shm.get a 0)

  let test_tids_unique () =
    let a = Shm.make R.kind 8 0 in
    (* Each job records the id it saw and the checks run after [run]:
       Alcotest's checks share formatter state, and eight domains asserting
       at once can corrupt it ([Queue.Empty] out of a worker). *)
    let seen = Array.init 8 (fun _ -> Atomic.make (-1)) in
    Runtime.run R.kind ~nthreads:8 (fun i ->
        ignore (Shm.fetch_add a (Shm.tid ()) 1);
        Atomic.set seen.(i) (Shm.tid ()));
    Array.iteri (fun i s -> check_int "tid = body arg" i (Atomic.get s)) seen;
    for i = 0 to 7 do
      check_int "each tid once" 1 (Shm.get a i)
    done

  let test_cas_mutex () =
    (* A CAS spin lock protecting a non-atomic counter: the total must be
       exact under every interleaving. *)
    let lock = Shm.make R.kind 1 0 in
    let counter = ref 0 in
    let n = 4 and per = 500 in
    Runtime.run R.kind ~nthreads:n (fun _ ->
        for _ = 1 to per do
          while not (Shm.cas lock 0 0 1) do
            Shm.yield ()
          done;
          counter := !counter + 1;
          Shm.set lock 0 0
        done);
    check_int "mutex protected" (n * per) !counter

  let tests =
    [
      Alcotest.test_case "array basics" `Quick test_array_basic;
      Alcotest.test_case "cas" `Quick test_cas;
      Alcotest.test_case "fetch_add" `Quick test_fetch_add;
      Alcotest.test_case "parallel counter" `Quick test_counter_under_threads;
      Alcotest.test_case "tids" `Quick test_tids_unique;
      Alcotest.test_case "cas mutex" `Quick test_cas_mutex;
    ]
end

module Sim_semantics = Semantics (Runtime_sim)
module Real_semantics = Semantics (Runtime_real)

(* ------------------------------------------------------------------ *)
(* Runtime_sim specifics                                              *)
(* ------------------------------------------------------------------ *)

let test_sim_now_uses_clock () =
  Shm.configure Cache_model.default;
  let t = ref 0.0 in
  Runtime_sim.run ~nthreads:1 (fun _ ->
      Shm.charge 2_000_000_000;
      t := Runtime_sim.now ());
  (* 2e9 cycles at 2 GHz = 1 second. *)
  Alcotest.(check (float 1e-6)) "1 second" 1.0 !t

let test_sim_zero_cost_outside_run () =
  let a = Shm.make Simulated 4 0 in
  Shm.set a 0 9;
  check_int "works outside run" 9 (Shm.get a 0)

let test_sim_cpu_limit () =
  Shm.configure Cache_model.default;
  let ran = ref false in
  Alcotest.check_raises "64 threads refused"
    (Invalid_argument
       "Runtime_sim.run: 64 threads, but the cache model tracks at most 63 \
        CPUs")
    (fun () -> Runtime_sim.run ~nthreads:64 (fun _ -> ran := true));
  check_bool "no fiber started" false !ran;
  (* At the limit every CPU, the highest included, re-reads a shared line
     at the hit cost. *)
  let a = Shm.make Simulated 8 0 in
  let reread = Array.make Cache_model.max_cpus 0 in
  Runtime_sim.run ~nthreads:Cache_model.max_cpus (fun cpu ->
      ignore (Shm.get a 0);
      let t0 = Sim_sched.now_cycles () in
      ignore (Shm.get a 0);
      reread.(cpu) <- Sim_sched.now_cycles () - t0);
  Array.iteri
    (fun cpu c ->
      check_int (Printf.sprintf "cpu %d re-read" cpu)
        Cache_model.default.Cache_model.read_hit c)
    reread

let test_sim_contention_costs_time () =
  Shm.configure Cache_model.default;
  (* Same total op count; contended case has both CPUs hammering one word,
     uncontended case uses words on distinct lines. The contended run must
     take strictly more virtual time. *)
  let elapsed contended =
    let a = Shm.make Simulated 64 0 in
    let finish = Array.make 2 0.0 in
    Runtime_sim.run ~nthreads:2 (fun i ->
        let idx = if contended then 0 else i * 32 in
        for _ = 1 to 200 do
          Shm.set a idx 1
        done;
        finish.(i) <- Runtime_sim.now ());
    Float.max finish.(0) finish.(1)
  in
  let c = elapsed true and u = elapsed false in
  check_bool (Printf.sprintf "contended %.3g > uncontended %.3g" c u) true (c > u)

let test_sim_deterministic_parallel_counter () =
  let trace () =
    Shm.configure Cache_model.default;
    let a = Shm.make Simulated 1 0 in
    let log = ref [] in
    Runtime_sim.run ~nthreads:3 (fun i ->
        let g = Tstm_util.Xrand.create i in
        for _ = 1 to 100 do
          Shm.charge (Tstm_util.Xrand.int g 10 + 1);
          log := (i, Shm.fetch_add a 0 1) :: !log
        done);
    !log
  in
  check_bool "identical traces" true (trace () = trace ())

(* ------------------------------------------------------------------ *)
(* Runtime_real edge contracts                                        *)
(* ------------------------------------------------------------------ *)

let test_real_run_non_reentrant () =
  match
    Runtime_real.run ~nthreads:1 (fun _ ->
        Runtime_real.run ~nthreads:1 (fun _ -> ()))
  with
  | () -> Alcotest.fail "nested run was accepted"
  | exception Invalid_argument _ -> ()

let test_real_pool_reuse_after_raise () =
  (* A raising job must fail that run, not poison the pool. *)
  (match Runtime_real.run ~nthreads:2 (fun tid -> if tid = 1 then failwith "boom")
   with
  | () -> Alcotest.fail "job exception was swallowed"
  | exception Failure m -> Alcotest.(check string) "the job's error" "boom" m);
  let sum = Atomic.make 0 in
  Runtime_real.run ~nthreads:4 (fun tid ->
      ignore (Atomic.fetch_and_add sum tid));
  check_int "pool is reusable after the failure" 6 (Atomic.get sum)

let test_real_first_error_in_tid_order () =
  (* Several jobs raise; the error surfaced must be the lowest tid's,
     independent of wall-clock finishing order. *)
  match
    Runtime_real.run ~nthreads:4 (fun tid ->
        if tid >= 1 then failwith (Printf.sprintf "tid%d" tid))
  with
  | () -> Alcotest.fail "no error propagated"
  | exception Failure m ->
      Alcotest.(check string) "lowest-tid error wins" "tid1" m

let test_healed_rejects_bad_nthreads () =
  match Runtime_real.run_healed ~nthreads:0 (fun _ -> ()) with
  | _ -> Alcotest.fail "nthreads = 0 was accepted"
  | exception Invalid_argument _ -> ()

let test_healed_respawns_crashed_workers () =
  (* Every worker crashes on its first execution; the respawned replay
     completes.  The report must account for one heal per tid and the
     replays must actually have run. *)
  let n = 3 in
  let crashed = Array.init n (fun _ -> Atomic.make false) in
  let completed = Array.init n (fun _ -> Atomic.make 0) in
  let r =
    Runtime_real.run_healed ~nthreads:n (fun tid ->
        if not (Atomic.exchange crashed.(tid) true) then
          raise
            (Tstm_chaos.Plan.Injected_crash { tid; point = "test" });
        Atomic.incr completed.(tid))
  in
  check_int "one crash healed per tid" n r.Runtime_real.crashes_healed;
  check_int "one requeue per tid" n r.Runtime_real.requeues;
  Array.iteri
    (fun tid c ->
      check_int (Printf.sprintf "tid %d replay completed" tid) 1 (Atomic.get c))
    completed

let test_healed_requeue_budget_bounds_crash_loops () =
  (* A job that crashes on every execution must not requeue forever: the
     budget runs out and the crash propagates as that worker's error. *)
  match
    Runtime_real.run_healed ~max_requeues:3 ~nthreads:1 (fun tid ->
        raise (Tstm_chaos.Plan.Injected_crash { tid; point = "test" }))
  with
  | _ -> Alcotest.fail "endless crash loop terminated without error"
  | exception Tstm_chaos.Plan.Injected_crash _ -> ()

let test_healed_propagates_non_crash_errors () =
  (* Only injected crashes are healed; a plain job exception fails the
     run (first in tid order) without any respawn. *)
  match
    Runtime_real.run_healed ~nthreads:2 (fun tid ->
        if tid = 1 then failwith "real bug")
  with
  | _ -> Alcotest.fail "job exception was swallowed"
  | exception Failure m -> Alcotest.(check string) "the job's error" "real bug" m

(* ------------------------------------------------------------------ *)
(* Shm: the direct access and cost layer                              *)
(* ------------------------------------------------------------------ *)

(* One scripted get/set/cas/fetch_add sequence over three words on two
   cache lines; the result lists every value it observed. *)
let shm_script ~base a =
  Shm.set a base 5;
  let r1 = Shm.get a base in
  let r2 = Shm.cas a base 5 7 in
  let r3 = Shm.cas a base 5 9 in
  let r4 = Shm.fetch_add a (base + 8) 3 in
  let r5 = Shm.fetch_add a (base + 8) (-1) in
  Shm.set a (base + 9) 4;
  [ r1; Bool.to_int r2; Bool.to_int r3; r4; r5; Shm.get a base;
    Shm.get a (base + 8); Shm.get a (base + 9) ]

let check_ints = Alcotest.(check (list int))

let test_shm_real_matches_sim () =
  let real = Shm.make Domains 24 0 in
  let sim = Shm.make Simulated 24 0 in
  (match (real, sim) with
  | Shm.Real _, Shm.Sim _ -> ()
  | _ -> Alcotest.fail "each runtime builds its own constructor");
  let expect = [ 5; 1; 0; 0; 3; 7; 2; 4 ] in
  check_ints "real" expect (shm_script ~base:0 real);
  check_ints "sim" expect (shm_script ~base:0 sim);
  check_int "same length" (Shm.length real) (Shm.length sim)

(* [shm_script] without its read-modify-writes, over the same three words:
   a word array takes none. *)
let shm_words_script ~base a =
  Shm.set a base 5;
  let r1 = Shm.get a base in
  Shm.set a (base + 8) 3;
  Shm.set a (base + 9) 4;
  Shm.set a base 7;
  [ r1; Shm.get a base; Shm.get a (base + 8); Shm.get a (base + 9) ]

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let test_shm_word_arrays () =
  let plain = Shm.make_words Domains 24 0 in
  let sim = Shm.make_words Simulated 24 0 in
  (match (plain, sim) with
  | Shm.Plain _, Shm.Sim _ -> ()
  | _ -> Alcotest.fail "make_words builds Plain on domains, Sim simulated");
  let expect = [ 5; 7; 3; 4 ] in
  check_ints "plain" expect (shm_words_script ~base:0 plain);
  check_ints "real" expect (shm_words_script ~base:0 (Shm.make Domains 24 0));
  check_ints "sim words" expect (shm_words_script ~base:0 sim);
  check_ints "sim" expect (shm_words_script ~base:0 (Shm.make Simulated 24 0));
  check_int "same length" (Shm.length plain) (Shm.length sim);
  List.iter
    (fun (name, a) ->
      check_bool (name ^ " cas raises") true
        (raises_invalid (fun () -> Shm.cas a 0 7 8));
      check_bool (name ^ " fetch_add raises") true
        (raises_invalid (fun () -> Shm.fetch_add a 0 1));
      check_int (name ^ " untouched") 7 (Shm.get a 0))
    [ ("plain", plain); ("sim words", sim) ]

(* A real lock array keeps only the stripes its arena reaches; a simulated
   one keeps all [n_locks], since the simulator numbers cache lines in
   creation order and the arena comes after the locks. *)
let test_shm_lock_arrays () =
  let n_locks = 1 lsl 16 in
  let sim = Shm.make_locks Simulated ~n_locks ~shifts:0 ~capacity:4 in
  (match sim with
  | Shm.Sim _ -> ()
  | _ -> Alcotest.fail "make_locks Simulated builds Sim");
  check_int "sim keeps n_locks" n_locks (Shm.length sim);
  check_bool "sim locks take a cas" true (Shm.cas sim (n_locks - 1) 0 1);
  let real = Shm.make_locks Domains ~n_locks ~shifts:0 ~capacity:4 in
  check_int "real keeps the reach" 5 (Shm.length real);
  check_bool "real locks take a cas" true (Shm.cas real 4 0 1);
  check_int "reach under shifts" 3
    (Shm.length (Shm.make_locks Domains ~n_locks ~shifts:3 ~capacity:16));
  check_int "reach past n_locks" n_locks
    (Shm.length
       (Shm.make_locks Domains ~n_locks ~shifts:0 ~capacity:(2 * n_locks)))

(* A simulated word array is priced exactly like [make]'s: two fibers
   racing the get/set script end at the same values and virtual times. *)
let test_shm_sim_words_same_time () =
  let race make =
    Shm.configure Cache_model.default;
    let a = make Shm.Simulated 24 0 in
    let out = Array.make 2 ([], 0) in
    Sim_sched.run ~nthreads:2 (fun i ->
        let r = shm_words_script ~base:i a in
        out.(i) <- (r, Sim_sched.now_cycles ()));
    out
  in
  let words = race Shm.make_words and sync = race Shm.make in
  for i = 0 to 1 do
    check_ints (Printf.sprintf "fiber %d values" i) (fst sync.(i))
      (fst words.(i));
    check_int (Printf.sprintf "fiber %d virtual time" i) (snd sync.(i))
      (snd words.(i))
  done;
  check_bool "the race costs time" true (snd sync.(0) > 0)

(* Two fibers race the script over one line each; the values they see and
   the virtual time they end at are the figures [Runtime_sim]'s own access
   code produced before it moved into [Shm]. *)
let test_shm_sim_virtual_time_pinned () =
  Shm.configure Cache_model.default;
  let a = Shm.make Simulated 24 0 in
  let out = Array.make 2 ([], 0) in
  Sim_sched.run ~nthreads:2 (fun i ->
      check_bool "a fiber is simulated" true (Shm.is_simulated ());
      check_int "fiber tid" i (Shm.tid ());
      let r = shm_script ~base:i a in
      out.(i) <- (r, Sim_sched.now_cycles ()));
  check_ints "fiber 0 values" [ 5; 1; 0; 0; 3; 7; 2; 4 ] (fst out.(0));
  check_ints "fiber 1 values" [ 5; 1; 0; 0; 3; 7; 4; 4 ] (fst out.(1));
  check_int "fiber 0 virtual time" 810 (snd out.(0));
  check_int "fiber 1 virtual time" 910 (snd out.(1))

let test_shm_outside_any_run () =
  check_bool "not simulated" false (Shm.is_simulated ());
  check_int "tid" 0 (Shm.tid ());
  Shm.charge 1_000;
  Shm.charge_local 1_000;
  Shm.yield ();
  check_int "no virtual time" 0 (Sim_sched.now_cycles ());
  check_int "no simulated clock" 0 (Runtime_sim.now_cycles ());
  let a = Shm.make Simulated 24 0 in
  ignore (shm_script ~base:0 a);
  check_int "accesses are free" 0 (Sim_sched.now_cycles ())

(* The clock follows the array's constructor, not the caller: a simulated
   array reads virtual time (0 outside a run) even from a thread that is
   not a fiber, and a real one reads wall-clock ns even from a fiber. *)
let test_shm_clock_by_kind () =
  let sim = Shm.make Simulated 8 0 and real = Shm.make Domains 8 0 in
  check_int "sim outside a run" 0 (Shm.now_cycles sim);
  let t0 = Shm.now_cycles real in
  check_bool "real outside a run" true (t0 > 0);
  check_bool "real is monotonic" true (Shm.now_cycles real >= t0);
  let seen = ref (0, 0) in
  Runtime_sim.run ~nthreads:1 (fun _ ->
      Shm.charge 1_000;
      seen := (Shm.now_cycles sim, Shm.now_cycles real));
  check_int "sim inside a run" 1_000 (fst !seen);
  check_bool "real inside a run" true (snd !seen >= t0)

(* Each real job must see the id it was handed, through [Shm] rather than
   [Runtime_real], including a job replayed on a respawned domain. *)
let test_shm_real_tids () =
  let n = 2 in
  let seen = Array.init n (fun _ -> Atomic.make (-1)) in
  let sim = Array.init n (fun _ -> Atomic.make true) in
  Runtime_real.run ~nthreads:n (fun tid ->
      Atomic.set seen.(tid) (Shm.tid ());
      Atomic.set sim.(tid) (Shm.is_simulated ()));
  Array.iteri
    (fun tid a -> check_int (Printf.sprintf "run: tid %d" tid) tid (Atomic.get a))
    seen;
  Array.iter (fun a -> check_bool "run: not simulated" false (Atomic.get a)) sim;
  let crashed = Array.init n (fun _ -> Atomic.make false) in
  let replayed = Array.init n (fun _ -> Atomic.make (-1)) in
  let r =
    Runtime_real.run_healed ~nthreads:n (fun tid ->
        Atomic.set sim.(tid) (Shm.is_simulated ());
        if not (Atomic.exchange crashed.(tid) true) then begin
          Atomic.set seen.(tid) (Shm.tid ());
          raise (Tstm_chaos.Plan.Injected_crash { tid; point = "test" })
        end;
        Atomic.set replayed.(tid) (Shm.tid ()))
  in
  check_int "every worker respawned" n r.Runtime_real.crashes_healed;
  Array.iteri
    (fun tid a ->
      check_int (Printf.sprintf "run_healed: tid %d" tid) tid (Atomic.get a))
    seen;
  Array.iteri
    (fun tid a ->
      check_int (Printf.sprintf "respawned: tid %d" tid) tid (Atomic.get a))
    replayed;
  Array.iter
    (fun a -> check_bool "run_healed: not simulated" false (Atomic.get a))
    sim

(* ------------------------------------------------------------------ *)
(* Watchdog calm-window recovery boundaries                           *)
(* ------------------------------------------------------------------ *)

let wd_level = Alcotest.testable
    (Fmt.of_to_string Watchdog.level_to_string)
    ( = )

let check_level = Alcotest.check wd_level

let test_watchdog_calm_boundaries () =
  (* window=100, recover_windows=2: de-escalation must happen at exactly
     the second consecutive commit-bearing window boundary, one level per
     probe: Serialized -> Boosted at t=200, Boosted -> Normal at t=400. *)
  let w = Watchdog.create ~window:100 ~starve_retries:4 ~recover_windows:2 () in
  ignore (Watchdog.note_abort w ~now:0 ~tid:0 ~retries:4);
  ignore (Watchdog.note_abort w ~now:0 ~tid:0 ~retries:4);
  check_level "two starvations escalate to the top" Watchdog.Serialized
    (Watchdog.level w);
  ignore (Watchdog.note_commit w ~now:50 ~tid:0);
  ignore (Watchdog.note_commit w ~now:99 ~tid:0);
  check_level "inside the first window" Watchdog.Serialized (Watchdog.level w);
  ignore (Watchdog.note_commit w ~now:100 ~tid:0);
  check_level "one calm window is not enough" Watchdog.Serialized
    (Watchdog.level w);
  ignore (Watchdog.note_commit w ~now:199 ~tid:0);
  check_level "still inside the second window" Watchdog.Serialized
    (Watchdog.level w);
  ignore (Watchdog.note_commit w ~now:200 ~tid:0);
  check_level "second calm window de-escalates one step" Watchdog.Boosted
    (Watchdog.level w);
  ignore (Watchdog.note_commit w ~now:300 ~tid:0);
  check_level "the probe counter restarts after a step" Watchdog.Boosted
    (Watchdog.level w);
  ignore (Watchdog.note_commit w ~now:400 ~tid:0);
  check_level "two more calm windows reach Normal" Watchdog.Normal
    (Watchdog.level w);
  ignore (Watchdog.note_commit w ~now:600 ~tid:0);
  check_level "Normal is the floor" Watchdog.Normal (Watchdog.level w)

let test_watchdog_livelock_resets_calm () =
  (* A zero-commit window between two calm windows must reset the probe:
     recovery needs *consecutive* calm windows. *)
  let w = Watchdog.create ~window:100 ~starve_retries:4 ~recover_windows:2 () in
  ignore (Watchdog.note_abort w ~now:0 ~tid:0 ~retries:4);
  check_level "starvation escalates" Watchdog.Boosted (Watchdog.level w);
  ignore (Watchdog.note_commit w ~now:50 ~tid:0);
  (* The abort at 100 closes the commit-bearing window [0, 100): calm = 1.
     Nothing commits in [100, 200); the abort at 250 closes that window as
     a livelock, resetting the calm credit and re-escalating. *)
  ignore (Watchdog.note_abort w ~now:100 ~tid:0 ~retries:1);
  check_level "calm window alone does not de-escalate" Watchdog.Boosted
    (Watchdog.level w);
  ignore (Watchdog.note_abort w ~now:250 ~tid:0 ~retries:1);
  check_level "livelock re-escalates" Watchdog.Serialized (Watchdog.level w);
  check_int "livelock counted" 1 (Watchdog.livelocks w);
  (* Two fresh calm windows only step down one level: the earlier calm
     credit is gone. *)
  ignore (Watchdog.note_commit w ~now:260 ~tid:0);
  ignore (Watchdog.note_commit w ~now:350 ~tid:0);
  ignore (Watchdog.note_commit w ~now:450 ~tid:0);
  check_level "reset probe: one step only" Watchdog.Boosted (Watchdog.level w)

let () =
  Alcotest.run "tstm_runtime"
    [
      ( "sim_sched",
        [
          Alcotest.test_case "runs all fibers" `Quick test_sched_runs_all;
          Alcotest.test_case "tid" `Quick test_sched_tid;
          Alcotest.test_case "vtime" `Quick test_sched_vtime_advances;
          Alcotest.test_case "noyield" `Quick test_sched_noyield_advances;
          Alcotest.test_case "interleaves by time" `Quick
            test_sched_interleaves_by_time;
          Alcotest.test_case "deterministic" `Quick test_sched_deterministic;
          Alcotest.test_case "outside defaults" `Quick
            test_sched_outside_defaults;
          Alcotest.test_case "bad nthreads" `Quick
            test_sched_rejects_bad_nthreads;
          Alcotest.test_case "no stack growth" `Quick
            test_sched_many_switches_no_stack_growth;
          Alcotest.test_case "exception propagates" `Quick
            test_sched_exception_propagates;
        ] );
      ( "cache_model",
        [
          Alcotest.test_case "cold miss then hit" `Quick
            test_cache_first_read_misses;
          Alcotest.test_case "line sharing" `Quick test_cache_same_line_shares;
          Alcotest.test_case "write invalidates" `Quick
            test_cache_write_invalidates_reader;
          Alcotest.test_case "owned writes cheap" `Quick
            test_cache_exclusive_writes_are_cheap;
          Alcotest.test_case "upgrade" `Quick test_cache_sole_sharer_upgrade;
          Alcotest.test_case "false sharing" `Quick
            test_cache_false_sharing_pingpong;
          Alcotest.test_case "validate" `Quick test_cache_validate;
          Alcotest.test_case "capacity conflicts" `Quick
            test_cache_capacity_conflict_evicts;
          Alcotest.test_case "reset cools" `Quick test_cache_reset_tags_cools;
          Alcotest.test_case "per-cpu privacy" `Quick
            test_cache_per_cpu_private;
          Alcotest.test_case "pinned cost sequence" `Quick
            test_cache_pinned_costs;
          Alcotest.test_case "highest cpu shares" `Quick
            test_cache_highest_cpu_shares;
          Alcotest.test_case "32-bit id guard" `Quick test_cache_id_guard;
        ] );
      ("sim semantics", Sim_semantics.tests);
      ("domains semantics", Real_semantics.tests);
      ( "runtime_real contracts",
        [
          Alcotest.test_case "non-reentrant run" `Quick
            test_real_run_non_reentrant;
          Alcotest.test_case "pool reuse after raise" `Quick
            test_real_pool_reuse_after_raise;
          Alcotest.test_case "first error in tid order" `Quick
            test_real_first_error_in_tid_order;
          Alcotest.test_case "run_healed bad nthreads" `Quick
            test_healed_rejects_bad_nthreads;
          Alcotest.test_case "run_healed respawns crashed workers" `Quick
            test_healed_respawns_crashed_workers;
          Alcotest.test_case "requeue budget bounds crash loops" `Quick
            test_healed_requeue_budget_bounds_crash_loops;
          Alcotest.test_case "non-crash errors propagate" `Quick
            test_healed_propagates_non_crash_errors;
        ] );
      ( "watchdog calm windows",
        [
          Alcotest.test_case "recovery boundaries" `Quick
            test_watchdog_calm_boundaries;
          Alcotest.test_case "livelock resets calm" `Quick
            test_watchdog_livelock_resets_calm;
        ] );
      ( "shm",
        [
          Alcotest.test_case "real and sim agree" `Quick
            test_shm_real_matches_sim;
          Alcotest.test_case "virtual time pinned" `Quick
            test_shm_sim_virtual_time_pinned;
          Alcotest.test_case "word arrays" `Quick test_shm_word_arrays;
          Alcotest.test_case "lock arrays" `Quick test_shm_lock_arrays;
          Alcotest.test_case "sim words priced alike" `Quick
            test_shm_sim_words_same_time;
          Alcotest.test_case "outside any run" `Quick test_shm_outside_any_run;
          Alcotest.test_case "clock by kind" `Quick test_shm_clock_by_kind;
          Alcotest.test_case "real tids" `Quick test_shm_real_tids;
        ] );
      ( "runtime_sim",
        [
          Alcotest.test_case "virtual clock" `Quick test_sim_now_uses_clock;
          Alcotest.test_case "zero cost outside run" `Quick
            test_sim_zero_cost_outside_run;
          Alcotest.test_case "contention costs time" `Quick
            test_sim_contention_costs_time;
          Alcotest.test_case "deterministic parallel" `Quick
            test_sim_deterministic_parallel_counter;
          Alcotest.test_case "cpu limit" `Quick test_sim_cpu_limit;
        ] );
    ]
