(* Tests for the TinySTM core: lock encoding, configuration, hierarchy masks,
   and the STM semantics (atomicity, isolation, snapshot consistency, memory
   management, clock roll-over, re-tuning) under both runtimes and both write
   strategies. *)

open Tinystm
module Vmm = Tstm_vmm.Vmm

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Lockenc                                                            *)
(* ------------------------------------------------------------------ *)

let test_lockenc_unlocked () =
  let w = Lockenc.unlocked ~version:1234 ~incarnation:5 in
  check_bool "not locked" false (Lockenc.is_locked w);
  check_int "version" 1234 (Lockenc.version w);
  check_int "incarnation" 5 (Lockenc.incarnation w)

let test_lockenc_locked () =
  let w = Lockenc.locked ~tid:17 ~payload:9999 in
  check_bool "locked" true (Lockenc.is_locked w);
  check_int "owner" 17 (Lockenc.owner w);
  check_int "payload" 9999 (Lockenc.payload w)

let test_lockenc_zero_is_pristine () =
  check_bool "0 unlocked" false (Lockenc.is_locked 0);
  check_int "0 version" 0 (Lockenc.version 0);
  check_int "0 incarnation" 0 (Lockenc.incarnation 0)

let prop_lockenc_unlocked_roundtrip =
  QCheck.Test.make ~name:"unlocked roundtrip" ~count:500
    QCheck.(pair (int_range 0 (1 lsl 50)) (int_range 0 7))
    (fun (version, incarnation) ->
      let w = Lockenc.unlocked ~version ~incarnation in
      (not (Lockenc.is_locked w))
      && Lockenc.version w = version
      && Lockenc.incarnation w = incarnation)

let prop_lockenc_locked_roundtrip =
  QCheck.Test.make ~name:"locked roundtrip" ~count:500
    QCheck.(pair (int_range 0 127) (int_range 0 (1 lsl 30)))
    (fun (tid, payload) ->
      let w = Lockenc.locked ~tid ~payload in
      Lockenc.is_locked w && Lockenc.owner w = tid
      && Lockenc.payload w = payload)

let prop_lockenc_disjoint =
  QCheck.Test.make ~name:"locked and unlocked words never collide" ~count:500
    QCheck.(
      quad (int_range 0 (1 lsl 40)) (int_range 0 7) (int_range 0 127)
        (int_range 0 (1 lsl 30)))
    (fun (version, incarnation, tid, payload) ->
      Lockenc.unlocked ~version ~incarnation
      <> Lockenc.locked ~tid ~payload)

(* ------------------------------------------------------------------ *)
(* Config                                                             *)
(* ------------------------------------------------------------------ *)

let test_config_default_valid () = Config.validate Config.default

let test_config_two_level () =
  Config.validate (Config.make ~hierarchy:16 ~hierarchy2:4 ());
  let bad f = try f (); false with Invalid_argument _ -> true in
  check_bool "h2 > h rejected" true
    (bad (fun () -> ignore (Config.make ~hierarchy:4 ~hierarchy2:8 ())));
  check_bool "non-pow2 h2" true
    (bad (fun () -> ignore (Config.make ~hierarchy:16 ~hierarchy2:3 ())));
  (* Two addresses on the same level-1 counter share a level-2 counter. *)
  let c = Config.make ~n_locks:64 ~hierarchy:16 ~hierarchy2:4 () in
  for a = 0 to 200 do
    for b = 0 to 200 do
      if Config.hier_index c a = Config.hier_index c b then
        check_int "nested consistency" (Config.hier2_index c a)
          (Config.hier2_index c b)
    done
  done

let test_config_rejects_bad () =
  let bad f = try f (); false with Invalid_argument _ -> true in
  check_bool "non-pow2 locks" true
    (bad (fun () -> ignore (Config.make ~n_locks:1000 ())));
  check_bool "negative shifts" true
    (bad (fun () -> ignore (Config.make ~shifts:(-1) ())));
  check_bool "huge shifts" true
    (bad (fun () -> ignore (Config.make ~shifts:30 ())));
  check_bool "non-pow2 hierarchy" true
    (bad (fun () -> ignore (Config.make ~hierarchy:3 ())));
  check_bool "hierarchy > locks" true
    (bad (fun () -> ignore (Config.make ~n_locks:4 ~hierarchy:8 ())))

let test_config_lock_index_stripes () =
  let c = Config.make ~n_locks:16 ~shifts:2 () in
  (* With 2 shifts, runs of 4 consecutive addresses share a lock. *)
  check_int "addr 0" (Config.lock_index c 0) (Config.lock_index c 3);
  check_bool "next stripe differs" true
    (Config.lock_index c 3 <> Config.lock_index c 4);
  (* Wrap-around: 16 locks * 4 words per stripe = 64-address period. *)
  check_int "period" (Config.lock_index c 5) (Config.lock_index c (5 + 64))

let test_config_hier_consistent () =
  (* Two addresses mapping to the same lock must map to the same counter. *)
  let c = Config.make ~n_locks:64 ~hierarchy:8 ~shifts:1 () in
  for a = 0 to 500 do
    for delta = 1 to 30 do
      let b = a + delta in
      if Config.lock_index c a = Config.lock_index c b then
        check_int
          (Printf.sprintf "consistent at %d,%d" a b)
          (Config.hier_index c a) (Config.hier_index c b)
    done
  done

let prop_config_indices_in_range =
  QCheck.Test.make ~name:"lock/hier indices in range" ~count:500
    QCheck.(
      quad (int_range 0 6) (* shifts *)
        (int_range 3 12) (* log locks *)
        (int_range 0 3) (* log hierarchy *)
        (int_range 0 (1 lsl 24)) (* addr *))
    (fun (shifts, log_locks, log_h, addr) ->
      let c =
        Config.make ~shifts ~n_locks:(1 lsl log_locks)
          ~hierarchy:(1 lsl log_h) ()
      in
      let li = Config.lock_index c addr and hi = Config.hier_index c addr in
      li >= 0 && li < c.Config.n_locks && hi >= 0 && hi < c.Config.hierarchy)

(* ------------------------------------------------------------------ *)
(* Hmask                                                              *)
(* ------------------------------------------------------------------ *)

let test_hmask_basic () =
  let m = Hmask.create 16 in
  check_bool "empty" false (Hmask.mem m 3);
  check_bool "first add" true (Hmask.add m 3);
  check_bool "second add" false (Hmask.add m 3);
  check_bool "mem" true (Hmask.mem m 3);
  check_int "cardinal" 1 (Hmask.cardinal m)

let test_hmask_clear () =
  let m = Hmask.create 8 in
  ignore (Hmask.add m 1);
  ignore (Hmask.add m 7);
  Hmask.clear m;
  check_bool "cleared 1" false (Hmask.mem m 1);
  check_bool "cleared 7" false (Hmask.mem m 7);
  check_int "cardinal" 0 (Hmask.cardinal m)

let test_hmask_iter_order () =
  let m = Hmask.create 8 in
  ignore (Hmask.add m 5);
  ignore (Hmask.add m 2);
  ignore (Hmask.add m 5);
  let order = ref [] in
  Hmask.iter m (fun i -> order := i :: !order);
  Alcotest.(check (list int)) "insertion order" [ 5; 2 ] (List.rev !order)

let prop_hmask_model =
  QCheck.Test.make ~name:"hmask behaves like a set" ~count:300
    QCheck.(list (int_range 0 31))
    (fun adds ->
      let m = Hmask.create 32 in
      let model = Hashtbl.create 32 in
      List.for_all
        (fun i ->
          let fresh = not (Hashtbl.mem model i) in
          Hashtbl.replace model i ();
          Hmask.add m i = fresh && Hmask.mem m i)
        adds
      && Hmask.cardinal m = Hashtbl.length model)

(* ------------------------------------------------------------------ *)
(* STM semantics, generic over runtime and strategy                   *)
(* ------------------------------------------------------------------ *)

exception User_error

module Semantics (R : Tstm_runtime.Runtime_intf.S) () = struct
  module T = Tinystm

  let make ?(strategy = Config.Write_back) ?(n_locks = 1 lsl 10) ?(shifts = 0)
      ?(hierarchy = 1) ?max_clock ?(words = 4096) () =
    T.create ~kind:R.kind
      ~config:(Config.make ~n_locks ~shifts ~hierarchy ~strategy ())
      ?max_clock ~memory_words:words ()

  let for_strategy strategy =
    let test_read_write_commit () =
      let t = make ~strategy () in
      let a = T.atomically t (fun tx -> T.alloc tx 2) in
      T.atomically t (fun tx ->
          T.write tx a 10;
          T.write tx (a + 1) 20);
      let x, y = T.atomically t (fun tx -> (T.read tx a, T.read tx (a + 1))) in
      check_int "first word" 10 x;
      check_int "second word" 20 y

    and test_read_your_writes () =
      let t = make ~strategy () in
      let a = T.atomically t (fun tx -> T.alloc tx 1) in
      T.atomically t (fun tx ->
          T.write tx a 1;
          check_int "sees own write" 1 (T.read tx a);
          T.write tx a 2;
          check_int "sees overwrite" 2 (T.read tx a));
      check_int "committed" 2 (T.atomically t (fun tx -> T.read tx a))

    and test_read_under_own_lock_other_addr () =
      (* Two addresses sharing one lock: writing one then reading the other
         must return the committed value of the other. *)
      let t = make ~strategy ~n_locks:2 () in
      let a = T.atomically t (fun tx -> T.alloc tx 4) in
      T.atomically t (fun tx -> T.write tx (a + 2) 77);
      T.atomically t (fun tx ->
          T.write tx a 1;
          check_int "unwritten neighbour" 77 (T.read tx (a + 2)))

    and test_user_exception_aborts () =
      let t = make ~strategy () in
      let a = T.atomically t (fun tx -> T.alloc tx 1) in
      T.atomically t (fun tx -> T.write tx a 5);
      (try
         T.atomically t (fun tx ->
             T.write tx a 99;
             raise User_error)
       with User_error -> ());
      check_int "write rolled back" 5 (T.atomically t (fun tx -> T.read tx a))

    and test_read_only_rejects_writes () =
      let t = make ~strategy () in
      let a = T.atomically t (fun tx -> T.alloc tx 1) in
      (try
         T.atomically ~read_only:true t (fun tx -> T.write tx a 1);
         Alcotest.fail "write in read-only transaction must fail"
       with Invalid_argument _ -> ());
      (* The instance must remain usable. *)
      check_int "still works" 0 (T.atomically t (fun tx -> T.read tx a))

    and test_alloc_abort_reclaims () =
      let t = make ~strategy () in
      let before = Vmm.live_words (T.memory t) in
      (try
         T.atomically t (fun tx ->
             ignore (T.alloc tx 8);
             raise User_error)
       with User_error -> ());
      check_int "allocation reclaimed" before (Vmm.live_words (T.memory t))

    and test_free_commit_releases () =
      let t = make ~strategy () in
      let a = T.atomically t (fun tx -> T.alloc tx 8) in
      let live = Vmm.live_words (T.memory t) in
      T.atomically t (fun tx -> T.free tx a 8);
      check_int "freed at commit" (live - 8) (Vmm.live_words (T.memory t))

    and test_free_abort_keeps () =
      let t = make ~strategy () in
      let a = T.atomically t (fun tx -> T.alloc tx 8) in
      T.atomically t (fun tx -> T.write tx a 123);
      let live = Vmm.live_words (T.memory t) in
      (try
         T.atomically t (fun tx ->
             T.free tx a 8;
             raise User_error)
       with User_error -> ());
      check_int "free dropped on abort" live (Vmm.live_words (T.memory t));
      check_int "contents intact" 123 (T.atomically t (fun tx -> T.read tx a))

    and test_stats_counts () =
      let t = make ~strategy () in
      let a = T.atomically t (fun tx -> T.alloc tx 1) in
      T.reset_stats t;
      T.atomically t (fun tx -> T.write tx a 1);
      ignore (T.atomically ~read_only:true t (fun tx -> T.read tx a));
      let s = T.stats t in
      check_int "commits" 2 s.Tstm_tm.Tm_stats.commits;
      check_int "read-only commits" 1 s.Tstm_tm.Tm_stats.commits_read_only;
      check_bool "reads counted" true (s.Tstm_tm.Tm_stats.reads >= 1);
      check_bool "writes counted" true (s.Tstm_tm.Tm_stats.writes >= 1)

    and test_counter_no_lost_updates () =
      let t = make ~strategy ~words:64 () in
      let a = T.atomically t (fun tx -> T.alloc tx 1) in
      T.atomically t (fun tx -> T.write tx a 0);
      let n = 4 and per = 200 in
      R.run ~nthreads:n (fun _ ->
          for _ = 1 to per do
            T.atomically t (fun tx -> T.write tx a (T.read tx a + 1))
          done);
      check_int "exact count" (n * per)
        (T.atomically t (fun tx -> T.read tx a))

    and test_bank_conservation () =
      (* Random transfers between accounts: the sum is invariant under any
         serializable execution. *)
      let accounts = 16 and n = 4 and per = 150 in
      let t = make ~strategy ~words:1024 ~n_locks:64 () in
      let base = T.atomically t (fun tx -> T.alloc tx accounts) in
      T.atomically t (fun tx ->
          for i = 0 to accounts - 1 do
            T.write tx (base + i) 100
          done);
      R.run ~nthreads:n (fun tid ->
          let g = Tstm_util.Xrand.create (7000 + tid) in
          for _ = 1 to per do
            let src = Tstm_util.Xrand.int g accounts
            and dst = Tstm_util.Xrand.int g accounts
            and amount = Tstm_util.Xrand.int g 10 in
            T.atomically t (fun tx ->
                let s = T.read tx (base + src) in
                let d = T.read tx (base + dst) in
                if src <> dst then begin
                  T.write tx (base + src) (s - amount);
                  T.write tx (base + dst) (d + amount)
                end)
          done);
      let total =
        T.atomically ~read_only:true t (fun tx ->
            let sum = ref 0 in
            for i = 0 to accounts - 1 do
              sum := !sum + T.read tx (base + i)
            done;
            !sum)
      in
      check_int "money conserved" (accounts * 100) total

    and test_snapshot_consistency () =
      (* Writers keep x = y; readers must never observe x <> y, even while
         writers abort (exercises write-through incarnation numbers). *)
      let t = make ~strategy ~n_locks:4 ~words:64 () in
      let a = T.atomically t (fun tx -> T.alloc tx 2) in
      let violations = Atomic.make 0 in
      R.run ~nthreads:4 (fun tid ->
          let g = Tstm_util.Xrand.create (9000 + tid) in
          if tid < 2 then
            for _ = 1 to 200 do
              T.atomically t (fun tx ->
                  let v = Tstm_util.Xrand.int g 1000 in
                  T.write tx a v;
                  T.write tx (a + 1) v)
            done
          else
            for _ = 1 to 200 do
              let x, y =
                T.atomically ~read_only:true t (fun tx ->
                    (T.read tx a, T.read tx (a + 1)))
              in
              if x <> y then Atomic.incr violations
            done);
      check_int "no torn snapshots" 0 (Atomic.get violations)

    and test_update_tx_snapshot_consistency () =
      (* Same but the readers are update transactions (read-set validation
         and extension paths). *)
      let t = make ~strategy ~n_locks:4 ~words:64 () in
      let a = T.atomically t (fun tx -> T.alloc tx 3) in
      let violations = Atomic.make 0 in
      R.run ~nthreads:4 (fun tid ->
          let g = Tstm_util.Xrand.create (11000 + tid) in
          if tid < 2 then
            for _ = 1 to 200 do
              T.atomically t (fun tx ->
                  let v = Tstm_util.Xrand.int g 1000 in
                  T.write tx a v;
                  T.write tx (a + 1) v)
            done
          else
            for _ = 1 to 200 do
              T.atomically t (fun tx ->
                  let x = T.read tx a in
                  let y = T.read tx (a + 1) in
                  if x <> y then Atomic.incr violations;
                  T.write tx (a + 2) x)
            done);
      check_int "no torn reads in update txs" 0 (Atomic.get violations)
    in
    let tag = Config.strategy_to_string strategy in
    [
      Alcotest.test_case (tag ^ ": read/write/commit") `Quick
        test_read_write_commit;
      Alcotest.test_case (tag ^ ": read-your-writes") `Quick
        test_read_your_writes;
      Alcotest.test_case (tag ^ ": read under own lock") `Quick
        test_read_under_own_lock_other_addr;
      Alcotest.test_case (tag ^ ": user exception aborts") `Quick
        test_user_exception_aborts;
      Alcotest.test_case (tag ^ ": read-only rejects writes") `Quick
        test_read_only_rejects_writes;
      Alcotest.test_case (tag ^ ": alloc abort reclaims") `Quick
        test_alloc_abort_reclaims;
      Alcotest.test_case (tag ^ ": free at commit") `Quick
        test_free_commit_releases;
      Alcotest.test_case (tag ^ ": free dropped on abort") `Quick
        test_free_abort_keeps;
      Alcotest.test_case (tag ^ ": stats") `Quick test_stats_counts;
      Alcotest.test_case (tag ^ ": no lost updates") `Quick
        test_counter_no_lost_updates;
      Alcotest.test_case (tag ^ ": bank conservation") `Quick
        test_bank_conservation;
      Alcotest.test_case (tag ^ ": snapshot consistency") `Quick
        test_snapshot_consistency;
      Alcotest.test_case (tag ^ ": update-tx snapshots") `Quick
        test_update_tx_snapshot_consistency;
    ]

  let tests = for_strategy Config.Write_back @ for_strategy Config.Write_through
end

module Sim_sem = Semantics (Tstm_runtime.Runtime_sim) ()
module Real_sem = Semantics (Tstm_runtime.Runtime_real) ()

(* ------------------------------------------------------------------ *)
(* Features best tested on the simulator (deterministic)              *)
(* ------------------------------------------------------------------ *)

module TS = Tinystm

let make_sim ?(strategy = Config.Write_back) ?(n_locks = 1 lsl 10)
    ?(hierarchy = 1) ?(hierarchy2 = 1) ?max_clock ?(words = 4096) () =
  TS.create ~kind:Tstm_runtime.Shm.Simulated
    ~config:(Config.make ~n_locks ~hierarchy ~hierarchy2 ~strategy ())
    ?max_clock ~memory_words:words ()

let test_rollover () =
  let t = make_sim ~max_clock:64 () in
  let a = TS.atomically t (fun tx -> TS.alloc tx 1) in
  for i = 1 to 500 do
    TS.atomically t (fun tx -> TS.write tx a i)
  done;
  check_bool "rolled over" true (TS.rollovers t >= 1);
  check_int "data survives roll-over" 500
    (TS.atomically t (fun tx -> TS.read tx a));
  check_bool "clock was reset" true (TS.clock_value t < 64)

let test_rollover_under_threads () =
  let t = make_sim ~max_clock:48 ~words:256 () in
  let a = TS.atomically t (fun tx -> TS.alloc tx 8) in
  Tstm_runtime.Runtime_sim.run ~nthreads:4 (fun tid ->
      for i = 1 to 120 do
        TS.atomically t (fun tx -> TS.write tx (a + tid) i)
      done);
  check_bool "rollovers happened" true (TS.rollovers t >= 1);
  for tid = 0 to 3 do
    check_int "each thread's last write visible" 120
      (TS.atomically t (fun tx -> TS.read tx (a + tid)))
  done

let test_set_config_preserves_data () =
  let t = make_sim () in
  let a = TS.atomically t (fun tx -> TS.alloc tx 4) in
  TS.atomically t (fun tx ->
      for i = 0 to 3 do
        TS.write tx (a + i) (100 + i)
      done);
  TS.set_config t (Config.make ~n_locks:64 ~shifts:3 ~hierarchy:8 ());
  check_bool "config installed" true
    (Config.equal (TS.config t) (Config.make ~n_locks:64 ~shifts:3 ~hierarchy:8 ()));
  for i = 0 to 3 do
    check_int "data preserved" (100 + i)
      (TS.atomically t (fun tx -> TS.read tx (a + i)))
  done;
  (* And the instance still accepts updates afterwards. *)
  TS.atomically t (fun tx -> TS.write tx a 7);
  check_int "post-retune write" 7 (TS.atomically t (fun tx -> TS.read tx a))

let test_set_config_during_parallel_run () =
  let t = make_sim ~words:2048 ~n_locks:256 () in
  let a = TS.atomically t (fun tx -> TS.alloc tx 16) in
  TS.atomically t (fun tx ->
      for i = 0 to 15 do
        TS.write tx (a + i) 0
      done);
  Tstm_runtime.Runtime_sim.run ~nthreads:4 (fun tid ->
      if tid = 0 then begin
        (* The "tuner" thread re-tunes twice while others transact. *)
        for _ = 1 to 40 do
          TS.atomically t (fun tx -> TS.write tx a (TS.read tx a + 1))
        done;
        TS.set_config t (Config.make ~n_locks:32 ~hierarchy:4 ());
        for _ = 1 to 40 do
          TS.atomically t (fun tx -> TS.write tx a (TS.read tx a + 1))
        done;
        TS.set_config t (Config.make ~n_locks:1024 ~shifts:2 ())
      end
      else
        for _ = 1 to 120 do
          TS.atomically t (fun tx ->
              TS.write tx (a + tid) (TS.read tx (a + tid) + 1))
        done);
  check_int "tuner's counter" 80 (TS.atomically t (fun tx -> TS.read tx a));
  for tid = 1 to 3 do
    check_int "worker counter" 120
      (TS.atomically t (fun tx -> TS.read tx (a + tid)))
  done

let test_hierarchy_correctness_under_contention ?(hierarchy = 8)
    ?(hierarchy2 = 1) () =
  (* Run the bank-conservation workload with hierarchical locking on: the
     fast path must never hide a real conflict. *)
  List.iter
    (fun strategy ->
      let accounts = 32 in
      let t =
        make_sim ~strategy ~n_locks:64 ~hierarchy ~hierarchy2 ~words:1024 ()
      in
      let base = TS.atomically t (fun tx -> TS.alloc tx accounts) in
      TS.atomically t (fun tx ->
          for i = 0 to accounts - 1 do
            TS.write tx (base + i) 50
          done);
      Tstm_runtime.Runtime_sim.run ~nthreads:6 (fun tid ->
          let g = Tstm_util.Xrand.create (31 * tid) in
          for _ = 1 to 150 do
            let src = Tstm_util.Xrand.int g accounts
            and dst = Tstm_util.Xrand.int g accounts in
            TS.atomically t (fun tx ->
                (* Long read phase (sum everything) then transfer: stresses
                   validation and the hierarchy fast path. *)
                let sum = ref 0 in
                for i = 0 to accounts - 1 do
                  sum := !sum + TS.read tx (base + i)
                done;
                if src <> dst then begin
                  TS.write tx (base + src) (TS.read tx (base + src) - 1);
                  TS.write tx (base + dst) (TS.read tx (base + dst) + 1)
                end)
          done);
      let total =
        TS.atomically ~read_only:true t (fun tx ->
            let sum = ref 0 in
            for i = 0 to accounts - 1 do
              sum := !sum + TS.read tx (base + i)
            done;
            !sum)
      in
      check_int
        (Config.strategy_to_string strategy ^ ": conserved with hierarchy")
        (accounts * 50) total)
    [ Config.Write_back; Config.Write_through ]

let test_hierarchy_fast_path_skips ?(hierarchy = 64) ?(hierarchy2 = 1) () =
  (* Validation-heavy, low-write workload: the hierarchy must skip most
     read-set locks. *)
  let t = make_sim ~n_locks:1024 ~hierarchy ~hierarchy2 ~words:8192 () in
  let n = 512 in
  let base = TS.atomically t (fun tx -> TS.alloc tx n) in
  TS.atomically t (fun tx ->
      for i = 0 to n - 1 do
        TS.write tx (base + i) i
      done);
  TS.reset_stats t;
  Tstm_runtime.Runtime_sim.run ~nthreads:2 (fun tid ->
      if tid = 0 then
        (* Big-read-set update transactions. *)
        for _ = 1 to 50 do
          TS.atomically t (fun tx ->
              let sum = ref 0 in
              for i = 0 to n - 1 do
                sum := !sum + TS.read tx (base + i)
              done;
              TS.write tx base !sum)
        done
      else
        (* Occasional remote writer forcing commits to validate, touching a
           single partition. *)
        for j = 1 to 50 do
          TS.atomically t (fun tx -> TS.write tx (base + n - 1) j)
        done);
  let s = TS.stats t in
  check_bool "some validation happened" true
    (s.Tstm_tm.Tm_stats.validations > 0);
  check_bool
    (Printf.sprintf "fast path skipped locks (processed=%d skipped=%d)"
       s.Tstm_tm.Tm_stats.val_locks_processed
       s.Tstm_tm.Tm_stats.val_locks_skipped)
    true
    (s.Tstm_tm.Tm_stats.val_locks_skipped > 0)

let test_aborts_recorded_under_contention () =
  let t = make_sim ~n_locks:4 ~words:64 () in
  let a = TS.atomically t (fun tx -> TS.alloc tx 1) in
  Tstm_runtime.Runtime_sim.run ~nthreads:8 (fun _ ->
      for _ = 1 to 100 do
        TS.atomically t (fun tx -> TS.write tx a (TS.read tx a + 1))
      done);
  let s = TS.stats t in
  check_int "committed exactly" 800 (TS.atomically t (fun tx -> TS.read tx a));
  check_bool "aborts under contention" true (Tstm_tm.Tm_stats.aborts s > 0)

let test_clock_and_stamps_monotone () =
  let t = make_sim () in
  let a = TS.atomically t (fun tx -> TS.alloc tx 1) in
  (* A pure allocation acquires no locks, so it commits lock-free and does
     not advance the clock. *)
  check_int "clock untouched by lock-free tx" 0 (TS.clock_value t);
  let stamps =
    List.init 5 (fun i ->
        snd (TS.atomically_stamped t (fun tx -> TS.write tx a i)))
  in
  let rec increasing = function
    | x :: (y :: _ as rest) -> x < y && increasing rest
    | _ -> true
  in
  check_bool "update stamps strictly increase" true (increasing stamps);
  check_int "clock equals last stamp" (List.nth stamps 4) (TS.clock_value t);
  (* A lock-free transaction's stamp equals the current clock. *)
  let _, ro_stamp = TS.atomically_stamped ~read_only:true t (fun tx -> TS.read tx a) in
  check_int "read-only stamp = clock" (TS.clock_value t) ro_stamp

let test_deterministic_sim_run () =
  let run () =
    let t = make_sim ~n_locks:16 ~words:256 () in
    let a = TS.atomically t (fun tx -> TS.alloc tx 4) in
    Tstm_runtime.Runtime_sim.run ~nthreads:4 (fun tid ->
        let g = Tstm_util.Xrand.create tid in
        for _ = 1 to 100 do
          let slot = Tstm_util.Xrand.int g 4 in
          TS.atomically t (fun tx ->
              TS.write tx (a + slot) (TS.read tx (a + slot) + 1))
        done);
    let s = TS.stats t in
    ( s.Tstm_tm.Tm_stats.commits,
      Tstm_tm.Tm_stats.aborts s,
      TS.atomically t (fun tx ->
          (TS.read tx a) + (TS.read tx (a + 1)) + (TS.read tx (a + 2))
          + TS.read tx (a + 3)) )
  in
  check_bool "bit-identical reruns" true (run () = run ())

let () =
  Alcotest.run "tinystm"
    [
      ( "lockenc",
        [
          Alcotest.test_case "unlocked" `Quick test_lockenc_unlocked;
          Alcotest.test_case "locked" `Quick test_lockenc_locked;
          Alcotest.test_case "zero pristine" `Quick test_lockenc_zero_is_pristine;
        ] );
      ( "lockenc-props",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_lockenc_unlocked_roundtrip;
            prop_lockenc_locked_roundtrip;
            prop_lockenc_disjoint;
          ] );
      ( "config",
        [
          Alcotest.test_case "default valid" `Quick test_config_default_valid;
          Alcotest.test_case "rejects bad" `Quick test_config_rejects_bad;
          Alcotest.test_case "stripes" `Quick test_config_lock_index_stripes;
          Alcotest.test_case "two-level" `Quick test_config_two_level;
          Alcotest.test_case "hier consistent" `Quick test_config_hier_consistent;
        ] );
      ( "config-props",
        List.map QCheck_alcotest.to_alcotest [ prop_config_indices_in_range ] );
      ( "hmask",
        [
          Alcotest.test_case "basic" `Quick test_hmask_basic;
          Alcotest.test_case "clear" `Quick test_hmask_clear;
          Alcotest.test_case "iter order" `Quick test_hmask_iter_order;
        ] );
      ("hmask-props", List.map QCheck_alcotest.to_alcotest [ prop_hmask_model ]);
      ("semantics (sim)", Sim_sem.tests);
      ("semantics (domains)", Real_sem.tests);
      ( "features (sim)",
        [
          Alcotest.test_case "clock roll-over" `Quick test_rollover;
          Alcotest.test_case "roll-over under threads" `Quick
            test_rollover_under_threads;
          Alcotest.test_case "set_config preserves data" `Quick
            test_set_config_preserves_data;
          Alcotest.test_case "set_config during run" `Quick
            test_set_config_during_parallel_run;
          Alcotest.test_case "hierarchy under contention" `Quick (fun () ->
              test_hierarchy_correctness_under_contention ());
          Alcotest.test_case "two-level hierarchy under contention" `Quick
            (fun () ->
              test_hierarchy_correctness_under_contention ~hierarchy:32
                ~hierarchy2:4 ());
          Alcotest.test_case "hierarchy fast path" `Quick (fun () ->
              test_hierarchy_fast_path_skips ());
          Alcotest.test_case "two-level fast path" `Quick (fun () ->
              test_hierarchy_fast_path_skips ~hierarchy:64 ~hierarchy2:8 ());
          Alcotest.test_case "aborts recorded" `Quick
            test_aborts_recorded_under_contention;
          Alcotest.test_case "clock and stamps" `Quick
            test_clock_and_stamps_monotone;
          Alcotest.test_case "deterministic" `Quick test_deterministic_sim_run;
        ] );
    ]
