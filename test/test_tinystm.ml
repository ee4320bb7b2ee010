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

let make_sim = Sim_sem.make

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

(* ------------------------------------------------------------------ *)
(* Lock reach on real domains                                          *)
(* ------------------------------------------------------------------ *)

(* A real lock array holds only the stripes its arena can reach
   (Shm.make_locks), so the arena's top word, address [capacity], must
   still land inside it, for any lock count and shift, and again after a
   re-tune that changes the shift. *)
let reach_words = 256

let top_word_round_trip t v =
  let top = Vmm.capacity (TS.memory t) in
  TS.atomically t (fun tx ->
      TS.write tx top v;
      check_int "read back in tx" v (TS.read tx top));
  check_int "read back after commit" v
    (TS.atomically t (fun tx -> TS.read tx top))

let test_reach_top_word ~strategy ~log_locks ~shifts () =
  let n_locks = 1 lsl log_locks in
  let t =
    TS.create ~kind:Tstm_runtime.Shm.Domains
      ~config:(Config.make ~n_locks ~shifts ~strategy ())
      ~memory_words:reach_words ()
  in
  top_word_round_trip t 1;
  TS.set_config t (Config.make ~n_locks ~shifts:(3 - shifts) ~strategy ());
  top_word_round_trip t 2

(* A 2^20-stripe instance over a 4,096-word arena builds 4,097 cells, not
   2^20 boxed atomics (about 25 MB). *)
let test_reach_live_words () =
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let before = live () in
  let t =
    TS.create ~kind:Tstm_runtime.Shm.Domains
      ~config:(Config.make ~n_locks:(1 lsl 20) ())
      ~memory_words:4096 ()
  in
  let bytes = (live () - before) * (Sys.word_size / 8) in
  ignore (Sys.opaque_identity t);
  check_bool
    (Printf.sprintf "%d bytes of live words added, under 1 MB" bytes)
    true
    (bytes < 1 lsl 20)

let reach_tests =
  List.concat_map
    (fun strategy ->
      List.concat_map
        (fun log_locks ->
          List.map
            (fun shifts ->
              Alcotest.test_case
                (Printf.sprintf "%s 2^%d locks shifts %d"
                   (Config.strategy_to_string strategy)
                   log_locks shifts)
                `Quick
                (test_reach_top_word ~strategy ~log_locks ~shifts))
            [ 0; 3 ])
        [ 4; 16; 20 ])
    [ Config.Write_back; Config.Write_through ]
  @ [ Alcotest.test_case "2^20 locks live words" `Quick test_reach_live_words ]

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

(* The same re-tune on real domains.  Domain 0 re-tunes across lock
   counts, shifts and hierarchies while domains 1 and 2 increment their
   own words; every re-tune rebuilds the lock array for the live arena
   (Shm.make_locks) under the quiescence fence.  Before each re-tune
   domain 0 waits until both workers have committed since the last one,
   so every fence meets transacting domains. *)
let retunes =
  [ (64, 0, 1); (1 lsl 16, 3, 1); (16, 5, 4); (1024, 0, 16); (2, 1, 1) ]

let test_set_config_on_domains strategy () =
  let nd = 3 in
  let t =
    TS.create ~kind:Tstm_runtime.Shm.Domains
      ~config:(Config.make ~n_locks:256 ~strategy ())
      ~memory_words:1024 ()
  in
  let a = TS.atomically t (fun tx -> TS.alloc tx (8 * nd)) in
  let live0 = Vmm.live_words (TS.memory t) in
  let commits = Array.init nd (fun _ -> Atomic.make 0) in
  let stop = Atomic.make false in
  let bump tid =
    let w = a + (8 * tid) in
    TS.atomically t (fun tx -> TS.write tx w (TS.read tx w + 1));
    Atomic.incr commits.(tid)
  in
  (* Bounded by CPU time so a dead worker fails the counts, not the run. *)
  let await_workers since =
    let t0 = Sys.time () in
    while
      Sys.time () -. t0 < 10.0
      && List.exists (fun w -> Atomic.get commits.(w) <= since.(w)) [ 1; 2 ]
    do
      Domain.cpu_relax ()
    done
  in
  Tstm_runtime.Runtime_real.run ~nthreads:nd (fun tid ->
      if tid = 0 then begin
        List.iter
          (fun (n_locks, shifts, hierarchy) ->
            let since = Array.map Atomic.get commits in
            for _ = 1 to 20 do
              bump 0
            done;
            await_workers since;
            TS.set_config t
              (Config.make ~n_locks ~shifts ~hierarchy ~strategy ()))
          retunes;
        for _ = 1 to 20 do
          bump 0
        done;
        Atomic.set stop true
      end
      else
        while not (Atomic.get stop) do
          bump tid
        done);
  for tid = 0 to nd - 1 do
    check_int
      (Printf.sprintf "domain %d's counter = its commits" tid)
      (Atomic.get commits.(tid))
      (TS.atomically t (fun tx -> TS.read tx (a + (8 * tid))))
  done;
  check_bool "workers committed between re-tunes" true
    (Atomic.get commits.(1) >= List.length retunes
    && Atomic.get commits.(2) >= List.length retunes);
  check_int "no live_words drift" live0 (Vmm.live_words (TS.memory t))

let test_hierarchy_correctness_under_contention ?(hierarchy = 8) () =
  (* Run the bank-conservation workload with hierarchical locking on: the
     fast path must never hide a real conflict. *)
  List.iter
    (fun strategy ->
      let accounts = 32 in
      let t = make_sim ~strategy ~n_locks:64 ~hierarchy ~words:1024 () in
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

let test_hierarchy_fast_path_skips () =
  (* Validation-heavy, low-write workload: the hierarchy must skip most
     read-set locks. *)
  let t = make_sim ~n_locks:1024 ~hierarchy:64 ~words:8192 () in
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

(* ------------------------------------------------------------------ *)
(* Read-set validation rule, on fixed two-thread interleavings         *)
(* ------------------------------------------------------------------ *)

(* Thread 0 reads, hands over to thread 1 and waits until thread 1 is done;
   the scheduler is deterministic and [wait_for] yields virtual time, so
   each test below runs one fixed interleaving.  Addresses [a], [a + 1] and
   [a + 2] sit on distinct locks (1024 locks, no shifts). *)
let wait_for flag =
  while not !flag do
    Tstm_runtime.Shm.yield ()
  done

(* [reader tx x] runs in thread 0's transaction after its first read [x]
   of [a]; on the first attempt [writer] runs in thread 1 in between. *)
let two_step t a ~reader ~writer =
  let handed = ref false and done_ = ref false and first = ref true in
  Tstm_runtime.Runtime_sim.run ~nthreads:2 (fun tid ->
      if tid = 0 then
        TS.atomically t (fun tx ->
            let x = TS.read tx a in
            if !first then begin
              first := false;
              handed := true;
              wait_for done_
            end;
            reader tx x)
      else begin
        wait_for handed;
        writer ();
        done_ := true
      end)

let test_foreign_commit_fails_extension strategy () =
  let t = make_sim ~strategy () in
  let a = TS.atomically t (fun tx -> TS.alloc tx 3) in
  TS.reset_stats t;
  let seen = ref [] in
  two_step t a
    ~reader:(fun tx x ->
      (* [a + 1] is newer than the snapshot: extending must find [a]
         re-versioned by the foreign commit and abort. *)
      let y = TS.read tx (a + 1) in
      seen := (x, y) :: !seen;
      TS.write tx (a + 2) (x + y))
    ~writer:(fun () ->
      TS.atomically t (fun tx ->
          TS.write tx a 1;
          TS.write tx (a + 1) 1));
  let s = TS.stats t in
  check_int "extension failed" 1 s.Tstm_tm.Tm_stats.aborts_validation;
  check_int "no extension succeeded" 0 s.Tstm_tm.Tm_stats.extensions;
  Alcotest.(check (list (pair int int))) "only the retry got through"
    [ (1, 1) ] !seen

let test_read_then_own_write_commits strategy () =
  let t = make_sim ~strategy () in
  let a = TS.atomically t (fun tx -> TS.alloc tx 2) in
  TS.reset_stats t;
  two_step t a
    ~reader:(fun tx x -> TS.write tx a (x + 10))
    ~writer:(fun () -> TS.atomically t (fun tx -> TS.write tx (a + 1) 5));
  (* The foreign commit moved the clock, so the commit validates, and the
     entry for [a] is then locked by the validating transaction itself. *)
  let s = TS.stats t in
  check_int "commit validated" 1 s.Tstm_tm.Tm_stats.validations;
  check_int "no aborts" 0 (Tstm_tm.Tm_stats.aborts s);
  check_int "own write committed" 10 (TS.atomically t (fun tx -> TS.read tx a))

let test_incarnation_overflow_snapshot strategy () =
  let t = make_sim ~strategy () in
  let a = TS.atomically t (fun tx -> TS.alloc tx 3) in
  (* [a] at version 1, the clock at 2: the reader's snapshot starts at 2. *)
  TS.atomically t (fun tx -> TS.write tx a 7);
  TS.atomically t (fun tx -> TS.write tx (a + 1) 0);
  TS.reset_stats t;
  let seen = ref [] in
  two_step t a
    ~reader:(fun tx x ->
      let y = TS.read tx (a + 1) in
      seen := (x, y) :: !seen;
      TS.write tx (a + 2) (x + y))
    ~writer:(fun () ->
      (* Eight aborted writes to [a]: under write-through the eighth
         overflows the incarnation counter and re-versions [a]'s orec to
         the clock (2, no newer than the reader's snapshot); memory holds
         the restored 7 throughout. *)
      for _ = 1 to Lockenc.max_incarnation + 1 do
        try
          TS.atomically t (fun tx ->
              TS.write tx a 99;
              raise User_error)
        with User_error -> ()
      done;
      TS.atomically t (fun tx -> TS.write tx (a + 1) 1));
  let s = TS.stats t in
  Alcotest.(check (list (pair int int))) "consistent snapshot" [ (7, 1) ]
    !seen;
  check_int "extended over the re-versioned orec" 1
    s.Tstm_tm.Tm_stats.extensions;
  check_int "no validation abort" 0 s.Tstm_tm.Tm_stats.aborts_validation;
  check_int "committed" 8 (TS.atomically t (fun tx -> TS.read tx (a + 2)))

let validation_rule_tests =
  List.concat_map
    (fun strategy ->
      let tag = Config.strategy_to_string strategy in
      [
        Alcotest.test_case (tag ^ ": foreign commit fails extension") `Quick
          (test_foreign_commit_fails_extension strategy);
        Alcotest.test_case (tag ^ ": read then own write commits") `Quick
          (test_read_then_own_write_commits strategy);
        Alcotest.test_case (tag ^ ": incarnation overflow snapshot") `Quick
          (test_incarnation_overflow_snapshot strategy);
      ])
    [ Config.Write_back; Config.Write_through ]

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
          Alcotest.test_case "hierarchy h=32 under contention" `Quick
            (fun () -> test_hierarchy_correctness_under_contention ~hierarchy:32 ());
          Alcotest.test_case "hierarchy fast path" `Quick
            test_hierarchy_fast_path_skips;
          Alcotest.test_case "aborts recorded" `Quick
            test_aborts_recorded_under_contention;
          Alcotest.test_case "clock and stamps" `Quick
            test_clock_and_stamps_monotone;
          Alcotest.test_case "deterministic" `Quick test_deterministic_sim_run;
        ] );
      ("validation rule (sim)", validation_rule_tests);
      ("lock reach (domains)", reach_tests);
      ( "set_config on domains",
        List.map
          (fun strategy ->
            Alcotest.test_case
              (Config.strategy_to_string strategy
              ^ ": re-tune while 3 domains transact")
              `Quick
              (test_set_config_on_domains strategy))
          [ Config.Write_back; Config.Write_through ] );
    ]
