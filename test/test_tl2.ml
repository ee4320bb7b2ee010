(* Tests for the TL2 baseline: Bloom filter properties, the redo log TL2
   and NOrec share, commit-time locking semantics, isolation, and
   TL2-specific behaviour (no extension, buffered writes invisible before
   commit). *)

open Tstm_tl2
module Bloom = Tstm_util.Bloom
module Log = Tstm_tm.Redo_log
module Vmm = Tstm_vmm.Vmm

let add b a = ignore (Bloom.check_add b a)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Bloom                                                              *)
(* ------------------------------------------------------------------ *)

let test_bloom_empty () =
  let b = Bloom.create () in
  check_bool "nothing in empty" false (Bloom.may_contain b 42)

let test_bloom_add_query () =
  let b = Bloom.create () in
  add b 7;
  check_bool "added found" true (Bloom.may_contain b 7)

let test_bloom_check_add () =
  let b = Bloom.create () in
  check_bool "absent before" false (Bloom.check_add b 7);
  check_bool "added found" true (Bloom.may_contain b 7);
  check_bool "present after" true (Bloom.check_add b 7)

let test_bloom_clear () =
  let b = Bloom.create () in
  add b 7;
  Bloom.clear b;
  check_bool "cleared" false (Bloom.may_contain b 7)

let prop_bloom_no_false_negatives =
  QCheck.Test.make ~name:"bloom has no false negatives" ~count:300
    QCheck.(list (int_range 0 1_000_000))
    (fun addrs ->
      let b = Bloom.create () in
      List.iter (add b) addrs;
      List.for_all (Bloom.may_contain b) addrs)

let test_bloom_selective () =
  (* With few elements, most absent addresses are rejected. *)
  let b = Bloom.create () in
  List.iter (add b) [ 1; 2; 3 ];
  let false_positives = ref 0 in
  for a = 1000 to 2000 do
    if Bloom.may_contain b a then incr false_positives
  done;
  check_bool
    (Printf.sprintf "few false positives (%d/1001)" !false_positives)
    true
    (!false_positives < 300)

(* ------------------------------------------------------------------ *)
(* Redo log                                                           *)
(* ------------------------------------------------------------------ *)

let bloom_of written =
  let b = Bloom.create () in
  List.iter (add b) written;
  b

(* The first address in [from, from + 4096) that [written] has not
   written but the filter of [written] cannot reject: a Bloom false
   positive, which a lookup must scan for and then miss. *)
let bloom_collision ~from written =
  let b = bloom_of written in
  let rec go a =
    if a >= from + 4096 then Alcotest.fail "no Bloom collision in range"
    else if (not (List.mem a written)) && Bloom.may_contain b a then a
    else go (a + 1)
  in
  go from

let test_log_empty_miss () =
  let w = Log.create () in
  check_int "miss" (-1) (Log.find w 42);
  check_int "empty" 0 (Log.length w)

let test_log_latest_put () =
  let w = Log.create () in
  Log.put w 7 1;
  Log.put w 9 5;
  Log.put w 7 2;
  let k = Log.find w 7 in
  check_bool "hit" true (k >= 0);
  check_int "address" 7 (Log.addr w k);
  check_int "latest value" 2 (Log.value w k);
  check_int "other entry" 5 (Log.value w (Log.find w 9))

let test_log_reput_one_entry () =
  let w = Log.create () in
  Log.put w 7 1;
  Log.put w 7 2;
  Log.put w 7 3;
  check_int "one entry" 1 (Log.length w);
  check_int "value" 3 (Log.value w 0)

let test_log_false_positive () =
  let w = Log.create () in
  Log.put w 100 1;
  Log.put w 200 2;
  let fp = bloom_collision ~from:1000 [ 100; 200 ] in
  check_int "false positive misses" (-1) (Log.find w fp);
  (* A put at the colliding address must append, not overwrite. *)
  Log.put w fp 3;
  check_int "appended" 3 (Log.length w);
  check_int "own value" 3 (Log.value w (Log.find w fp));
  check_int "collided entry intact" 1 (Log.value w (Log.find w 100))

let test_log_clear () =
  let w = Log.create () in
  Log.put w 7 1;
  Log.put w 8 2;
  Log.clear w;
  check_int "empty" 0 (Log.length w);
  check_int "forgotten" (-1) (Log.find w 7);
  Log.put w 8 3;
  check_int "fresh entry" 3 (Log.value w (Log.find w 8))

(* Pinned to the cost model of the write-set lookup that TL2's and
   NOrec's simulated figures were made with: 3 cycles for the filter on
   every lookup (also when the log is empty and nothing is hashed), then
   1 per entry scanned, newest first. *)
let test_log_charges () =
  let cycles f =
    let c = ref (-1) in
    Tstm_runtime.Sim_sched.run ~nthreads:1 (fun _ ->
        let t0 = Tstm_runtime.Sim_sched.now_cycles () in
        f ();
        c := Tstm_runtime.Sim_sched.now_cycles () - t0);
    !c
  in
  let w = Log.create () in
  check_int "empty miss" 3 (cycles (fun () -> ignore (Log.find w 7)));
  Log.put w 100 1;
  Log.put w 200 2;
  let b = bloom_of [ 100; 200 ] in
  let rec rejected a = if Bloom.may_contain b a then rejected (a + 1) else a in
  check_int "Bloom-rejected miss" 3
    (cycles (fun () -> ignore (Log.find w (rejected 0))));
  check_int "scanned hit" 5 (cycles (fun () -> ignore (Log.find w 100)));
  let fp = bloom_collision ~from:1000 [ 100; 200 ] in
  check_int "scanned miss" 5 (cycles (fun () -> ignore (Log.find w fp)))

(* ------------------------------------------------------------------ *)
(* TL2 semantics                                                      *)
(* ------------------------------------------------------------------ *)

exception User_error

module Semantics (R : sig val kind : Tstm_runtime.Shm.kind end) () = struct
  let run = Tstm_runtime.Runtime.run R.kind
  module T = Tl2

  let make ?(n_locks = 1 lsl 10) ?(words = 4096) () =
    T.create ~kind:R.kind ~n_locks ~memory_words:words ()

  let test_read_write_commit () =
    let t = make () in
    let a = T.atomically t (fun tx -> T.alloc tx 2) in
    T.atomically t (fun tx ->
        T.write tx a 10;
        T.write tx (a + 1) 20);
    let x, y = T.atomically t (fun tx -> (T.read tx a, T.read tx (a + 1))) in
    check_int "first" 10 x;
    check_int "second" 20 y

  let test_read_your_writes () =
    let t = make () in
    let a = T.atomically t (fun tx -> T.alloc tx 1) in
    T.atomically t (fun tx ->
        T.write tx a 1;
        check_int "own write" 1 (T.read tx a);
        T.write tx a 2;
        check_int "own overwrite" 2 (T.read tx a));
    check_int "committed" 2 (T.atomically t (fun tx -> T.read tx a))

  let test_writes_buffered_until_commit () =
    let t = make () in
    let a = T.atomically t (fun tx -> T.alloc tx 1) in
    T.atomically t (fun tx -> T.write tx a 5);
    T.atomically t (fun tx ->
        T.write tx a 99;
        (* Commit-time locking: memory must still hold the old value. *)
        check_int "memory untouched inside tx" 5 (Vmm.load (T.memory t) a));
    check_int "visible after commit" 99 (Vmm.load (T.memory t) a)

  let test_user_exception_aborts () =
    let t = make () in
    let a = T.atomically t (fun tx -> T.alloc tx 1) in
    T.atomically t (fun tx -> T.write tx a 5);
    (try
       T.atomically t (fun tx ->
           T.write tx a 99;
           raise User_error)
     with User_error -> ());
    check_int "rolled back" 5 (T.atomically t (fun tx -> T.read tx a))

  let test_read_only_rejects_writes () =
    let t = make () in
    let a = T.atomically t (fun tx -> T.alloc tx 1) in
    (try
       T.atomically ~read_only:true t (fun tx -> T.write tx a 1);
       Alcotest.fail "expected Invalid_argument"
     with Invalid_argument _ -> ());
    check_int "usable after" 0 (T.atomically t (fun tx -> T.read tx a))

  let test_alloc_abort_reclaims () =
    let t = make () in
    let before = Vmm.live_words (T.memory t) in
    (try
       T.atomically t (fun tx ->
           ignore (T.alloc tx 8);
           raise User_error)
     with User_error -> ());
    check_int "reclaimed" before (Vmm.live_words (T.memory t))

  let test_free_commit_releases () =
    let t = make () in
    let a = T.atomically t (fun tx -> T.alloc tx 8) in
    let live = Vmm.live_words (T.memory t) in
    T.atomically t (fun tx -> T.free tx a 8);
    check_int "freed" (live - 8) (Vmm.live_words (T.memory t))

  let test_counter_no_lost_updates () =
    let t = make ~words:64 () in
    let a = T.atomically t (fun tx -> T.alloc tx 1) in
    let n = 4 and per = 200 in
    run ~nthreads:n (fun _ ->
        for _ = 1 to per do
          T.atomically t (fun tx -> T.write tx a (T.read tx a + 1))
        done);
    check_int "exact" (n * per) (T.atomically t (fun tx -> T.read tx a))

  let test_bank_conservation () =
    let accounts = 16 and n = 4 and per = 150 in
    let t = make ~words:1024 ~n_locks:64 () in
    let base = T.atomically t (fun tx -> T.alloc tx accounts) in
    T.atomically t (fun tx ->
        for i = 0 to accounts - 1 do
          T.write tx (base + i) 100
        done);
    run ~nthreads:n (fun tid ->
        let g = Tstm_util.Xrand.create (7100 + tid) in
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
    check_int "conserved" (accounts * 100) total

  let test_snapshot_consistency () =
    let t = make ~n_locks:4 ~words:64 () in
    let a = T.atomically t (fun tx -> T.alloc tx 2) in
    let violations = Atomic.make 0 in
    run ~nthreads:4 (fun tid ->
        let g = Tstm_util.Xrand.create (9100 + tid) in
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

  let test_large_write_set () =
    (* Exercises Bloom + write-set search and multi-lock commit. *)
    let t = make ~words:4096 ~n_locks:64 () in
    let n = 300 in
    let base = T.atomically t (fun tx -> T.alloc tx n) in
    T.atomically t (fun tx ->
        for i = 0 to n - 1 do
          T.write tx (base + i) i
        done;
        (* Read-after-write across the whole set. *)
        for i = 0 to n - 1 do
          check_int "raw lookup" i (T.read tx (base + i))
        done);
    T.atomically t (fun tx ->
        for i = 0 to n - 1 do
          check_int "committed" i (T.read tx (base + i))
        done)

  let tests =
    [
      Alcotest.test_case "read/write/commit" `Quick test_read_write_commit;
      Alcotest.test_case "read-your-writes" `Quick test_read_your_writes;
      Alcotest.test_case "writes buffered" `Quick
        test_writes_buffered_until_commit;
      Alcotest.test_case "user exception aborts" `Quick
        test_user_exception_aborts;
      Alcotest.test_case "read-only rejects writes" `Quick
        test_read_only_rejects_writes;
      Alcotest.test_case "alloc abort reclaims" `Quick test_alloc_abort_reclaims;
      Alcotest.test_case "free at commit" `Quick test_free_commit_releases;
      Alcotest.test_case "no lost updates" `Quick test_counter_no_lost_updates;
      Alcotest.test_case "bank conservation" `Quick test_bank_conservation;
      Alcotest.test_case "snapshot consistency" `Quick test_snapshot_consistency;
      Alcotest.test_case "large write set" `Quick test_large_write_set;
    ]
end

(* ------------------------------------------------------------------ *)
(* Read-after-write through the registry, both redo-log families       *)
(* ------------------------------------------------------------------ *)

module Registry = Tstm_tm.Registry

let test_read_after_write (module S : Tstm_tm.Tm_intf.STM) () =
  let t = S.create ~memory_words:8192 () in
  let n = 4096 in
  let base = S.atomically t (fun tx -> S.alloc tx n) in
  S.atomically t (fun tx ->
      for i = 0 to n - 1 do
        S.write tx (base + i) (1000 + i)
      done);
  let written = [ base; base + 1; base + 2; base + 3 ] in
  let fp = bloom_collision ~from:(base + 4) written in
  check_bool "collision inside the block" true (fp < base + n);
  S.atomically t (fun tx ->
      S.write tx base 1;
      check_int "read own write" 1 (S.read tx base);
      S.write tx base 2;
      check_int "read own rewrite" 2 (S.read tx base);
      List.iter (fun a -> if a <> base then S.write tx a (-a)) written;
      check_int "colliding address reads memory" (1000 + fp - base)
        (S.read tx fp);
      check_int "rewrite survives" 2 (S.read tx base));
  check_int "committed" 2 (S.atomically t (fun tx -> S.read tx base));
  check_int "collision untouched" (1000 + fp - base)
    (S.atomically t (fun tx -> S.read tx fp))

let read_after_write_tests =
  List.concat_map
    (fun name ->
      match Registry.entry_of name with
      | None -> Alcotest.fail ("not registered: " ^ name)
      | Some e ->
          [
            Alcotest.test_case (name ^ " (sim)") `Quick
              (test_read_after_write e.Registry.sim);
            Alcotest.test_case (name ^ " (domains)") `Quick
              (test_read_after_write e.Registry.real);
          ])
    [ "tl2"; "norec" ]

(* ------------------------------------------------------------------ *)
(* Lock reach on real domains                                          *)
(* ------------------------------------------------------------------ *)

(* A real lock array holds only the stripes its arena can reach
   (Shm.make_locks), so the arena's top word, address [capacity], must
   still land inside it, for any lock count and shift. *)
let test_reach_top_word ~log_locks ~shifts () =
  let t =
    Tl2.create ~kind:Tstm_runtime.Shm.Domains ~n_locks:(1 lsl log_locks)
      ~shifts ~memory_words:256 ()
  in
  let top = Vmm.capacity (Tl2.memory t) in
  Tl2.atomically t (fun tx ->
      Tl2.write tx top 1;
      check_int "read back in tx" 1 (Tl2.read tx top));
  check_int "read back after commit" 1
    (Tl2.atomically t (fun tx -> Tl2.read tx top))

(* A 2^20-stripe instance over a 4,096-word arena builds 4,097 cells, not
   2^20 boxed atomics (about 25 MB). *)
let test_reach_live_words () =
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let before = live () in
  let t =
    Tl2.create ~kind:Tstm_runtime.Shm.Domains ~n_locks:(1 lsl 20)
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
    (fun log_locks ->
      List.map
        (fun shifts ->
          Alcotest.test_case
            (Printf.sprintf "2^%d locks shifts %d" log_locks shifts)
            `Quick
            (test_reach_top_word ~log_locks ~shifts))
        [ 0; 3 ])
    [ 4; 16; 20 ]
  @ [ Alcotest.test_case "2^20 locks live words" `Quick test_reach_live_words ]

module Sim_sem = Semantics (Tstm_runtime.Runtime_sim) ()
module Real_sem = Semantics (Tstm_runtime.Runtime_real) ()

let () =
  Alcotest.run "tstm_tl2"
    [
      ( "bloom",
        [
          Alcotest.test_case "empty" `Quick test_bloom_empty;
          Alcotest.test_case "add/query" `Quick test_bloom_add_query;
          Alcotest.test_case "check-and-add" `Quick test_bloom_check_add;
          Alcotest.test_case "clear" `Quick test_bloom_clear;
          Alcotest.test_case "selective" `Quick test_bloom_selective;
        ] );
      ( "redo-log",
        [
          Alcotest.test_case "empty miss" `Quick test_log_empty_miss;
          Alcotest.test_case "latest put" `Quick test_log_latest_put;
          Alcotest.test_case "re-put keeps one entry" `Quick
            test_log_reput_one_entry;
          Alcotest.test_case "false positive" `Quick test_log_false_positive;
          Alcotest.test_case "clear" `Quick test_log_clear;
          Alcotest.test_case "charges" `Quick test_log_charges;
        ] );
      ( "bloom-props",
        List.map QCheck_alcotest.to_alcotest [ prop_bloom_no_false_negatives ]
      );
      ("read-after-write", read_after_write_tests);
      ("semantics (sim)", Sim_sem.tests);
      ("semantics (domains)", Real_sem.tests);
      ("lock reach (domains)", reach_tests);
    ]
