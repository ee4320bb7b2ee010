(* Tests for the Vacation workload: manager operation semantics and global
   consistency (used + free = total; held reservations match used counts)
   under sequential and concurrent clients, on TinySTM and TL2. *)

module R = Tstm_runtime.Runtime_sim
module Ts = Tinystm
module Tl = Tstm_tl2.Tl2
module Vac_ts = Tstm_vacation.Vacation.Make (Ts)
module Vac_tl = Tstm_vacation.Vacation.Make (Tl)

let check_bool = Alcotest.(check bool)

let small_spec =
  {
    Vac_ts.default_spec with
    Vac_ts.n_relations = 64;
    n_customers = 64;
    queries_per_tx = 3;
  }

let make_ts () =
  let stm =
    Ts.create ~kind:R.kind
      ~config:(Tinystm.Config.make ~n_locks:1024 ~hierarchy:4 ())
      ~memory_words:(Vac_ts.memory_words_for small_spec)
      ()
  in
  let v = Vac_ts.create stm in
  (stm, Vac_ts.populate v small_spec ~seed:11)

let test_populate_consistent () =
  let _, v = make_ts () in
  Vac_ts.check_consistency v

let test_reserve_and_release () =
  let stm, v = make_ts () in
  (* Reserve one car for customer 1. *)
  let ok =
    Ts.atomically stm (fun tx -> Vac_ts.reserve v tx Vac_ts.Car 5 1)
  in
  check_bool "reservation made" true ok;
  Vac_ts.check_consistency v;
  (* Deleting the customer releases the unit. *)
  let bill = Ts.atomically stm (fun tx -> Vac_ts.delete_customer v tx 1) in
  check_bool "bill computed" true (bill <> None && Option.get bill > 0);
  Vac_ts.check_consistency v;
  (* Deleting again: customer unknown. *)
  check_bool "second delete fails" true
    (Ts.atomically stm (fun tx -> Vac_ts.delete_customer v tx 1) = None)

let test_reserve_until_sold_out () =
  let stm, v = make_ts () in
  (* Resource capacities are multiples of 100 in [100, 500]. *)
  let booked = ref 0 in
  (try
     while true do
       if not (Ts.atomically stm (fun tx -> Vac_ts.reserve v tx Vac_ts.Room 7 2))
       then raise Exit;
       incr booked;
       if !booked > 600 then Alcotest.fail "never sold out"
     done
   with Exit -> ());
  check_bool "sold a plausible count" true (!booked >= 100 && !booked <= 500);
  check_bool "capacity is a multiple of 100" true (!booked mod 100 = 0);
  Vac_ts.check_consistency v

let test_add_and_delete_resource () =
  let stm, v = make_ts () in
  Ts.atomically stm (fun tx ->
      Vac_ts.add_resource v tx Vac_ts.Flight 999 100 42);
  check_bool "price visible" true
    (Ts.atomically stm (fun tx -> Vac_ts.query_price v tx Vac_ts.Flight 999)
    = Some 42);
  Vac_ts.check_consistency v;
  check_bool "retire succeeds" true
    (Ts.atomically stm (fun tx -> Vac_ts.delete_resource v tx Vac_ts.Flight 999 100));
  check_bool "resource gone" true
    (Ts.atomically stm (fun tx -> Vac_ts.query_price v tx Vac_ts.Flight 999)
    = None);
  Vac_ts.check_consistency v

let test_delete_resource_keeps_reserved_units () =
  let stm, v = make_ts () in
  check_bool "reserve" true
    (Ts.atomically stm (fun tx -> Vac_ts.reserve v tx Vac_ts.Car 9 3));
  (* Retiring more units than exist must still keep the reserved one. *)
  ignore
    (Ts.atomically stm (fun tx -> Vac_ts.delete_resource v tx Vac_ts.Car 9 100000));
  check_bool "resource survives while reserved" true
    (Ts.atomically stm (fun tx -> Vac_ts.query_price v tx Vac_ts.Car 9) <> None);
  Vac_ts.check_consistency v

let test_sequential_clients () =
  let _, v = make_ts () in
  let g = Tstm_util.Xrand.create 77 in
  for _ = 1 to 400 do
    Vac_ts.client_step v small_spec g
  done;
  Vac_ts.check_consistency v

let test_concurrent_clients () =
  let _, v = make_ts () in
  R.run ~nthreads:6 (fun tid ->
      let g = Tstm_util.Xrand.create (123 + tid) in
      for _ = 1 to 120 do
        Vac_ts.client_step v small_spec g
      done);
  Vac_ts.check_consistency v

let test_concurrent_clients_tl2 () =
  let stm =
    Tl.create ~kind:R.kind ~n_locks:1024
      ~memory_words:(Vac_tl.memory_words_for small_spec) ()
  in
  let v = Vac_tl.create stm in
  let v = Vac_tl.populate v small_spec ~seed:11 in
  R.run ~nthreads:6 (fun tid ->
      let g = Tstm_util.Xrand.create (321 + tid) in
      for _ = 1 to 120 do
        Vac_tl.client_step v small_spec g
      done);
  Vac_tl.check_consistency v

let test_concurrent_deterministic () =
  let run () =
    let stm, v = make_ts () in
    R.run ~nthreads:4 (fun tid ->
        let g = Tstm_util.Xrand.create (555 + tid) in
        for _ = 1 to 80 do
          Vac_ts.client_step v small_spec g
        done);
    let s = Ts.stats stm in
    (s.Tstm_tm.Tm_stats.commits, Tstm_tm.Tm_stats.aborts s)
  in
  check_bool "deterministic" true (run () = run ())

let test_memory_reclaimed_by_churn () =
  (* Customer delete must free reservation items and the customer record;
     run a churn and verify live words do not grow without bound. *)
  let stm, v = make_ts () in
  let measure () = Tstm_vmm.Vmm.live_words (Ts.memory stm) in
  let g = Tstm_util.Xrand.create 999 in
  for _ = 1 to 200 do
    Vac_ts.client_step v small_spec g
  done;
  let after_warm = measure () in
  for _ = 1 to 600 do
    Vac_ts.client_step v small_spec g
  done;
  let final = measure () in
  (* Reservations are bounded by resources; allow head-room but no blow-up. *)
  check_bool
    (Printf.sprintf "no unbounded growth (%d -> %d)" after_warm final)
    true
    (final < (2 * after_warm) + 65536);
  Vac_ts.check_consistency v

let () =
  Alcotest.run "tstm_vacation"
    [
      ( "manager",
        [
          Alcotest.test_case "populate consistent" `Quick
            test_populate_consistent;
          Alcotest.test_case "reserve/release" `Quick test_reserve_and_release;
          Alcotest.test_case "sell out" `Quick test_reserve_until_sold_out;
          Alcotest.test_case "add/delete resource" `Quick
            test_add_and_delete_resource;
          Alcotest.test_case "retire keeps reserved" `Quick
            test_delete_resource_keeps_reserved_units;
        ] );
      ( "clients",
        [
          Alcotest.test_case "sequential" `Quick test_sequential_clients;
          Alcotest.test_case "concurrent (tinystm)" `Quick
            test_concurrent_clients;
          Alcotest.test_case "concurrent (tl2)" `Quick
            test_concurrent_clients_tl2;
          Alcotest.test_case "deterministic" `Quick
            test_concurrent_deterministic;
          Alcotest.test_case "memory churn bounded" `Quick
            test_memory_reclaimed_by_churn;
        ] );
    ]
