(* Tests for the VmmSan happens-before sanitizer: discipline checks driven
   through the annotation API, race and use-after-free checks driven through
   the simulated runtime, and the teeth comparison against the bounded-window
   serializability checker on the armed protocol bugs. *)

module San = Tstm_san.San
module R = Tstm_runtime.Runtime_sim
module V = Tstm_vmm.Vmm.Make (Tstm_runtime.Runtime_sim)
module Plan = Tstm_chaos.Plan
module St = Tstm_harness.Stress
module S = Tstm_harness.Scenario
module W = Tstm_harness.Workload

let check_bool = Alcotest.(check bool)
let has k fs = List.exists (fun f -> f.San.kind = k) fs

let render_all fs = String.concat "; " (List.map San.render fs)

(* ------------------------------------------------------------------ *)
(* Discipline checks (annotation API only, no runtime needed)          *)
(* ------------------------------------------------------------------ *)

let test_lock_discipline () =
  let (), fs =
    San.with_armed ~ncpus:2 (fun () ->
        San.tx_begin ~cpu:0;
        San.lock_release ~cpu:0 ~lock:3;
        San.lock_acquire ~cpu:0 ~lock:4;
        San.lock_acquire ~cpu:0 ~lock:4;
        San.tx_exit ~cpu:0 ~committed:false)
  in
  check_bool "release without acquire" true (has San.Lock_not_held fs);
  check_bool "double acquire" true (has San.Double_acquire fs);
  check_bool "orec leak at exit" true (has San.Orec_leak fs)

let test_lock_clean () =
  let (), fs =
    San.with_armed ~ncpus:2 (fun () ->
        San.tx_begin ~cpu:0;
        San.lock_acquire ~cpu:0 ~lock:4;
        San.lock_release ~cpu:0 ~lock:4;
        San.tx_exit ~cpu:0 ~committed:false)
  in
  check_bool "balanced acquire/release is clean" true (fs = [])

let test_foreign_release () =
  let (), fs =
    San.with_armed ~ncpus:2 (fun () ->
        San.tx_begin ~cpu:0;
        San.tx_begin ~cpu:1;
        San.lock_acquire ~cpu:0 ~lock:7;
        San.lock_release ~cpu:1 ~lock:7)
  in
  check_bool "releasing a foreign orec" true (has San.Lock_not_held fs)

let test_clock_discipline () =
  let (), fs =
    San.with_armed ~ncpus:2 (fun () ->
        San.tx_begin ~cpu:0;
        San.commit_publish ~cpu:0 ~wv:7;
        San.tx_exit ~cpu:0 ~committed:true)
  in
  check_bool "publish of an undrawn version" true (has San.Clock_publish fs);
  let (), fs =
    San.with_armed ~ncpus:2 (fun () ->
        San.tx_begin ~cpu:0;
        San.clock_advance ~cpu:0 ~drawn:7;
        San.commit_publish ~cpu:0 ~wv:7;
        San.tx_exit ~cpu:0 ~committed:true)
  in
  check_bool "publish of the drawn version is clean" true (fs = [])

(* The single global sequence lock follows the same discipline as orec
   slots, reported under the ["seqlock"] label (slot 0). *)
let test_seqlock_discipline () =
  let (), fs =
    San.with_armed ~ncpus:2 (fun () ->
        San.tx_begin ~cpu:0;
        San.tx_begin ~cpu:1;
        San.seqlock_acquire ~cpu:0 ~drawn:2;
        San.seqlock_acquire ~cpu:1 ~drawn:2)
  in
  check_bool "acquire while a commit is in flight" true
    (has San.Double_acquire fs);
  let (), fs =
    San.with_armed ~ncpus:2 (fun () ->
        San.tx_begin ~cpu:0;
        San.tx_begin ~cpu:1;
        San.seqlock_acquire ~cpu:0 ~drawn:2;
        San.seqlock_release ~cpu:1)
  in
  check_bool "foreign release of the sequence lock" true
    (has San.Lock_not_held fs);
  let (), fs =
    San.with_armed ~ncpus:1 (fun () ->
        San.tx_begin ~cpu:0;
        San.seqlock_acquire ~cpu:0 ~drawn:2;
        San.commit_publish ~cpu:0 ~wv:2;
        San.tx_exit ~cpu:0 ~committed:true)
  in
  check_bool "sequence lock leaked past commit" true
    (List.exists
       (fun f -> f.San.kind = San.Orec_leak && f.San.label = "seqlock")
       fs)

let test_seqlock_clean () =
  let (), fs =
    San.with_armed ~ncpus:1 (fun () ->
        San.tx_begin ~cpu:0;
        San.seqlock_validate ~cpu:0 ~value:0;
        San.seqlock_acquire ~cpu:0 ~drawn:2;
        San.commit_publish ~cpu:0 ~wv:2;
        San.seqlock_release ~cpu:0;
        San.tx_exit ~cpu:0 ~committed:true)
  in
  check_bool "validate/acquire/publish/release commit is clean" true (fs = [])

(* ------------------------------------------------------------------ *)
(* Races and allocator checks (through the simulated runtime)          *)
(* ------------------------------------------------------------------ *)

let test_raw_vs_tx_race () =
  let (), fs =
    San.with_armed ~ncpus:2 (fun () ->
        let a = R.sarray_make 16 0 in
        R.sarray_label a "mem";
        R.run ~nthreads:2 (fun i ->
            if i = 0 then R.set a 5 7
            else begin
              (* Order after cpu 0's raw store; there is no synchronization
                 edge between the two, only virtual time. *)
              R.charge 500;
              San.tx_begin ~cpu:1;
              R.set a 5 9;
              San.tx_abort ~cpu:1;
              San.tx_exit ~cpu:1 ~committed:false
            end))
  in
  check_bool
    (Printf.sprintf "raw vs transactional store race flagged [%s]"
       (render_all fs))
    true
    (has San.Raw_race fs);
  List.iter
    (fun f ->
      check_bool "finding names the word" true (f.San.addr = 5);
      check_bool "finding names both cpus" true
        (f.San.cpu >= 0 && f.San.other >= 0 && f.San.cpu <> f.San.other))
    fs

let test_ordered_raw_clean () =
  (* The same pair of raw stores, but sequential runs: the run boundary is a
     real fork/join synchronization, so no race. *)
  let (), fs =
    San.with_armed ~ncpus:2 (fun () ->
        let a = R.sarray_make 16 0 in
        R.sarray_label a "mem";
        R.run ~nthreads:1 (fun _ -> R.set a 5 7);
        R.run ~nthreads:1 (fun _ -> R.set a 5 9))
  in
  check_bool "boundary-ordered raw stores are clean" true (fs = [])

let test_use_after_free () =
  let (), fs =
    San.with_armed ~ncpus:1 (fun () ->
        R.run ~nthreads:1 (fun _ ->
            let m = V.create ~words:256 in
            let a = V.alloc m 4 in
            V.store m a 1;
            V.free m a 4;
            ignore (V.load m a)))
  in
  check_bool "use after free flagged" true (has San.Use_after_free fs)

let test_alloc_resets_shadow () =
  (* Recycling a freed block must not leak the previous life's shadow state:
     alloc resets it, so a store to the recycled block is clean. *)
  let (), fs =
    San.with_armed ~ncpus:1 (fun () ->
        R.run ~nthreads:1 (fun _ ->
            let m = V.create ~words:256 in
            let a = V.alloc m 4 in
            V.store m a 1;
            V.free m a 4;
            let b = V.alloc m 4 in
            V.store m b 2;
            ignore (V.load m b)))
  in
  check_bool "recycled block is a fresh life" true (fs = [])

(* ------------------------------------------------------------------ *)
(* Teeth: armed protocol bugs versus the window checker                *)
(* ------------------------------------------------------------------ *)

(* Sweep seeds in order under an armed bug and record the first seed the
   sanitizer flags and the first seed the serializability checker flags.
   The sanitizer judges every commit against the protocol, so it must fire
   in strictly fewer seeds than the black-box checker, which only sees
   externally non-serializable histories. *)
let first_seeds spec =
  let cap = 12 in
  let rec go seed san chk sfs =
    if seed >= cap || (san >= 0 && chk >= 0) then (san, chk, sfs)
    else
      let r = St.run_one { spec with St.seed } in
      let san, sfs =
        if san < 0 && r.St.san_findings <> [] then (seed, r.St.san_findings)
        else (san, sfs)
      in
      let chk = if chk < 0 && r.St.violation <> None then seed else chk in
      go (seed + 1) san chk sfs
  in
  go 0 (-1) (-1) []

(* [kinds] is the acceptable diagnosis set for the armed bug (at least one
   must appear among the first findings).  [allow_tie] admits san = chk:
   a single-lock STM commits torn state in whole write sets, so the very
   first poisoned seed can already be externally non-serializable — the
   sanitizer still never needs MORE seeds than the black-box checker. *)
let teeth ?(kinds = [ San.Stale_read ]) ?(allow_tie = false) stm bug () =
  let spec =
    { St.default with St.stm; per_thread = 8; bug = Some bug; san = true }
  in
  let san, chk, fs = first_seeds spec in
  check_bool
    (Printf.sprintf "sanitizer flags %s on %s (first seed %d)"
       (Plan.bug_name bug) stm san)
    true (san >= 0);
  check_bool
    (Printf.sprintf "sanitizer needs %s seeds (san %d, checker %s)"
       (if allow_tie then "no more" else "strictly fewer")
       san
       (if chk < 0 then "none within cap" else string_of_int chk))
    true
    (chk < 0 || san < chk || (allow_tie && san = chk));
  (* The report must name a concrete (cpu, addr, access pair). *)
  check_bool "finding carries a word address" true
    (List.exists (fun f -> f.San.label = "mem" && f.San.addr >= 0) fs);
  check_bool "finding carries the access pair" true
    (List.exists (fun f -> f.San.cpu >= 0 && f.San.other >= 0) fs);
  check_bool
    (Printf.sprintf "expected diagnosis present [%s]" (render_all fs))
    true
    (List.exists (fun k -> has k fs) kinds)

(* ------------------------------------------------------------------ *)
(* Precision: clean protocols yield zero findings                      *)
(* ------------------------------------------------------------------ *)

let test_precision_clean () =
  List.iter
    (fun stm ->
      List.iter
        (fun structure ->
          for seed = 0 to 2 do
            let spec =
              { St.default with St.stm; structure; seed; san = true }
            in
            let r = St.run_one spec in
            check_bool
              (Printf.sprintf "%s %s seed=%d serializable" stm
                 (W.structure_to_string structure)
                 seed)
              true
              (r.St.violation = None);
            check_bool
              (Printf.sprintf "%s %s seed=%d san-clean [%s]" stm
                 (W.structure_to_string structure)
                 seed
                 (render_all r.St.san_findings))
              true
              (r.St.san_findings = [])
          done)
        [ W.List; W.Hashset ])
    S.all_stms

let test_precision_escalation () =
  (* Exercise the irrevocable escalation (fence) paths under the sanitizer. *)
  let total = ref 0 in
  List.iter
    (fun stm ->
      for seed = 0 to 1 do
        let spec =
          { St.default with St.stm; seed; max_retries = 1; san = true }
        in
        let r = St.run_one spec in
        total := !total + r.St.escalations;
        check_bool
          (Printf.sprintf "%s seed=%d escalating run san-clean [%s]" stm seed
             (render_all r.St.san_findings))
          true
          (St.failed r = false)
      done)
    S.all_stms;
  check_bool "escalations actually happened" true (!total > 0)

let () =
  Alcotest.run "san"
    [
      ( "discipline",
        [
          Alcotest.test_case "lock discipline" `Quick test_lock_discipline;
          Alcotest.test_case "balanced locking clean" `Quick test_lock_clean;
          Alcotest.test_case "foreign release" `Quick test_foreign_release;
          Alcotest.test_case "clock discipline" `Quick test_clock_discipline;
          Alcotest.test_case "seqlock discipline" `Quick
            test_seqlock_discipline;
          Alcotest.test_case "seqlock balanced commit clean" `Quick
            test_seqlock_clean;
        ] );
      ( "memory",
        [
          Alcotest.test_case "raw vs tx race" `Quick test_raw_vs_tx_race;
          Alcotest.test_case "ordered raw clean" `Quick test_ordered_raw_clean;
          Alcotest.test_case "use after free" `Quick test_use_after_free;
          Alcotest.test_case "alloc resets shadow" `Quick
            test_alloc_resets_shadow;
        ] );
      ( "teeth",
        [
          Alcotest.test_case "skip-extension on wb" `Quick
            (teeth "tinystm-wb" Plan.Skip_extension);
          Alcotest.test_case "skip-validation on tl2" `Quick
            (teeth "tl2" Plan.Skip_validation);
          Alcotest.test_case "skip-validation on norec (torn commit)" `Quick
            (teeth ~allow_tie:true "norec" Plan.Skip_validation);
          Alcotest.test_case "skip-extension on norec" `Quick
            (teeth
               ~kinds:[ San.Read_beyond_snapshot; San.Stale_read ]
               "norec" Plan.Skip_extension);
        ] );
      ( "precision",
        [
          Alcotest.test_case "clean sweep" `Quick test_precision_clean;
          Alcotest.test_case "escalating runs clean" `Quick
            test_precision_escalation;
        ] );
    ]
