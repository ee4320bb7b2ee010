(* Tests for the virtual word memory: bounds, allocator recycling, spatial
   locality of the bump allocator, thread safety under both runtimes. *)

module Vmm = Tstm_vmm.Vmm

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

module Common (R : sig val kind : Tstm_runtime.Shm.kind end) = struct
  module V = Vmm
  let test_load_store () =
    let m = V.create ~kind:R.kind ~words:100 in
    V.store m 5 99;
    check_int "load" 99 (V.load m 5);
    check_int "others 0" 0 (V.load m 6)

  let test_null_reserved () =
    let m = V.create ~kind:R.kind ~words:10 in
    check_int "null" 0 V.null;
    Alcotest.check_raises "store null"
      (Invalid_argument "Vmm: address 0 out of bounds") (fun () ->
        V.store m V.null 1);
    let a = V.alloc m 1 in
    check_bool "alloc never returns null" true (a <> V.null)

  let test_bounds () =
    let m = V.create ~kind:R.kind ~words:10 in
    Alcotest.check_raises "past end"
      (Invalid_argument "Vmm: address 11 out of bounds") (fun () ->
        ignore (V.load m 11));
    V.store m 10 1;
    check_int "last word usable" 1 (V.load m 10)

  let test_alloc_adjacent () =
    (* Consecutive allocations must be adjacent: the #shifts tuning parameter
       depends on this spatial locality. *)
    let m = V.create ~kind:R.kind ~words:1000 in
    let a = V.alloc m 4 in
    let b = V.alloc m 4 in
    let c = V.alloc m 4 in
    check_int "b after a" (a + 4) b;
    check_int "c after b" (b + 4) c

  let test_alloc_distinct () =
    let m = V.create ~kind:R.kind ~words:1000 in
    let seen = Hashtbl.create 64 in
    for _ = 1 to 50 do
      let a = V.alloc m 3 in
      for w = a to a + 2 do
        check_bool "word not double-allocated" false (Hashtbl.mem seen w);
        Hashtbl.replace seen w ()
      done
    done

  let test_free_recycles () =
    let m = V.create ~kind:R.kind ~words:100 in
    let a = V.alloc m 8 in
    V.free m a 8;
    let b = V.alloc m 8 in
    check_int "same block recycled" a b

  let test_free_lists_per_class () =
    let m = V.create ~kind:R.kind ~words:1000 in
    let a2 = V.alloc m 2 in
    let a3 = V.alloc m 3 in
    V.free m a2 2;
    V.free m a3 3;
    check_int "class 3 pops its own" a3 (V.alloc m 3);
    check_int "class 2 pops its own" a2 (V.alloc m 2)

  let test_live_words () =
    let m = V.create ~kind:R.kind ~words:100 in
    check_int "empty" 0 (V.live_words m);
    let a = V.alloc m 10 in
    check_int "after alloc" 10 (V.live_words m);
    let b = V.alloc m 5 in
    check_int "after second" 15 (V.live_words m);
    V.free m a 10;
    check_int "after free" 5 (V.live_words m);
    V.free m b 5;
    check_int "empty again" 0 (V.live_words m);
    check_int "total counts recycling" 15 (V.allocated_since_start m)

  let test_large_blocks_bump_only () =
    (* Blocks beyond the free-list class limit (256 words) are bump-only:
       freeing them updates accounting but never recycles the space. *)
    let m = V.create ~kind:R.kind ~words:2048 in
    let a = V.alloc m 300 in
    V.free m a 300;
    check_int "accounting updated" 0 (V.live_words m);
    let b = V.alloc m 300 in
    check_bool "not recycled" true (b <> a)

  let test_out_of_memory () =
    let m = V.create ~kind:R.kind ~words:10 in
    ignore (V.alloc m 8);
    Alcotest.check_raises "exhausted" Out_of_memory (fun () ->
        ignore (V.alloc m 8))

  let test_free_out_of_range () =
    let m = V.create ~kind:R.kind ~words:100 in
    let rejects msg f =
      match f () with
      | () -> Alcotest.failf "%s: accepted" msg
      | exception Invalid_argument _ -> ()
    in
    rejects "free at null" (fun () -> V.free m 0 4);
    rejects "free below range" (fun () -> V.free m (-3) 4);
    rejects "free past end" (fun () -> V.free m 101 2);
    rejects "free straddling end" (fun () -> V.free m 99 4);
    rejects "free of size 0" (fun () -> V.free m 5 0);
    (* A rejected free must not disturb the live-word accounting. *)
    let a = V.alloc m 8 in
    let live = V.live_words m in
    rejects "free straddling end after alloc" (fun () -> V.free m 99 4);
    check_int "accounting intact after rejection" live (V.live_words m);
    V.free m a 8

  let test_double_free_detected () =
    let m = V.create ~kind:R.kind ~words:1000 in
    let a = V.alloc m 4 in
    V.free m a 4;
    (match V.free m a 4 with
    | () -> Alcotest.fail "double free accepted"
    | exception Invalid_argument _ -> ());
    check_int "accounting not corrupted by double free" 0 (V.live_words m);
    (* The block is still recyclable exactly once. *)
    check_int "block recycled once" a (V.alloc m 4);
    let b = V.alloc m 4 in
    check_bool "not handed out twice" true (b <> a)

  let test_double_free_deep_in_list () =
    (* The duplicate need not be the list head: free three blocks, then
       re-free the first one pushed (now deepest in the free list). *)
    let m = V.create ~kind:R.kind ~words:1000 in
    let a = V.alloc m 4 in
    let b = V.alloc m 4 in
    let c = V.alloc m 4 in
    V.free m a 4;
    V.free m b 4;
    V.free m c 4;
    (match V.free m a 4 with
    | () -> Alcotest.fail "deep double free accepted"
    | exception Invalid_argument _ -> ());
    check_int "accounting intact" 0 (V.live_words m)

  let rejects_invalid msg f =
    match f () with
    | () -> Alcotest.failf "%s: accepted" msg
    | exception Invalid_argument _ -> ()

  let test_large_free_validated () =
    (* Large (non-recyclable) blocks are tracked by extent, so their frees
       are validated even without a free list to scan. *)
    let m = V.create ~kind:R.kind ~words:4096 in
    let a = V.alloc m 300 in
    rejects_invalid "never-allocated large free" (fun () ->
        V.free m (a + 1) 300);
    rejects_invalid "mismatched-size large free" (fun () -> V.free m a 301);
    check_int "rejections left accounting intact" 300 (V.live_words m);
    V.free m a 300;
    check_int "valid free accounted" 0 (V.live_words m)

  let test_large_double_free () =
    let m = V.create ~kind:R.kind ~words:4096 in
    let a = V.alloc m 300 in
    V.free m a 300;
    rejects_invalid "large double free" (fun () -> V.free m a 300);
    check_int "accounting not corrupted" 0 (V.live_words m)

  let test_large_extent_per_block () =
    (* Distinct large blocks are tracked independently; freeing one must
       not disturb the other's extent. *)
    let m = V.create ~kind:R.kind ~words:4096 in
    let a = V.alloc m 300 in
    let b = V.alloc m 400 in
    V.free m a 300;
    rejects_invalid "first block already freed" (fun () -> V.free m a 300);
    V.free m b 400;
    check_int "both accounted" 0 (V.live_words m)

  let test_parallel_alloc_no_overlap () =
    let m = V.create ~kind:R.kind ~words:100_000 in
    let n = 4 and per = 200 in
    let results = Array.make (n * per) 0 in
    Tstm_runtime.Runtime.run R.kind ~nthreads:n (fun tid ->
        for j = 0 to per - 1 do
          results.((tid * per) + j) <- V.alloc m 5
        done);
    let seen = Hashtbl.create 1024 in
    Array.iter
      (fun base ->
        for w = base to base + 4 do
          check_bool "no overlap" false (Hashtbl.mem seen w);
          Hashtbl.replace seen w ()
        done)
      results

  let test_parallel_alloc_free_churn () =
    let m = V.create ~kind:R.kind ~words:50_000 in
    let n = 4 in
    Tstm_runtime.Runtime.run R.kind ~nthreads:n (fun tid ->
        let g = Tstm_util.Xrand.create (100 + tid) in
        let mine = ref [] in
        for _ = 1 to 300 do
          if Tstm_util.Xrand.bool g || !mine = [] then
            mine := V.alloc m 4 :: !mine
          else
            match !mine with
            | a :: rest ->
                V.free m a 4;
                mine := rest
            | [] -> ()
        done;
        List.iter (fun a -> V.free m a 4) !mine);
    check_int "all freed" 0 (V.live_words m)

  let tests =
    [
      Alcotest.test_case "load/store" `Quick test_load_store;
      Alcotest.test_case "null reserved" `Quick test_null_reserved;
      Alcotest.test_case "bounds" `Quick test_bounds;
      Alcotest.test_case "adjacent allocation" `Quick test_alloc_adjacent;
      Alcotest.test_case "distinct blocks" `Quick test_alloc_distinct;
      Alcotest.test_case "free recycles" `Quick test_free_recycles;
      Alcotest.test_case "per-class free lists" `Quick
        test_free_lists_per_class;
      Alcotest.test_case "live accounting" `Quick test_live_words;
      Alcotest.test_case "large blocks bump-only" `Quick
        test_large_blocks_bump_only;
      Alcotest.test_case "out of memory" `Quick test_out_of_memory;
      Alcotest.test_case "free out of range" `Quick test_free_out_of_range;
      Alcotest.test_case "double free detected" `Quick
        test_double_free_detected;
      Alcotest.test_case "large free validated" `Quick
        test_large_free_validated;
      Alcotest.test_case "large double free" `Quick test_large_double_free;
      Alcotest.test_case "large extents per block" `Quick
        test_large_extent_per_block;
      Alcotest.test_case "double free deep in list" `Quick
        test_double_free_deep_in_list;
      Alcotest.test_case "parallel alloc" `Quick test_parallel_alloc_no_overlap;
      Alcotest.test_case "parallel churn" `Quick test_parallel_alloc_free_churn;
    ]
end

module Sim_tests = Common (Tstm_runtime.Runtime_sim)
module Real_tests = Common (Tstm_runtime.Runtime_real)

(* qcheck: a random alloc/free trace never double-allocates a live word and
   live accounting stays consistent. *)
let prop_alloc_free_trace =
  QCheck.Test.make ~name:"random alloc/free trace keeps invariants" ~count:60
    QCheck.(list (pair bool (int_range 1 20)))
    (fun ops ->
      let m = Vmm.create ~kind:Tstm_runtime.Shm.Simulated ~words:100_000 in
      let live = Hashtbl.create 64 in
      let blocks = ref [] in
      let expected_live = ref 0 in
      List.iter
        (fun (is_alloc, size) ->
          if is_alloc || !blocks = [] then begin
            let a = Vmm.alloc m size in
            for w = a to a + size - 1 do
              if Hashtbl.mem live w then failwith "double allocation";
              Hashtbl.replace live w ()
            done;
            blocks := (a, size) :: !blocks;
            expected_live := !expected_live + size
          end
          else
            match !blocks with
            | (a, s) :: rest ->
                for w = a to a + s - 1 do
                  Hashtbl.remove live w
                done;
                Vmm.free m a s;
                blocks := rest;
                expected_live := !expected_live - s
            | [] -> ())
        ops;
      Vmm.live_words m = !expected_live)

let () =
  Alcotest.run "tstm_vmm"
    [
      ("sim", Sim_tests.tests);
      ("domains", Real_tests.tests);
      ("props", List.map QCheck_alcotest.to_alcotest [ prop_alloc_free_trace ]);
    ]
