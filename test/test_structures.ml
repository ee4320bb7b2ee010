(* Model-based and invariant tests for the transactional data structures,
   run over TinySTM (write-back and write-through) and TL2. *)

module R = Tstm_runtime.Runtime_sim
module IS = Set.Make (Int)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A uniform view of one structure over one STM. *)
type harness = {
  h_name : string;
  contains : int -> bool;
  add : int -> bool;
  remove : int -> bool;
  overwrite_upto : int -> int;
  size : unit -> int;
  to_list : unit -> int list;
  check_invariants : unit -> int;  (* returns node count *)
  run_concurrent : nthreads:int -> (int -> (int -> bool) -> (int -> bool) -> unit) -> unit;
      (* run_concurrent ~n body: body tid add remove, with ops transactional *)
  live_words : unit -> int;
}

module Build (T : sig
  include Tstm_tm.Tm_intf.TM

  val make_instance : unit -> t
  val live : t -> int
end) =
struct
  module Ll = Tstm_structures.Intset_list.Make (T)
  module Rb = Tstm_structures.Rbtree.Make (T)
  module Sk = Tstm_structures.Skiplist.Make (T)
  module Hs = Tstm_structures.Hashset.Make (T)

  let wrap name ~contains ~add ~remove ~overwrite ~size ~to_list ~check stm =
    {
      h_name = Printf.sprintf "%s/%s" T.name name;
      contains = (fun k -> T.atomically stm (fun tx -> contains tx k));
      add = (fun k -> T.atomically stm (fun tx -> add tx k));
      remove = (fun k -> T.atomically stm (fun tx -> remove tx k));
      overwrite_upto = (fun k -> T.atomically stm (fun tx -> overwrite tx k));
      size = (fun () -> T.atomically stm size);
      to_list = (fun () -> T.atomically stm to_list);
      check_invariants = (fun () -> T.atomically stm check);
      run_concurrent =
        (fun ~nthreads body ->
          R.run ~nthreads (fun tid ->
              body tid
                (fun k -> T.atomically stm (fun tx -> add tx k))
                (fun k -> T.atomically stm (fun tx -> remove tx k))));
      live_words = (fun () -> T.live stm);
    }

  let list () =
    let stm = T.make_instance () in
    let s = Ll.create stm in
    wrap "list"
      ~contains:(fun tx k -> Ll.contains s tx k)
      ~add:(fun tx k -> Ll.add s tx k)
      ~remove:(fun tx k -> Ll.remove s tx k)
      ~overwrite:(fun tx k -> Ll.overwrite_upto s tx k)
      ~size:(fun tx -> Ll.size s tx)
      ~to_list:(fun tx -> Ll.to_list s tx)
      ~check:(fun tx ->
        (* sortedness is the list invariant *)
        let l = Ll.to_list s tx in
        if List.sort compare l <> l then failwith "list unsorted";
        List.length l)
      stm

  let rbtree () =
    let stm = T.make_instance () in
    let s = Rb.create stm in
    wrap "rbtree"
      ~contains:(fun tx k -> Rb.contains s tx k)
      ~add:(fun tx k -> Rb.add s tx k)
      ~remove:(fun tx k -> Rb.remove s tx k)
      ~overwrite:(fun tx k -> Rb.overwrite_upto s tx k)
      ~size:(fun tx -> Rb.size s tx)
      ~to_list:(fun tx -> Rb.to_list s tx)
      ~check:(fun tx -> Rb.check_invariants s tx)
      stm

  let skiplist () =
    let stm = T.make_instance () in
    let s = Sk.create stm in
    wrap "skiplist"
      ~contains:(fun tx k -> Sk.contains s tx k)
      ~add:(fun tx k -> Sk.add s tx k)
      ~remove:(fun tx k -> Sk.remove s tx k)
      ~overwrite:(fun tx k -> Sk.overwrite_upto s tx k)
      ~size:(fun tx -> Sk.size s tx)
      ~to_list:(fun tx -> Sk.to_list s tx)
      ~check:(fun tx -> Sk.check_invariants s tx)
      stm

  let hashset () =
    let stm = T.make_instance () in
    let s = Hs.create ~n_buckets:16 stm in
    wrap "hashset"
      ~contains:(fun tx k -> Hs.contains s tx k)
      ~add:(fun tx k -> Hs.add s tx k)
      ~remove:(fun tx k -> Hs.remove s tx k)
      ~overwrite:(fun tx k -> Hs.overwrite_upto s tx k)
      ~size:(fun tx -> Hs.size s tx)
      ~to_list:(fun tx -> Hs.to_list s tx)
      ~check:(fun tx -> Hs.check_invariants s tx)
      stm

  let all = [ list; rbtree; skiplist; hashset ]

  (* [Ll.add_from]'s fallback: a finger whose key is not below the new key
     (the tail sentinel, the key's own node, a larger key) restarts the
     search at the head, so any live node is a correct finger. *)
  let finger_fallback () =
    let stm = T.make_instance () in
    let s = Ll.create stm in
    let add_from finger k =
      T.atomically stm (fun tx -> Ll.add_from s tx ~finger k)
    in
    let head = Ll.head s in
    let tail = T.atomically stm (fun tx -> T.read tx (head + 1)) in
    let n10 = Option.get (add_from tail 10) in
    check_bool "own node as finger: duplicate" true (add_from n10 10 = None);
    let n5 = Option.get (add_from n10 5) in
    check_bool "tail as finger: duplicate" true (add_from tail 5 = None);
    ignore (add_from n5 7);
    ignore (add_from head 20);
    check_int "new node holds its key" 5
      (T.atomically stm (fun tx -> T.read tx n5));
    Alcotest.(check (list int)) "sorted contents" [ 5; 7; 10; 20 ]
      (T.atomically stm (Ll.to_list s))

  (* Random keys, each inserted through an arbitrary live node of the list
     (head, tail or any node inserted so far) into one list and through
     [Ll.add] into another: same results, same strictly sorted set. *)
  let finger_prop =
    QCheck.Test.make
      ~name:(T.name ^ "/list add_from matches add")
      ~count:40
      QCheck.(list (pair (int_range 1 50) small_nat))
      (fun draws ->
        let stm = T.make_instance () in
        let s = Ll.create stm and r = Ll.create stm in
        let head = Ll.head s in
        let tail = T.atomically stm (fun tx -> T.read tx (head + 1)) in
        let nodes = ref [ head; tail ] in
        List.for_all
          (fun (k, i) ->
            let finger = List.nth !nodes (i mod List.length !nodes) in
            let got = T.atomically stm (fun tx -> Ll.add_from s tx ~finger k) in
            let expected = T.atomically stm (fun tx -> Ll.add r tx k) in
            match got with
            | Some n ->
                nodes := n :: !nodes;
                expected && T.atomically stm (fun tx -> T.read tx n) = k
            | None -> not expected)
          draws
        &&
        let l = T.atomically stm (Ll.to_list s) in
        let rec strictly_sorted = function
          | a :: (b :: _ as rest) -> a < b && strictly_sorted rest
          | _ -> true
        in
        l = T.atomically stm (Ll.to_list r) && strictly_sorted l)

  let finger_tests =
    [
      Alcotest.test_case (T.name ^ ": fallback") `Quick finger_fallback;
      QCheck_alcotest.to_alcotest finger_prop;
    ]
end

module Ts = Tinystm
module Tl = Tstm_tl2.Tl2

module Ts_wb = Build (struct
  include Ts

  let name = "tinystm-wb"

  let make_instance () =
    create ~kind:R.kind
      ~config:
        (Tinystm.Config.make ~n_locks:256 ~hierarchy:4
           ~strategy:Tinystm.Config.Write_back ())
      ~memory_words:200_000 ()

  let live t = Tstm_vmm.Vmm.live_words (memory t)
end)

module Ts_wt = Build (struct
  include Ts

  let name = "tinystm-wt"

  let make_instance () =
    create ~kind:R.kind
      ~config:
        (Tinystm.Config.make ~n_locks:256
           ~strategy:Tinystm.Config.Write_through ())
      ~memory_words:200_000 ()

  let live t = Tstm_vmm.Vmm.live_words (memory t)
end)

module Tl2_b = Build (struct
  include Tl

  let make_instance () =
    create ~kind:R.kind ~n_locks:256 ~memory_words:200_000 ()
  let live t = Tstm_vmm.Vmm.live_words (memory t)
end)

let harness_makers =
  Ts_wb.all @ Ts_wt.all @ Tl2_b.all

(* ------------------------------------------------------------------ *)
(* Deterministic unit tests over every harness                        *)
(* ------------------------------------------------------------------ *)

let sequential_basics make () =
  let h = make () in
  check_bool "empty contains" false (h.contains 5);
  check_int "empty size" 0 (h.size ());
  check_bool "add new" true (h.add 5);
  check_bool "add dup" false (h.add 5);
  check_bool "contains" true (h.contains 5);
  check_bool "add more" true (h.add 3);
  check_bool "add more" true (h.add 9);
  Alcotest.(check (list int)) "sorted contents" [ 3; 5; 9 ] (h.to_list ());
  check_int "size" 3 (h.size ());
  check_bool "remove absent" false (h.remove 4);
  check_bool "remove present" true (h.remove 5);
  check_bool "gone" false (h.contains 5);
  Alcotest.(check (list int)) "contents" [ 3; 9 ] (h.to_list ());
  ignore (h.check_invariants ())

let overwrite_counts make () =
  let h = make () in
  List.iter (fun k -> ignore (h.add k)) [ 1; 5; 10; 15; 20 ];
  check_int "overwrite below 12" 3 (h.overwrite_upto 12);
  check_int "overwrite below 1" 0 (h.overwrite_upto 1);
  check_int "overwrite all" 5 (h.overwrite_upto 1000);
  Alcotest.(check (list int)) "values intact" [ 1; 5; 10; 15; 20 ]
    (h.to_list ())

let memory_reclaimed make () =
  let h = make () in
  let baseline = h.live_words () in
  for k = 1 to 50 do
    ignore (h.add k)
  done;
  for k = 1 to 50 do
    ignore (h.remove k)
  done;
  check_int "all node memory freed" baseline (h.live_words ());
  check_int "empty" 0 (h.size ())

let concurrent_disjoint make () =
  (* Each thread owns a key range: all inserts must survive. *)
  let h = make () in
  let n = 4 and per = 40 in
  h.run_concurrent ~nthreads:n (fun tid add _remove ->
      for i = 0 to per - 1 do
        check_bool "insert own key" true (add ((tid * 1000) + i))
      done);
  check_int "all present" (n * per) (h.size ());
  ignore (h.check_invariants ())

let concurrent_churn make () =
  (* Threads add then remove their own random keys; the structure must end
     exactly with the keys whose removal failed... here each thread removes
     what it added, so the set returns to its initial contents. *)
  let h = make () in
  List.iter (fun k -> ignore (h.add k)) [ 100_000; 200_000 ];
  let n = 4 and per = 30 in
  h.run_concurrent ~nthreads:n (fun tid add remove ->
      let g = Tstm_util.Xrand.create (555 + tid) in
      for _ = 1 to per do
        (* Keys are made thread-unique so add/remove always succeed. *)
        let k = (Tstm_util.Xrand.int g 10_000 * 8) + tid in
        if add k then check_bool "remove own add" true (remove k)
      done);
  Alcotest.(check (list int)) "back to initial" [ 100_000; 200_000 ]
    (h.to_list ());
  ignore (h.check_invariants ())

let concurrent_mixed_with_invariants make () =
  (* Full contention: everyone works on the same small key range; afterwards
     the structure's internal invariants must hold and contents must match a
     replay of the committed operations... we can't replay, so we check
     invariants and that size = |to_list| with unique sorted elements. *)
  let h = make () in
  let n = 6 and per = 50 in
  h.run_concurrent ~nthreads:n (fun tid add remove ->
      let g = Tstm_util.Xrand.create (777 + tid) in
      for _ = 1 to per do
        let k = 1 + Tstm_util.Xrand.int g 64 in
        if Tstm_util.Xrand.bool g then ignore (add k) else ignore (remove k)
      done);
  let l = h.to_list () in
  check_bool "sorted unique" true
    (List.sort_uniq compare l = l);
  check_int "size consistent" (List.length l) (h.size ());
  check_int "invariants hold" (List.length l) (h.check_invariants ())

let suite_for make name =
  [
    Alcotest.test_case (name ^ ": basics") `Quick (sequential_basics make);
    Alcotest.test_case (name ^ ": overwrite") `Quick (overwrite_counts make);
    Alcotest.test_case (name ^ ": memory reclaim") `Quick
      (memory_reclaimed make);
    Alcotest.test_case (name ^ ": concurrent disjoint") `Quick
      (concurrent_disjoint make);
    Alcotest.test_case (name ^ ": concurrent churn") `Quick
      (concurrent_churn make);
    Alcotest.test_case (name ^ ": concurrent mixed") `Quick
      (concurrent_mixed_with_invariants make);
  ]

(* ------------------------------------------------------------------ *)
(* qcheck: random op sequences vs. the Set model                       *)
(* ------------------------------------------------------------------ *)

let model_prop make label =
  QCheck.Test.make
    ~name:(label ^ " matches Set model")
    ~count:40
    QCheck.(list (pair bool (int_range 1 50)))
    (fun ops ->
      let h = make () in
      let model = ref IS.empty in
      List.for_all
        (fun (is_add, k) ->
          if is_add then begin
            let expected = not (IS.mem k !model) in
            model := IS.add k !model;
            h.add k = expected
          end
          else begin
            let expected = IS.mem k !model in
            model := IS.remove k !model;
            h.remove k = expected
          end)
        ops
      && h.to_list () = IS.elements !model
      && h.check_invariants () = IS.cardinal !model)

let () =
  let unit_suites =
    List.map
      (fun make ->
        let h = make () in
        (h.h_name, suite_for make h.h_name))
      harness_makers
  in
  let prop_suite =
    ( "model-props",
      List.map
        (fun make ->
          let h = make () in
          QCheck_alcotest.to_alcotest (model_prop make h.h_name))
        harness_makers )
  in
  let finger_suite =
    ( "list-fingers",
      Ts_wb.finger_tests @ Ts_wt.finger_tests @ Tl2_b.finger_tests )
  in
  Alcotest.run "tstm_structures" (unit_suites @ [ prop_suite; finger_suite ])
