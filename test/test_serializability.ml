(* Serializability replay checker.

   Threads run random set operations concurrently through
   [Tinystm.atomically_stamped], logging (timestamp, operation, result).
   The STM's time base promises that sorting the committed history by
   timestamp — updates before lock-free transactions at equal stamps —
   yields an equivalent serial execution.  We replay that serial order
   against a plain [Set.Make(Int)] model and demand that every logged
   result matches, and that the final structure contents equal the model.

   This is the strongest end-to-end correctness statement in the suite: a
   single lost update, dirty read, broken snapshot or wrong timestamp makes
   the replay diverge.  It runs on the deterministic simulator and on real
   domains, over both write strategies, the hierarchical fast path and TL2's
   workloads' structures. *)

module IS = Set.Make (Int)

type op = Add of int | Remove of int | Contains of int

type event = {
  stamp : int;
  is_update : bool;
  op : op;
  result : bool;
}

let check_bool = Alcotest.(check bool)

module Run (R : Tstm_runtime.Runtime_intf.S) () = struct
  module Ts = Tinystm
  module Rb = Tstm_structures.Rbtree.Make (Ts)
  module Ll = Tstm_structures.Intset_list.Make (Ts)

  let replay events final =
    (* Updates sort before lock-free transactions at equal stamps: a
       lock-free transaction with snapshot bound v observed every update
       with commit version <= v. *)
    let ordered =
      List.sort
        (fun a b ->
          match compare a.stamp b.stamp with
          | 0 -> compare b.is_update a.is_update
          | c -> c)
        events
    in
    let model = ref IS.empty in
    List.iter
      (fun e ->
        let expected =
          match e.op with
          | Add k ->
              let fresh = not (IS.mem k !model) in
              if fresh then model := IS.add k !model;
              fresh
          | Remove k ->
              let present = IS.mem k !model in
              if present then model := IS.remove k !model;
              present
          | Contains k -> IS.mem k !model
        in
        if expected <> e.result then
          Alcotest.failf "replay diverged at stamp %d (%s)" e.stamp
            (match e.op with
            | Add k -> Printf.sprintf "add %d" k
            | Remove k -> Printf.sprintf "remove %d" k
            | Contains k -> Printf.sprintf "contains %d" k))
      ordered;
    check_bool "final contents match the serial model" true
      (final = IS.elements !model)

  let run_history ~strategy ~hierarchy ~structure ~nthreads ~per () =
    let stm =
      Ts.create ~kind:R.kind
        ~config:(Tinystm.Config.make ~n_locks:256 ~hierarchy ~strategy ())
        ~memory_words:200_000 ()
    in
    let with_set :
        ((Ts.tx -> op -> bool) -> (Ts.tx -> int list) -> unit) -> unit =
     fun k ->
      match structure with
      | `Rbtree ->
          let s = Rb.create stm in
          k
            (fun tx -> function
              | Add key -> Rb.add s tx key
              | Remove key -> Rb.remove s tx key
              | Contains key -> Rb.contains s tx key)
            (fun tx -> Rb.to_list s tx)
      | `List ->
          let s = Ll.create stm in
          k
            (fun tx -> function
              | Add key -> Ll.add s tx key
              | Remove key -> Ll.remove s tx key
              | Contains key -> Ll.contains s tx key)
            (fun tx -> Ll.to_list s tx)
    in
    with_set (fun apply to_list ->
        let logs = Array.make nthreads [] in
        R.run ~nthreads (fun tid ->
            let g = Tstm_util.Xrand.create (9100 + tid) in
            for _ = 1 to per do
              let key = 1 + Tstm_util.Xrand.int g 48 in
              let op =
                match Tstm_util.Xrand.int g 3 with
                | 0 -> Add key
                | 1 -> Remove key
                | _ -> Contains key
              in
              (* Wrap so we can tell lock-free transactions (failed updates,
                 lookups) from real updates: an update that changed nothing
                 acquires no locks and carries its snapshot stamp. *)
              let (result, wrote), stamp =
                Ts.atomically_stamped stm (fun tx ->
                    let r = apply tx op in
                    let wrote =
                      match op with
                      | Add _ | Remove _ -> r
                      | Contains _ -> false
                    in
                    (r, wrote))
              in
              logs.(tid) <-
                { stamp; is_update = wrote; op; result } :: logs.(tid)
            done);
        let events = List.concat (Array.to_list logs) in
        let final = Ts.atomically stm to_list in
        replay events final)

  let tests =
    [
      Alcotest.test_case "rbtree / write-back" `Quick
        (run_history ~strategy:Tinystm.Config.Write_back ~hierarchy:1
           ~structure:`Rbtree ~nthreads:6 ~per:120);
      Alcotest.test_case "rbtree / write-through" `Quick
        (run_history ~strategy:Tinystm.Config.Write_through ~hierarchy:1
           ~structure:`Rbtree ~nthreads:6 ~per:120);
      Alcotest.test_case "rbtree / hierarchical h=8" `Quick
        (run_history ~strategy:Tinystm.Config.Write_back ~hierarchy:8
           ~structure:`Rbtree ~nthreads:6 ~per:120);
      Alcotest.test_case "rbtree / hierarchical h=16" `Quick
        (run_history ~strategy:Tinystm.Config.Write_back ~hierarchy:16
           ~structure:`Rbtree ~nthreads:6 ~per:120);
      Alcotest.test_case "list / write-through h=16" `Quick
        (run_history ~strategy:Tinystm.Config.Write_through ~hierarchy:16
           ~structure:`List ~nthreads:4 ~per:80);
      Alcotest.test_case "list / write-back" `Quick
        (run_history ~strategy:Tinystm.Config.Write_back ~hierarchy:1
           ~structure:`List ~nthreads:4 ~per:80);
      Alcotest.test_case "list / write-through h=4" `Quick
        (run_history ~strategy:Tinystm.Config.Write_through ~hierarchy:4
           ~structure:`List ~nthreads:4 ~per:80);
    ]
end

module Sim = Run (Tstm_runtime.Runtime_sim) ()
module Real = Run (Tstm_runtime.Runtime_real) ()

let () =
  Alcotest.run "serializability"
    [ ("simulated", Sim.tests); ("domains", Real.tests) ]
