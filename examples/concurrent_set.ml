(* Concurrent transactional sets on real domains: the same workload run over
   all four data structures and all three STM variants.

     dune exec examples/concurrent_set.exe

   Shows how the structure functors compose with any TM implementation and
   how structure choice dominates performance (compare the list, where every
   operation traverses from the head, with the tree and hash set). *)

module R = Tstm_runtime.Runtime_real

let n_domains = 4
let ops_per_domain = 5_000
let size = 512

module Bench (T : Tstm_tm.Tm_intf.TM) = struct
  module D = Tstm_harness.Driver.Make (R) (T)

  let run stm label structure =
    let spec =
      Tstm_harness.Workload.make ~structure ~initial_size:size
        ~update_pct:20.0 ~nthreads:n_domains ~duration:1.0 ()
    in
    let ops = D.make_structure stm structure in
    D.populate stm ops spec;
    T.reset_stats stm;
    let t0 = Unix.gettimeofday () in
    R.run ~nthreads:n_domains (fun tid ->
        let g = Tstm_util.Xrand.create (tid * 7919) in
        let pending = ref None in
        for _ = 1 to ops_per_domain do
          let p = Tstm_util.Xrand.float g *. 100.0 in
          let draw () = 1 + Tstm_util.Xrand.int g spec.Tstm_harness.Workload.key_range in
          if p < 20.0 then (
            match !pending with
            | Some v ->
                ignore (T.atomically stm (fun tx -> ops.D.op_remove tx v));
                pending := None
            | None ->
                let v =
                  T.atomically stm (fun tx ->
                      let rec go () =
                        let v = draw () in
                        if ops.D.op_add tx v then v else go ()
                      in
                      go ())
                in
                pending := Some v)
          else
            ignore
              (T.atomically ~read_only:true stm (fun tx ->
                   ops.D.op_contains tx (draw ())))
        done);
    let dt = Unix.gettimeofday () -. t0 in
    let s = T.stats stm in
    Printf.printf "  %-22s %10.0f txs/s  (commits=%d aborts=%d)\n" label
      (float_of_int s.Tstm_tm.Tm_stats.commits /. dt)
      s.Tstm_tm.Tm_stats.commits
      (Tstm_tm.Tm_stats.aborts s)
end

module Ts = Tinystm
module Tl = Tstm_tl2.Tl2
module B_ts = Bench (Ts)
module B_tl = Bench (Tl)

let () =
  List.iter
    (fun structure ->
      let name = Tstm_harness.Workload.structure_to_string structure in
      Printf.printf "%s (%d elements, 20%% updates, %d domains):\n" name size
        n_domains;
      List.iter
        (fun strategy ->
          let stm =
            Ts.create ~kind:R.kind
              ~config:(Tinystm.Config.make ~n_locks:4096 ~strategy ())
              ~memory_words:(size * 32) ()
          in
          B_ts.run stm
            ("tinystm-" ^ Tinystm.Config.strategy_to_string strategy)
            structure)
        [ Tinystm.Config.Write_back; Tinystm.Config.Write_through ];
      let stm =
        Tl.create ~kind:R.kind ~n_locks:4096 ~memory_words:(size * 32) ()
      in
      B_tl.run stm "tl2" structure)
    [
      Tstm_harness.Workload.List;
      Tstm_harness.Workload.Rbtree;
      Tstm_harness.Workload.Skiplist;
      Tstm_harness.Workload.Hashset;
    ]
