(* Concurrent transactional sets on real domains: the same workload (the
   driver's paper mix, [Driver.step]) run over all four data structures and
   every registered STM.

     dune exec examples/concurrent_set.exe

   Shows how the structure functors compose with any TM implementation and
   how structure choice dominates performance (compare the list, where every
   operation traverses from the head, with the tree and hash set).  Each
   registry entry's [real] packaging builds its instances on domains, and
   the driver and [Runtime.run] take that runtime from the packaging's
   [kind]. *)

let n_domains = 4
let ops_per_domain = 5_000
let size = 512

let run (module M : Tstm_tm.Tm_intf.STM) label structure =
  let module D = Tstm_harness.Driver.Make (M) (M) in
  let spec =
    Tstm_harness.Workload.make ~structure ~initial_size:size ~update_pct:20.0
      ~nthreads:n_domains ~duration:1.0 ()
  in
  let stm =
    M.create
      ~tuning:{ Tstm_tm.Tm_intf.default_tuning with n_locks = 4096 }
      ~memory_words:(Tstm_harness.Workload.memory_words_for spec) ()
  in
  let ops = D.make_structure stm structure in
  D.populate stm ops spec;
  M.reset_stats stm;
  let t0 = Unix.gettimeofday () in
  Tstm_runtime.Runtime.run M.kind ~nthreads:n_domains (fun tid ->
      let g = Tstm_util.Xrand.create (D.thread_seed spec tid) in
      let ctx = D.thread_ctx spec tid and pending = ref None in
      for _ = 1 to ops_per_domain do
        D.step stm ops spec ctx g pending
      done);
  let dt = Unix.gettimeofday () -. t0 in
  let s = M.stats stm in
  Printf.printf "  %-22s %10.0f txs/s  (commits=%d aborts=%d)\n" label
    (float_of_int s.Tstm_tm.Tm_stats.commits /. dt)
    s.Tstm_tm.Tm_stats.commits
    (Tstm_tm.Tm_stats.aborts s)

let () =
  List.iter
    (fun structure ->
      let name = Tstm_harness.Workload.structure_to_string structure in
      Printf.printf "%s (%d elements, 20%% updates, %d domains):\n" name size
        n_domains;
      List.iter
        (fun (e : Tstm_tm.Registry.entry) ->
          run e.Tstm_tm.Registry.real e.Tstm_tm.Registry.name structure)
        (Tstm_tm.Registry.all ()))
    [
      Tstm_harness.Workload.List;
      Tstm_harness.Workload.Rbtree;
      Tstm_harness.Workload.Skiplist;
      Tstm_harness.Workload.Hashset;
    ]
