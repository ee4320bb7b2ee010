(* The Vacation travel-reservation workload (STAMP-style, paper Fig. 7) on
   real OCaml domains, with a full consistency audit at the end.

     dune exec examples/vacation_demo.exe
*)

let kind = Tstm_runtime.Shm.Domains (* the instance's runtime, and its threads' *)
module Stm = Tinystm
module Vac = Tstm_vacation.Vacation.Make (Stm)

let n_domains = 4
let txs_per_domain = 10_000

let () =
  let spec =
    {
      Tstm_vacation.Vacation.default_spec with
      Tstm_vacation.Vacation.n_relations = 1024;
      n_customers = 1024;
    }
  in
  let stm =
    Stm.create ~kind
      ~config:(Tinystm.Config.make ~n_locks:(1 lsl 14) ~hierarchy:4 ())
      ~memory_words:(Tstm_vacation.Vacation.memory_words_for spec)
      ()
  in
  let v = Vac.create stm in
  Printf.printf "populating %d resources per table, %d customers...\n%!"
    spec.Tstm_vacation.Vacation.n_relations
    spec.Tstm_vacation.Vacation.n_customers;
  let v = Vac.populate v spec ~seed:2024 in
  Stm.reset_stats stm;
  let t0 = Unix.gettimeofday () in
  Tstm_runtime.Runtime.run kind ~nthreads:n_domains (fun tid ->
      let g = Tstm_util.Xrand.create (42 + tid) in
      for _ = 1 to txs_per_domain do
        Vac.client_step v spec g
      done);
  let dt = Unix.gettimeofday () -. t0 in
  let s = Stm.stats stm in
  Printf.printf
    "%d domains x %d transactions in %.2fs: %.0f txs/s (aborts: %d)\n"
    n_domains txs_per_domain dt
    (float_of_int s.Tstm_tm.Tm_stats.commits /. dt)
    (Tstm_tm.Tm_stats.aborts s);
  print_string "auditing reservation tables... ";
  Vac.check_consistency v;
  print_endline "consistent."
