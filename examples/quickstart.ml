(* Quickstart: money transfers between accounts, running real transactions
   on real OCaml domains.

     dune exec examples/quickstart.exe

   The pattern: create a TinySTM instance for a runtime, allocate words in
   its memory arena, and wrap reads/writes in [atomically].  Conflicting
   transfers abort and retry automatically; the total balance is invariant. *)

let kind = Tstm_runtime.Shm.Domains (* the instance's runtime, and its threads' *)
module Stm = Tinystm

let n_accounts = 32
let initial_balance = 1_000
let n_domains = 4
let transfers_per_domain = 25_000

let () =
  let stm =
    Stm.create ~kind
      ~config:(Tinystm.Config.make ~n_locks:1024 ())
      ~memory_words:4096 ()
  in
  (* Allocate and initialise the accounts in one transaction. *)
  let accounts =
    Stm.atomically stm (fun tx ->
        let base = Stm.alloc tx n_accounts in
        for i = 0 to n_accounts - 1 do
          Stm.write tx (base + i) initial_balance
        done;
        base)
  in
  let transfer tx ~src ~dst amount =
    let s = Stm.read tx (accounts + src) in
    if s >= amount then begin
      Stm.write tx (accounts + src) (s - amount);
      Stm.write tx (accounts + dst) (Stm.read tx (accounts + dst) + amount)
    end
  in
  let t0 = Unix.gettimeofday () in
  Tstm_runtime.Runtime.run kind ~nthreads:n_domains (fun tid ->
      let g = Tstm_util.Xrand.create (2024 + tid) in
      for _ = 1 to transfers_per_domain do
        let src = Tstm_util.Xrand.int g n_accounts
        and dst = Tstm_util.Xrand.int g n_accounts
        and amount = 1 + Tstm_util.Xrand.int g 50 in
        if src <> dst then
          Stm.atomically stm (fun tx -> transfer tx ~src ~dst amount)
      done);
  let dt = Unix.gettimeofday () -. t0 in
  let total =
    Stm.atomically ~read_only:true stm (fun tx ->
        let sum = ref 0 in
        for i = 0 to n_accounts - 1 do
          sum := !sum + Stm.read tx (accounts + i)
        done;
        !sum)
  in
  let stats = Stm.stats stm in
  Printf.printf "%d domains x %d transfers in %.2fs (%.0f txs/s)\n" n_domains
    transfers_per_domain dt
    (float_of_int stats.Tstm_tm.Tm_stats.commits /. dt);
  Printf.printf "commits=%d aborts=%d\n" stats.Tstm_tm.Tm_stats.commits
    (Tstm_tm.Tm_stats.aborts stats);
  Printf.printf "total balance: %d (expected %d) -> %s\n" total
    (n_accounts * initial_balance)
    (if total = n_accounts * initial_balance then "OK" else "BROKEN!");
  assert (total = n_accounts * initial_balance)
