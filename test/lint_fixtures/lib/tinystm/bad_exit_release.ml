(* Violating fixture: every acquiring path aborts, so the entry-point check
   is satisfied, but the exits that must release do not. *)
let acquire cpu lock =
  Probe.lock_acquired ~cpu ~lock;
  raise (Abort_exn 0)

let release cpu lock = Probe.lock_released ~cpu ~lock

let commit cpu wv = (* lint: expect stm-lock-pairing *)
  Probe.commit_publish ~cpu ~wv

let rollback cpu = (* lint: expect stm-lock-pairing *)
  Probe.tx_abort ~cpu
