(* Clean fixture: the acquiring path reaches a release through the
   intra-module call graph, and so do the commit and rollback exits. *)
let release cpu lock = Probe.lock_released ~cpu ~lock

let step cpu lock =
  Probe.lock_acquired ~cpu ~lock;
  release cpu lock

let commit cpu lock wv =
  Probe.commit_publish ~cpu ~wv;
  release cpu lock

let rollback cpu lock =
  Probe.tx_abort ~cpu;
  release cpu lock
