(* Violating fixture in the transaction core's directory: the driver entry
   point reaches an orec acquire but neither a release nor an abort (the
   release below is a separate entry point it never calls). *)
let attempt cpu lock = (* lint: expect stm-lock-pairing *)
  Probe.lock_acquired ~cpu ~lock

let release cpu lock = Probe.lock_released ~cpu ~lock
