(* Violating fixture: an entry point that can acquire an orec but
   reaches neither a release nor an abort. *)
let step probing cpu lock = (* lint: expect stm-lock-pairing *)
  if probing then Probe.lock_acquired ~cpu ~lock (* lint: expect tap-pairing *)
