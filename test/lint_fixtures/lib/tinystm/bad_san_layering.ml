(* Violating fixture: a family calling the sanitizer directly instead of
   through its probe event. *)
let step cpu lock = Tstm_san.San.lock_acquire ~cpu ~lock (* lint: expect layering *)
