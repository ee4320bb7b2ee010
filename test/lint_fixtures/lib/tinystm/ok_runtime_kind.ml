(* Clean fixture: a family builds its arrays from the kind its [create]
   is given. *)
let make ~kind n = Tstm_runtime.Shm.make kind n 0
