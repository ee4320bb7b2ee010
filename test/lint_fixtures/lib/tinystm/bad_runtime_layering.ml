(* Violating fixture: a family functor over the runtime signature, where
   the kind its [create] is given would do. *)
module Make (R : Tstm_runtime.Runtime_intf.S) = struct (* lint: expect layering *)
  let make n = Tstm_runtime.Shm.make R.kind n 0
end
