(* Violating fixture: a barrier reading shared memory through the
   functor's runtime argument instead of calling Shm directly. *)
module Make (R : Tstm_runtime.Runtime_intf.S) = struct
  let peek a i = R.get a i (* lint: expect runtime-direct *)
  let make n = R.sarray_make n 0
end
