(* Clean fixture: construction stays on the runtime argument, the access
   is a direct Shm call. *)
module Make (R : Tstm_runtime.Runtime_intf.S) = struct
  let peek a i = Tstm_runtime.Shm.get a i
  let make n = R.sarray_make n 0
end
