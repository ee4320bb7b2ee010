module Make (R : Tstm_runtime.Runtime_intf.S) : sig (* lint: expect layering *)
  val make : int -> Tstm_runtime.Shm.t
end
