module Make (R : module type of Tstm_runtime.Runtime_sim) : sig (* lint: expect layering *)
  val run_all : int -> (int -> unit) -> unit
end
