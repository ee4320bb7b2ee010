(* Violating fixture: a family functor over a named runtime's [run], where
   the kind its [create] is given would do. *)
module Make (R : module type of Tstm_runtime.Runtime_sim) = struct (* lint: expect layering *)
  let run_all n body = R.run ~nthreads:n body
end
