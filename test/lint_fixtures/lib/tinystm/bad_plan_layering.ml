(* Violating fixture: a family consulting the perturbation plan directly
   instead of through its probe's [perturb]. *)
let step tid =
  ignore (Tstm_chaos.Plan.at Abort ~tid) (* lint: expect layering *)
