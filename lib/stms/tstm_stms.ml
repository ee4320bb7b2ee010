(* The one STM list: each family library's packaging functor, applied to
   both runtimes and registered under one name. *)

module Sim = Tstm_runtime.Runtime_sim
module Real = Tstm_runtime.Runtime_real
module Registry = Tstm_tm.Registry
module type STM = Tstm_tm.Tm_intf.STM

let () =
  Registry.register ~aliases:[ "wb" ] ~label:"TinySTM-WB"
    ~sim:(module Tinystm.Stm.Write_back (Sim) : STM)
    ~real:(module Tinystm.Stm.Write_back (Real) : STM)
    ();
  Registry.register ~aliases:[ "wt" ] ~label:"TinySTM-WT"
    ~sim:(module Tinystm.Stm.Write_through (Sim) : STM)
    ~real:(module Tinystm.Stm.Write_through (Real) : STM)
    ();
  Registry.register ~label:"TL2"
    ~sim:(module Tstm_tl2.Stm.Make (Sim) : STM)
    ~real:(module Tstm_tl2.Stm.Make (Real) : STM)
    ();
  Registry.register ~label:"NOrec"
    ~sim:(module Tstm_norec.Stm.Make (Sim) : STM)
    ~real:(module Tstm_norec.Stm.Make (Real) : STM)
    ()
