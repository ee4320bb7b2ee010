(* The one STM list: each family's packaging, registered once; the
   registry binds it to both runtimes. *)

module Registry = Tstm_tm.Registry

let () =
  Registry.register ~aliases:[ "wb" ] ~label:"TinySTM-WB"
    (module Tinystm.Stm.Write_back);
  Registry.register ~aliases:[ "wt" ] ~label:"TinySTM-WT"
    (module Tinystm.Stm.Write_through);
  Registry.register ~label:"TL2" (module Tstm_tl2.Stm);
  Registry.register ~label:"NOrec" (module Tstm_norec.Stm)
