(** TL2 packaged as a registry {!Tstm_tm.Tm_intf.STM} over a runtime:
    family ["tl2"], a lock array but no dynamic re-tuning and no snapshot
    extension.  The harness instantiates it once per runtime and
    registers the result. *)

module Make (R : Tstm_runtime.Runtime_intf.S) : Tstm_tm.Tm_intf.STM
