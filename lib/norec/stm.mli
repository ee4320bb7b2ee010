(** NOrec packaged as a registry {!Tstm_tm.Tm_intf.STM} over a runtime:
    family ["norec"], no lock array (one global sequence lock), no dynamic
    re-tuning, value-based snapshot extension.  The harness instantiates
    it once per runtime and registers the result. *)

module Make (R : Tstm_runtime.Runtime_intf.S) : Tstm_tm.Tm_intf.STM
