(** NOrec's registry packaging: family ["norec"], no lock array (one
    global sequence lock), no dynamic re-tuning, value-based snapshot
    extension.  {!Tstm_tm.Registry} registers it once and binds it to both
    runtimes. *)

include Tstm_tm.Tm_intf.PACKED
