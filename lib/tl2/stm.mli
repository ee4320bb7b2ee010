(** TL2's registry packaging: family ["tl2"], a lock array but no dynamic
    re-tuning and no snapshot extension.  {!Tstm_tm.Registry} registers
    it once and binds it to both runtimes. *)

include Tstm_tm.Tm_intf.PACKED
