(** Registers every packaged STM in {!Tstm_tm.Registry}, once each, at
    startup ([-linkall]: depending on the library is enough),
    in presentation order: tinystm-wb, tinystm-wt, tl2, norec. *)
