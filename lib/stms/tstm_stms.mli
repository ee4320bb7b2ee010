(** Registers every packaged STM in {!Tstm_tm.Registry}, over both
    runtimes, at startup ([-linkall]: depending on the library is enough),
    in presentation order: tinystm-wb, tinystm-wt, tl2, norec. *)
