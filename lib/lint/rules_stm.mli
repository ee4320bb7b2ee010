(** STM-protocol rules over the intra-module call graph and the library
    DAG:

    - [stm-lock-pairing] (lib/tinystm, lib/tl2, lib/norec, and the
      shared transaction core in lib/tm): every entry point (a
      function no other function in the module references) from which an
      orec acquire ([San.lock_acquire]) is reachable must also reach a
      release ([San.lock_release]) or an abort ([San.tx_abort] /
      [Abort_exn]).
    - [vmm-charge] (the same directories plus lib/structures): raw Vmm word
      accesses ([V.load]/[V.store]) are only reachable from entry points
      that charge Sim_sched cycles.
    - [tap-pairing] (lib): sanitizer/tap producer hooks come in pairs per
      module (acquire/release, tx_begin/tx_exit, fence entry/exit,
      suspend/resume, vmm_alloc/vmm_free).
    - [layering] (whole repo): the declared library DAG, checked against
      both source module references and [dune] library stanzas; and no
      module in lib/vmm, lib/tm, lib/tinystm, lib/tl2 or lib/norec names
      [Runtime], [Runtime_sim] or [Runtime_real]. *)

type layer = {
  dir : string;
  root_module : string;
  lib_name : string;
  allowed : string list;
}

val layers : layer list
(** The declared architecture.  A new library under lib/ must be
    registered here before anything may depend on it. *)

val rules : Rule.t list
