module Intf = Tstm_tm.Tm_intf
include Tl2

let family = "tl2"

let capabilities =
  {
    Intf.lock_array = true;
    dynamic_reconfig = false;
    read_only_fastpath = true;
    snapshot_extension = false;
  }

let create ~kind ?(tuning = Intf.default_tuning) ?max_retries ?cm ?watchdog
    ~memory_words () =
  (* TL2 has no hierarchical array; those knobs are ignored. *)
  Tl2.create ~kind ~n_locks:tuning.Intf.n_locks ~shifts:tuning.Intf.shifts
    ?max_retries ?cm ?watchdog ~memory_words ()

let configure _ _ =
  Intf.capability_error ~stm:name ~capability:"dynamic_reconfig"

let live_words t = Tstm_vmm.Vmm.live_words (memory t)
