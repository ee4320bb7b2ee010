module Intf = Tstm_tm.Tm_intf
include Norec

let family = "norec"

let capabilities =
  {
    Intf.lock_array = false;
    dynamic_reconfig = false;
    read_only_fastpath = true;
    snapshot_extension = true;
  }

let create ~kind ?tuning:_ ?max_retries ?cm ?watchdog ~memory_words () =
  (* NOrec has no lock array and no hierarchy: the whole tuning record
     is inert (capabilities.lock_array = false). *)
  Norec.create ~kind ?max_retries ?cm ?watchdog ~memory_words ()

let configure _ _ =
  Intf.capability_error ~stm:name ~capability:"dynamic_reconfig"

let live_words t = Tstm_vmm.Vmm.live_words (memory t)
