module Intf = Tstm_tm.Tm_intf

module Make (R : Tstm_runtime.Runtime_intf.S) : Intf.STM = struct
  module No = Norec.Make (R)
  include No

  let family = "norec"

  let capabilities =
    {
      Intf.lock_array = false;
      dynamic_reconfig = false;
      read_only_fastpath = true;
      snapshot_extension = true;
    }

  let create ?tuning:_ ?max_retries ?cm ?watchdog ~memory_words () =
    (* NOrec has no lock array and no hierarchy: the whole tuning record
       is inert (capabilities.lock_array = false). *)
    No.create ?max_retries ?cm ?watchdog ~memory_words ()

  let configure _ _ =
    Intf.capability_error ~stm:name ~capability:"dynamic_reconfig"

  let live_words t = V.live_words (memory t)
end
