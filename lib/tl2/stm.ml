module Intf = Tstm_tm.Tm_intf

module Make (R : Tstm_runtime.Runtime_intf.S) : Intf.STM = struct
  module Tl = Tl2.Make (R)
  include Tl

  let family = "tl2"

  let capabilities =
    {
      Intf.lock_array = true;
      dynamic_reconfig = false;
      read_only_fastpath = true;
      snapshot_extension = false;
    }

  let create ?(tuning = Intf.default_tuning) ?max_retries ?cm ?watchdog
      ~memory_words () =
    (* TL2 has no hierarchical array; those knobs are ignored. *)
    Tl.create ~n_locks:tuning.Intf.n_locks ~shifts:tuning.Intf.shifts
      ?max_retries ?cm ?watchdog ~memory_words ()

  let configure _ _ =
    Intf.capability_error ~stm:name ~capability:"dynamic_reconfig"

  let live_words t = V.live_words (memory t)
end
