module Make (R : Tstm_runtime.Runtime_intf.S) : sig
  val peek : R.sarray -> int -> int
  val make : int -> R.sarray
end
