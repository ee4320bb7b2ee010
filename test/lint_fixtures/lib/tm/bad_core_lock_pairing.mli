val attempt : int -> int -> unit
val release : int -> int -> unit
