val release : int -> int -> unit
val step : int -> int -> unit
val commit : int -> int -> int -> unit
val rollback : int -> int -> unit
