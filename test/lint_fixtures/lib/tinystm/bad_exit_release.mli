val acquire : int -> int -> unit
val release : int -> int -> unit
val commit : int -> int -> unit
val rollback : int -> unit
