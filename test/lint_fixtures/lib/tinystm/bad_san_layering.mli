val step : int -> int -> unit
