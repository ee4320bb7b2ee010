val step : int -> unit
