val load : int Atomic.t -> int
