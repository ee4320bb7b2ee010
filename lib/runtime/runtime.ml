let run : Shm.kind -> nthreads:int -> (int -> unit) -> unit = function
  | Simulated -> Runtime_sim.run
  | Domains -> Runtime_real.run

let now : Shm.kind -> unit -> float = function
  | Simulated -> Runtime_sim.now
  | Domains -> Runtime_real.now

let now_cycles : Shm.kind -> unit -> int = function
  | Simulated -> Runtime_sim.now_cycles
  | Domains -> Runtime_real.now_cycles
