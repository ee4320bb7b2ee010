let current_params = ref Cache_model.default
let glob = ref (Cache_model.create_global Cache_model.default)

let configure p =
  Cache_model.validate p;
  current_params := p;
  glob := Cache_model.create_global p

let params () = !current_params

let name = "sim"
let is_simulated = true

type sarray = Shm.t

let sarray_make len init =
  let p = !current_params in
  Shm.Sim
    { data = Array.make len init; cache = Cache_model.create !glob len; p;
      label = "" }

(* The per-access code lives in [Shm]; these are its names under this
   runtime. *)
let sarray_length = Shm.length
let get = Shm.get
let set = Shm.set
let cas = Shm.cas
let fetch_add = Shm.fetch_add
let sarray_label = Shm.label

(* Start every run with cold private caches so a result depends only on the
   experiment, not on what the process simulated before.  The run
   boundaries are real full synchronizations (fibers are forked and joined
   here), which the tap reports so a happens-before consumer can join its
   clocks. *)
let run ~nthreads body =
  Cache_model.reset_tags !glob;
  if Tap.enabled () then Tap.run_boundary ();
  Fun.protect
    ~finally:(fun () -> if Tap.enabled () then Tap.run_boundary ())
    (fun () -> Sim_sched.run ~nthreads body)

let tid = Shm.tid

let now () =
  float_of_int (Sim_sched.now_cycles ())
  /. (!current_params.Cache_model.clock_ghz *. 1e9)

let now_cycles = Sim_sched.now_cycles
let charge = Shm.charge
let charge_local = Shm.charge_local
let yield = Shm.yield
