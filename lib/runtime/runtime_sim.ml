let kind = Shm.Simulated

(* Start every run with cold private caches so a result depends only on the
   experiment, not on what the process simulated before.  The run
   boundaries are real full synchronizations (fibers are forked and joined
   here), which the tap reports so a happens-before consumer can join its
   clocks. *)
let run ~nthreads body =
  if nthreads > Cache_model.max_cpus then
    invalid_arg
      (Printf.sprintf
         "Runtime_sim.run: %d threads, but the cache model tracks at most %d \
          CPUs"
         nthreads Cache_model.max_cpus);
  Shm.cold_caches ();
  if Tap.enabled () then Tap.run_boundary ();
  Fun.protect
    ~finally:(fun () -> if Tap.enabled () then Tap.run_boundary ())
    (fun () -> Sim_sched.run ~nthreads body)

let now () =
  float_of_int (Sim_sched.now_cycles ())
  /. ((Shm.params ()).Cache_model.clock_ghz *. 1e9)

let now_cycles = Sim_sched.now_cycles

(* Kept for perfbench, which reads the cost model and the thread id
   through this module. *)
let params = Shm.params
let tid = Shm.tid
