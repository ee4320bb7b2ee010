let kind = Shm.Domains

(* Kept for perfbench, which builds and accesses its micro-benchmark array
   through this module; everything else calls [Shm]. *)
let sarray_make = Shm.make Domains
let get = Shm.get
let cas = Shm.cas
let fetch_add = Shm.fetch_add
let tid = Shm.tid

(* Worker-domain pool.

   Domain.spawn costs a full runtime-system handshake (~tens of
   microseconds plus a minor-heap's worth of allocation), which the bench
   harness would pay per repetition per thread.  Instead domains are
   spawned once, parked on a condition variable, and handed one job per
   [run]; the pool grows on demand and is torn down by [at_exit]. *)

type worker = {
  mutex : Mutex.t;
  cond : Condition.t;
  mutable job : (unit -> unit) option;
  mutable busy : bool;  (* a submitted job has not yet finished *)
  mutable error : exn option;  (* exception the last job died with *)
  mutable shutdown : bool;
  mutable domain : unit Domain.t option;  (* None until spawned *)
}

let worker_loop w () =
  let rec loop () =
    Mutex.lock w.mutex;
    while w.job = None && not w.shutdown do
      Condition.wait w.cond w.mutex
    done;
    if w.shutdown then Mutex.unlock w.mutex
    else begin
      let f = match w.job with Some f -> f | None -> assert false in
      w.job <- None;
      Mutex.unlock w.mutex;
      let err = (try f (); None with e -> Some e) in
      Mutex.lock w.mutex;
      w.error <- err;
      w.busy <- false;
      Condition.broadcast w.cond;
      Mutex.unlock w.mutex;
      loop ()
    end
  in
  loop ()

let fresh_worker () =
  let w =
    {
      mutex = Mutex.create ();
      cond = Condition.create ();
      job = None;
      busy = false;
      error = None;
      shutdown = false;
      domain = None;
    }
  in
  w.domain <- Some (Domain.spawn (worker_loop w));
  w

(* The pool itself is only ever touched by the orchestrating thread ([run]
   is not reentrant), so a plain growable list suffices. *)
let pool : worker list ref = ref []
let in_run = ref false

let ensure_workers n =
  let have = List.length !pool in
  if n > have then
    pool := !pool @ List.init (n - have) (fun _ -> fresh_worker ());
  (* First [n] workers, oldest first, so repeated same-width runs reuse the
     same domains (and their warmed DLS state). *)
  List.filteri (fun i _ -> i < n) !pool

let submit w f =
  Mutex.lock w.mutex;
  w.job <- Some f;
  w.busy <- true;
  w.error <- None;
  Condition.broadcast w.cond;
  Mutex.unlock w.mutex

let await w =
  Mutex.lock w.mutex;
  while w.busy do
    Condition.wait w.cond w.mutex
  done;
  let err = w.error in
  w.error <- None;
  Mutex.unlock w.mutex;
  err

let shutdown_pool () =
  let ws = !pool in
  pool := [];
  List.iter
    (fun w ->
      Mutex.lock w.mutex;
      w.shutdown <- true;
      Condition.broadcast w.cond;
      Mutex.unlock w.mutex)
    ws;
  List.iter (fun w -> Option.iter Domain.join w.domain) ws

let () = at_exit shutdown_pool

let run ~nthreads body =
  if nthreads < 1 then invalid_arg "Runtime_real.run: nthreads < 1";
  if !in_run then invalid_arg "Runtime_real.run: not reentrant";
  in_run := true;
  Fun.protect
    ~finally:(fun () -> in_run := false)
    (fun () ->
      let job i () =
        Shm.set_real_tid i;
        body i
      in
      let workers = ensure_workers (nthreads - 1) in
      List.iteri (fun i w -> submit w (job (i + 1))) workers;
      (* Worker 0 runs on the orchestrating domain.  Whatever happens to
         it, every submitted job must still be awaited — otherwise the
         next [run] would race a domain still executing the previous
         body over the same shared arrays. *)
      let err0 = (try job 0 (); None with e -> Some e) in
      let errs = List.map await workers in
      match List.find_map Fun.id (err0 :: errs) with
      | Some e -> raise e
      | None -> ())

(* ---------------------------------------------------------------------- *)
(* Self-healing run: heartbeat monitoring + respawn-and-requeue            *)
(* ---------------------------------------------------------------------- *)

module Plan = Tstm_chaos.Plan

type heal_report = {
  crashes_healed : int;
  hangs_detected : int;
  hangs_recovered : int;
  requeues : int;
}

let no_heal =
  { crashes_healed = 0; hangs_detected = 0; hangs_recovered = 0; requeues = 0 }

let heal_emit ~tid action =
  if Tstm_obs.Sink.enabled () then
    Tstm_obs.Sink.emit
      ~ts:(Tstm_obs.Monotonic.now_ns ())
      ~cpu:tid
      (Tstm_obs.Event.Pool_heal { action; tid })

(* Swap a replacement into the global pool so [at_exit] joins the live
   domain, not the one we already joined. *)
let replace_worker old fresh =
  pool := List.map (fun w -> if w == old then fresh else w) !pool

let run_healed ?(hang_timeout_s = 0.05) ?(poll_s = 0.001) ?(max_requeues = 128)
    ~nthreads body =
  if nthreads < 1 then invalid_arg "Runtime_real.run_healed: nthreads < 1";
  if !in_run then invalid_arg "Runtime_real.run_healed: not reentrant";
  in_run := true;
  Fun.protect ~finally:(fun () -> in_run := false) @@ fun () ->
  let job i () =
    Shm.set_real_tid i;
    (* One explicit heartbeat at job start, so a worker that crashes or
       hangs before its first linearization point is still monitored. *)
    Plan.tick ~tid:i;
    body i
  in
  (* Unlike [run], the orchestrating domain is a supervisor, not worker 0:
     it has to keep polling heartbeats while every worker runs, so all
     [nthreads] jobs go to pool domains. *)
  let workers = Array.of_list (ensure_workers nthreads) in
  let requeued = Array.make nthreads 0 in
  let finished = Array.make nthreads false in
  let errors = Array.make nthreads None in
  let hanging = Array.make nthreads false in
  let crashes = ref 0 in
  let hangs = ref 0 in
  let recovered = ref 0 in
  let requeues = ref 0 in
  Plan.clear_ticks ();
  Array.iteri (fun i w -> submit w (job i)) workers;
  let timeout_ns = int_of_float (hang_timeout_s *. 1e9) in
  let all_done () = Array.for_all Fun.id finished in
  while not (all_done ()) do
    for i = 0 to nthreads - 1 do
      if not finished.(i) then begin
        let w = workers.(i) in
        Mutex.lock w.mutex;
        let busy = w.busy in
        let err = w.error in
        if not busy then w.error <- None;
        Mutex.unlock w.mutex;
        if not busy then begin
          if hanging.(i) then begin
            hanging.(i) <- false;
            incr recovered;
            heal_emit ~tid:i "hang-recovered"
          end;
          match err with
          | Some (Plan.Injected_crash _ as e) ->
              (* The job died of an injected crash.  The parked worker is
                 idle, but the model is a dead domain: shut it down, join
                 it, spawn a replacement, requeue the job.  The requeue
                 budget is a safety valve against an unbounded plan. *)
              if requeued.(i) >= max_requeues then begin
                finished.(i) <- true;
                errors.(i) <- Some e
              end
              else begin
                requeued.(i) <- requeued.(i) + 1;
                incr requeues;
                Mutex.lock w.mutex;
                w.shutdown <- true;
                Condition.broadcast w.cond;
                Mutex.unlock w.mutex;
                Option.iter Domain.join w.domain;
                let w' = fresh_worker () in
                replace_worker w w';
                workers.(i) <- w';
                incr crashes;
                heal_emit ~tid:i "crash-respawn";
                submit w' (job i)
              end
          | err ->
              finished.(i) <- true;
              errors.(i) <- err
        end
        else begin
          (* Busy: compare the heartbeat against the stall threshold.
             Detection is advisory — an injected hang is a bounded spin
             that deliberately stops ticking, and the worker resumes on
             its own — so the monitor records the detect/recover pair
             rather than killing a live domain. *)
          let last = Plan.last_tick ~tid:i in
          let stale =
            last >= 0 && Tstm_obs.Monotonic.now_ns () - last > timeout_ns
          in
          if stale && not hanging.(i) then begin
            hanging.(i) <- true;
            incr hangs;
            heal_emit ~tid:i "hang-detected"
          end
          else if (not stale) && hanging.(i) then begin
            hanging.(i) <- false;
            incr recovered;
            heal_emit ~tid:i "hang-recovered"
          end
        end
      end
    done;
    if not (all_done ()) then Unix.sleepf poll_s
  done;
  (* Every job has been awaited; propagate the first error in thread-id
     order (same contract as [run]). *)
  (match Array.to_list errors |> List.find_map Fun.id with
  | Some e -> raise e
  | None -> ());
  {
    crashes_healed = !crashes;
    hangs_detected = !hangs;
    hangs_recovered = !recovered;
    requeues = !requeues;
  }

let now () = Tstm_obs.Monotonic.now_s ()
let now_cycles () = Tstm_obs.Monotonic.now_ns ()
