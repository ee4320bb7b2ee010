(* Hot-spot RMW storm: the progress-guarantee workload.

   Threads run in pairs; each pair hammers the same two words with
   read-modify-write transactions, and the two threads of a pair touch the
   words in opposite orders.  Under a contention manager with no aborter
   preference (suicide) the pair can shadow-box forever — exactly the
   livelock shape the watchdog exists to detect.  Priority-based managers
   (karma, greedy) break the symmetry and every thread completes its commit
   quota.

   Everything is deterministic from the spec; a virtual-time deadline bounds
   livelocked runs, so even a run that makes no progress terminates. *)

module Shm = Tstm_runtime.Shm
module Registry = Tstm_tm.Registry
module Cm = Tstm_cm.Cm
module Watchdog = Tstm_runtime.Watchdog

type spec = {
  stm : string;
  cm : string;
  nthreads : int;
  quota : int;
  watchdog : bool;
  wd_window : int;
  wd_starve : int;
  wd_calm : int;
  seed : int;
}

(* The default zero-commit window is deliberately tight: the storm's retry
   loop burns only a few hundred cycles per attempt, so the watchdog's
   repo-wide 50k-cycle default would let the starvation ceiling fire first
   every time.  1024 cycles makes the livelock detector the one that trips
   — the signal this workload exists to demonstrate. *)
let default =
  {
    stm = "tinystm-wb";
    cm = "suicide";
    nthreads = 4;
    quota = 32;
    watchdog = false;
    wd_window = 1024;
    wd_starve = 64;
    wd_calm = 2;
    seed = 0;
  }

type report = {
  commits : int array;
  completed : bool;
  livelocks : int;
  starvations : int;
  switches : int;
  escalations : int;
  killed : int;
  elapsed : float;
}

(* Virtual seconds before a thread gives up. *)
let deadline = 0.002

(* The deadline escape: raised from inside the transaction body (before any
   transactional access, so there is nothing to undo even when irrevocable);
   [atomically] rolls back and lets it propagate. *)
exception Deadline

let run_one spec =
  if spec.nthreads < 2 then invalid_arg "Storm.run_one: need >= 2 threads";
  let policy =
    match Cm.of_string spec.cm with
    | Ok p -> p
    | Error msg -> invalid_arg ("Storm.run_one: " ^ msg)
  in
  let wd =
    if spec.watchdog then
      Some
        (Watchdog.create ~window:spec.wd_window
           ~starve_retries:spec.wd_starve ~recover_windows:spec.wd_calm ())
    else None
  in
  let (module M) = Registry.get spec.stm in
  let npairs = (spec.nthreads + 1) / 2 in
  let t =
    M.create ~cm:policy ?watchdog:wd ~memory_words:((npairs * 16) + 64) ()
  in
  let base =
    M.atomically t (fun tx ->
        let b = M.alloc tx (npairs * 16) in
        for i = 0 to (npairs * 16) - 1 do
          M.write tx (b + i) 0
        done;
        b)
  in
  let commits = Array.make spec.nthreads 0 in
  let elapsed = ref 0.0 in
  let now = Tstm_runtime.Runtime.now M.kind in
  Tstm_runtime.Runtime.run M.kind ~nthreads:spec.nthreads (fun tid ->
      (* Pair words live 8 words apart: distinct addresses, distinct locks
         under the default lock hash. *)
      let a = base + (16 * (tid / 2)) in
      let b = a + 8 in
      let first, second = if tid land 1 = 0 then (a, b) else (b, a) in
      (* A small deterministic per-thread stagger so threads do not start in
         artificial perfect phase; the livelock, when it happens, comes from
         the conflict pattern, not from the starting line. *)
      let g =
        Tstm_util.Xrand.create
          (Tstm_util.Bitops.mix ((spec.seed * 65599) + tid))
      in
      Shm.charge_local (Tstm_util.Xrand.int g 64);
      let t0 = now () in
      (try
         while commits.(tid) < spec.quota do
           ignore
             (M.atomically t (fun tx ->
                  if now () -. t0 >= deadline then raise Deadline;
                  let x = M.read tx first in
                  let y = M.read tx second in
                  M.write tx first (x + 1);
                  M.write tx second (y + 1);
                  x + y));
           commits.(tid) <- commits.(tid) + 1
         done
       with Deadline -> ());
      if now () > !elapsed then elapsed := now ());
  let stats = M.stats t in
  {
    commits;
    completed = Array.for_all (fun c -> c >= spec.quota) commits;
    livelocks = (match wd with None -> 0 | Some w -> Watchdog.livelocks w);
    starvations =
      (match wd with None -> 0 | Some w -> Watchdog.starvations w);
    switches = (match wd with None -> 0 | Some w -> Watchdog.switches w);
    escalations = stats.Tstm_tm.Tm_stats.escalations;
    killed = stats.Tstm_tm.Tm_stats.aborts_killed;
    elapsed = !elapsed;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "@[<h>storm: %s commits=[%s] livelocks=%d starvations=%d switches=%d \
     escalations=%d killed=%d elapsed=%.6fs@]"
    (if r.completed then "completed" else "INCOMPLETE")
    (String.concat ";" (Array.to_list (Array.map string_of_int r.commits)))
    r.livelocks r.starvations r.switches r.escalations r.killed r.elapsed
