(* The transaction core shared by every STM family: one retry loop, one
   serial-irrevocable escalation, one quiescence fence and the per-thread
   bookkeeping around them.  A family supplies only what its algorithm
   decides (snapshot, commit, rollback, serial commit, log cleanup) as a
   [PROTOCOL]; its read and write barriers stay in the family and see the
   shared descriptor below directly.

   The order of every shared-memory access here is part of each family's
   simulated timing: moving one changes virtual time and every figure. *)

module G = Tstm_util.Growbuf
module Stats = Tm_stats
module Cm = Tstm_cm.Cm
module Shm = Tstm_runtime.Shm

(* Fixed bookkeeping costs (cycles) charged in the simulated runtime on top
   of the shared-memory access costs; no-ops on real hardware. *)
let c_tx_begin = 20
let c_tx_end = 20
let c_op = 4

(* Per-thread slots of the padded flag and CM arrays: one cache line each
   in the simulated runtime (8 words per line by default). *)
let flag_slot tid = (tid + 1) * 8

(* A watchdog can boost any policy to a kill-capable one, so its presence
   arms the priority plumbing too. *)
let cm_active ~cm ~watchdog = Cm.can_kill cm || watchdog <> None
let cm_words ~cm_active ~max_threads =
  if cm_active then flag_slot max_threads + 8 else 1

type ('t, 'p) tx = {
  owner : 't;
  tid : int;
  stats : Stats.t;
  rng : Tstm_util.Xrand.t;
  mutable in_tx : bool;
  mutable read_only : bool;
  mutable irrevocable : bool;
  mutable stamp : int;
  mutable eff_cm : Cm.policy;
  mutable work0 : int;
  mutable ticket : int;
  mutable alloc_fails : int;
  span : Probe.span;
  a_addr : G.t;
  a_size : G.t;
  f_addr : G.t;
  f_size : G.t;
  p : 'p;
}

let log_free d addr n =
  G.push d.f_addr addr;
  G.push d.f_size n

module type PROTOCOL = sig
  type t
  type desc
  type mem

  exception Abort_exn of Stats.abort_reason

  val name : string
  val rng_seed : int
  val memory : t -> mem
  val new_desc : t -> desc
  val begin_ : (t, desc) tx -> bool
  val commit : (t, desc) tx -> int
  val rollback : (t, desc) tx -> unit
  val serial_commit : (t, desc) tx -> int
  val cleanup : desc -> unit
  val roll_over : t -> unit
end

module Make
    (R : Tstm_runtime.Runtime_intf.S)
    (P : PROTOCOL with type mem = Tstm_vmm.Vmm.Make(R).t) =
struct
  module V = Tstm_vmm.Vmm.Make (R)
  module Watchdog = Tstm_runtime.Watchdog

  module Probe = struct
    include Probe
    include Probe.Make (R)
  end

  let module_name = String.capitalize_ascii P.name

  (* Consecutive allocation-failed aborts tolerated per [atomically] call
     before the transaction gives up with a typed [Tm_intf.Capacity]
     (retrying forever on a genuinely full arena would livelock; serial
     escalation cannot help because the fence does not free memory). *)
  let max_alloc_retries = 16

  type nonrec tx = (P.t, P.desc) tx

  type t = {
    fam : P.t;
    ctl : Shm.t;
    mode_slot : int;
    flags : Shm.t;
    prios : Shm.t;
    kill_flags : Shm.t option;
    descs : tx option array;
    max_threads : int;
    max_retries : int;
    cm : Cm.policy;
    watchdog : Watchdog.t option;
    cm_active : bool;
  }

  let make fam ~ctl ~mode_slot ~flags ~prios ?kill_flags ~max_threads
      ~max_retries ~cm ?watchdog () =
    Shm.label ctl "ctl";
    Shm.label flags "flags";
    Option.iter (fun k -> Shm.label k "cm-kill") kill_flags;
    Shm.label prios "cm-prio";
    {
      fam;
      ctl;
      mode_slot;
      flags;
      prios;
      kill_flags;
      descs = Array.make max_threads None;
      max_threads;
      max_retries = Cm.effective_max_retries cm max_retries;
      cm;
      watchdog;
      cm_active = cm_active ~cm ~watchdog;
    }

  let fam t = t.fam

  let new_tx t tid =
    {
      owner = t.fam;
      tid;
      stats = Stats.create ();
      rng = Tstm_util.Xrand.create (P.rng_seed + tid);
      in_tx = false;
      read_only = false;
      irrevocable = false;
      stamp = 0;
      eff_cm = t.cm;
      work0 = 0;
      ticket = 0;
      alloc_fails = 0;
      span = Probe.span ();
      a_addr = G.create 8;
      a_size = G.create 8;
      f_addr = G.create 8;
      f_size = G.create 8;
      p = P.new_desc t.fam;
    }

  let desc_for t =
    let tid = Shm.tid () in
    if tid >= t.max_threads then
      invalid_arg (module_name ^ ": thread id exceeds max_threads");
    match t.descs.(tid) with
    | Some d -> d
    | None ->
        let d = new_tx t tid in
        t.descs.(tid) <- Some d;
        d

  (* ------------------------------------------------------------------ *)
  (* Quiescence fence (escalation, clock roll-over, re-tuning)           *)
  (* ------------------------------------------------------------------ *)

  (* Threads raise a private padded flag before transacting and re-check the
     fence mode afterwards (Dekker-style: sequentially consistent atomics on
     both sides), so an initiator that saw every flag down owns a quiescent
     instance. *)

  let rec enter_fence t d =
    if Shm.get t.ctl t.mode_slot <> 0 then begin
      Shm.yield ();
      enter_fence t d
    end
    else begin
      Shm.set t.flags (flag_slot d.tid) 1;
      if Shm.get t.ctl t.mode_slot <> 0 then begin
        Shm.set t.flags (flag_slot d.tid) 0;
        Shm.yield ();
        enter_fence t d
      end
      else if Probe.on () then Probe.fence_pass ~cpu:d.tid
    end

  let leave_fence t d =
    Shm.set t.flags (flag_slot d.tid) 0;
    if Probe.on () then Probe.thread_park ~cpu:d.tid

  let fence_and t f =
    let rec acquire () =
      if not (Shm.cas t.ctl t.mode_slot 0 1) then begin
        Shm.yield ();
        acquire ()
      end
    in
    acquire ();
    for tid = 0 to t.max_threads - 1 do
      while Shm.get t.flags (flag_slot tid) <> 0 do
        Shm.yield ()
      done
    done;
    if Probe.on () then Probe.fence_owner_entry ~cpu:(Shm.tid ());
    (* Release the fence even when [f] raises: an escalated transaction runs
       arbitrary user code here. *)
    match f () with
    | v ->
        if Probe.on () then Probe.fence_owner_exit ~cpu:(Shm.tid ());
        Shm.set t.ctl t.mode_slot 0;
        v
    | exception e ->
        if Probe.on () then Probe.fence_owner_exit ~cpu:(Shm.tid ());
        Shm.set t.ctl t.mode_slot 0;
        raise e

  let roll_over t = fence_and t (fun () -> P.roll_over t.fam)

  (* ------------------------------------------------------------------ *)
  (* Contention management, watchdog                                     *)
  (* ------------------------------------------------------------------ *)

  (* Capped exponential back-off with deterministic per-transaction jitter:
     wait uniformly in [base/2, base] with base doubling per consecutive
     abort up to [Cm.backoff_cap].  The lower bound keeps a retry from
     re-colliding immediately; the cap keeps the worst-case wait bounded so
     the retry watchdog, not the back-off, decides when to escalate. *)
  let backoff d attempts =
    let n = Cm.backoff_cycles ~rng:d.rng ~attempts in
    d.stats.Stats.backoff_cycles <- d.stats.Stats.backoff_cycles + n;
    Shm.charge n;
    if not (Shm.is_simulated ()) then
      for _ = 1 to n / 8 do
        Shm.yield ()
      done

  (* Watchdog plumbing: feed commit/abort heartbeats, surface its detection
     events through observability and count forced policy switches.  Never
     reached with [watchdog = None]. *)
  let feed_watchdog d evs =
    List.iter
      (fun ev ->
        (match ev with
        | Watchdog.Switch _ ->
            d.stats.Stats.cm_switches <- d.stats.Stats.cm_switches + 1
        | Watchdog.Livelock _ | Watchdog.Starved _ -> ());
        if Probe.on () then Probe.watchdog ev)
      evs

  let note_commit_wd t d =
    match t.watchdog with
    | None -> ()
    | Some w ->
        feed_watchdog d (Watchdog.note_commit w ~now:(R.now_cycles ()) ~tid:d.tid)

  let note_abort_wd t d ~retries =
    match t.watchdog with
    | None -> ()
    | Some w ->
        feed_watchdog d
          (Watchdog.note_abort w ~now:(R.now_cycles ()) ~tid:d.tid ~retries)

  (* Per-attempt contention-management prologue: compute the effective
     policy (the watchdog's [Boosted] level forces a kill-capable policy),
     drop any stale remote-kill flag, and publish this attempt's priority.
     On the default path this is two plain reads and a field write. *)
  let cm_begin_attempt t d =
    d.eff_cm <-
      (match t.watchdog with
      | None -> t.cm
      | Some w -> (
          match Watchdog.level w with
          | Watchdog.Boosted -> if Cm.can_kill t.cm then t.cm else Cm.Karma
          | Watchdog.Normal | Watchdog.Serialized -> t.cm));
    if t.cm_active then begin
      (match t.kill_flags with
      | Some k -> Shm.set k (flag_slot d.tid) 0
      | None -> ());
      if Cm.needs_prio d.eff_cm then begin
        let p =
          match d.eff_cm with
          | Cm.Greedy ->
              (* Seniority ticket, drawn once and kept across aborts. *)
              if d.ticket = 0 then d.ticket <- Shm.fetch_add t.prios 0 1 + 1;
              d.ticket
          | _ ->
              (* Karma: work invested since the last commit, aborted
                 attempts included; [+ 1] keeps live publications nonzero. *)
              d.stats.Stats.reads + d.stats.Stats.writes - d.work0 + 1
        in
        Shm.set t.prios (flag_slot d.tid) p
      end
    end

  (* Commit-side epilogue: retire the published priority and ticket, reset
     the karma base. *)
  let cm_end_commit t d =
    d.work0 <- d.stats.Stats.reads + d.stats.Stats.writes;
    d.ticket <- 0;
    if t.cm_active && Cm.needs_prio d.eff_cm then
      Shm.set t.prios (flag_slot d.tid) 0

  (* ------------------------------------------------------------------ *)
  (* Memory management and transaction exit                              *)
  (* ------------------------------------------------------------------ *)

  let alloc d n =
    match V.alloc (P.memory d.owner) n with
    | addr ->
        G.push d.a_addr addr;
        G.push d.a_size n;
        addr
    | exception Out_of_memory ->
        (* Arena exhaustion (genuine or injected) mid-transaction: nothing
           was mutated by this failed call, so the rollback path frees any
           earlier speculative allocations and [live_words] cannot drift.
           Irrevocable transactions cannot be rolled back, so the failure
           escalates straight to the typed [Capacity] verdict. *)
        if Probe.on () then Probe.oom ();
        if d.irrevocable then
          raise (Tm_intf.Capacity { stm = P.name; retries = d.alloc_fails })
        else raise (P.Abort_exn Stats.Alloc_failed)

  let free_blocks mem addrs sizes =
    for k = 0 to G.length addrs - 1 do
      V.free mem (G.get addrs k) (G.get sizes k)
    done

  let exit_tx d ~committed =
    P.cleanup d.p;
    G.clear d.a_addr;
    G.clear d.a_size;
    G.clear d.f_addr;
    G.clear d.f_size;
    d.in_tx <- false;
    if Probe.on () then Probe.tx_exit ~cpu:d.tid ~committed

  (* Frees take effect only once the commit has published (they are
     logged, not performed, inside the transaction). *)
  let finish_commit d ~stamp =
    d.stamp <- stamp;
    free_blocks (P.memory d.owner) d.f_addr d.f_size;
    d.stats.Stats.commits <- d.stats.Stats.commits + 1;
    if d.read_only then
      d.stats.Stats.commits_read_only <- d.stats.Stats.commits_read_only + 1

  (* Allocations made by an aborted attempt are reclaimed; logged frees are
     dropped. *)
  let rollback d =
    P.rollback d;
    free_blocks (P.memory d.owner) d.a_addr d.a_size;
    exit_tx d ~committed:false

  let note_commit t d ~tries =
    if Probe.on () then
      Probe.tx_committed d.span d.stats ~read_only:d.read_only ~retries:tries;
    Stats.record_retries d.stats tries;
    cm_end_commit t d;
    note_commit_wd t d

  (* ------------------------------------------------------------------ *)
  (* The transaction driver                                              *)
  (* ------------------------------------------------------------------ *)

  let atomically ?(read_only = false) t f =
    let d = desc_for t in
    if d.in_tx then invalid_arg (module_name ^ ".atomically: nested transaction");
    d.alloc_fails <- 0;
    let rec attempt tries =
      let forced_serial =
        match t.watchdog with
        | None -> false
        | Some w -> Watchdog.level w = Watchdog.Serialized
      in
      if forced_serial || (t.max_retries > 0 && tries >= t.max_retries) then
        escalate tries
      else begin
        enter_fence t d;
        Shm.charge_local c_tx_begin;
        d.in_tx <- true;
        d.read_only <- read_only;
        cm_begin_attempt t d;
        if Probe.on () then Probe.tx_begin ~cpu:d.tid d.stats;
        if not (P.begin_ d) then begin
          (* The clock is exhausted: step out of the fence, roll it over
             inside it, and start this attempt again. *)
          d.in_tx <- false;
          if Probe.on () then Probe.tx_exit ~cpu:d.tid ~committed:false;
          leave_fence t d;
          roll_over t;
          attempt tries
        end
        else begin
          if Probe.on () then Probe.tx_started d.span d.stats;
          match
            (* The clock-read and commit points live inside this match so
               an injected crash unwinds through the user-exception branch
               below: rollback, fence release, [in_tx] cleared — the
               respawned worker can transact again. *)
            if Probe.on () then Probe.perturb ~tid:d.tid d.stats Clock_read;
            let v = f d in
            if Probe.on () then Probe.perturb ~tid:d.tid d.stats Commit;
            Shm.charge_local c_tx_end;
            finish_commit d ~stamp:(P.commit d);
            exit_tx d ~committed:true;
            v
          with
          | v ->
              note_commit t d ~tries;
              leave_fence t d;
              v
          | exception P.Abort_exn reason ->
              if Probe.on () then
                Probe.tx_aborted d.span ~reason ~retries:tries;
              rollback d;
              Stats.record_abort d.stats reason;
              leave_fence t d;
              if Probe.on () then Probe.perturb ~tid:d.tid d.stats Abort;
              (* Allocation-failed aborts are capped: after
                 [max_alloc_retries] consecutive failures the arena is
                 genuinely full and retrying cannot help, so escalate to the
                 typed [Capacity] verdict (shared state is already rolled
                 back and consistent at this point). *)
              if reason = Stats.Alloc_failed then begin
                d.alloc_fails <- d.alloc_fails + 1;
                if d.alloc_fails >= max_alloc_retries then
                  raise
                    (Tm_intf.Capacity { stm = P.name; retries = d.alloc_fails })
              end
              else d.alloc_fails <- 0;
              note_abort_wd t d ~retries:(tries + 1);
              if reason = Stats.Rollover then roll_over t
              else if Cm.delay_after_abort d.eff_cm then backoff d tries;
              attempt (tries + 1)
          | exception e ->
              (* A user exception aborts the transaction and propagates. *)
              rollback d;
              leave_fence t d;
              raise e
        end
      end
    (* Retry budget exhausted: re-run the transaction serially and
       irrevocably inside the quiescence fence.  No transaction is in
       flight once the fence is held, so the body reads and writes memory
       directly, acquires no locks, and cannot abort — pathological
       workloads degrade to serial execution instead of livelocking. *)
    and escalate tries =
      d.stats.Stats.escalations <- d.stats.Stats.escalations + 1;
      if Probe.on () then Probe.escalated ~retries:tries;
      (* The irrevocable path cannot roll back: faults stay masked. *)
      Tstm_chaos.Plan.masked ~tid:d.tid @@ fun () ->
      fence_and t (fun () ->
          Shm.charge_local c_tx_begin;
          d.in_tx <- true;
          d.read_only <- read_only;
          d.irrevocable <- true;
          if Probe.on () then Probe.serial_begin ~cpu:d.tid d.span d.stats;
          match f d with
          | v ->
              Shm.charge_local c_tx_end;
              finish_commit d ~stamp:(P.serial_commit d);
              note_commit t d ~tries;
              d.irrevocable <- false;
              exit_tx d ~committed:true;
              v
          | exception e ->
              (* Irrevocable means exactly that: direct writes stay.  The
                 stayed writes never published a version; restoring their
                 shadow to the previous life keeps later accesses judged
                 against a committed state. *)
              d.irrevocable <- false;
              if Probe.on () then Probe.tx_abort ~cpu:d.tid;
              exit_tx d ~committed:false;
              raise e)
    in
    attempt 0

  let atomically_stamped ?read_only t f =
    let v = atomically ?read_only t f in
    (v, (desc_for t).stamp)

  let stats t =
    let agg = Stats.create () in
    Array.iter
      (function Some d -> Stats.add_into ~dst:agg d.stats | None -> ())
      t.descs;
    agg

  let reset_stats t =
    Array.iter (function Some d -> Stats.reset d.stats | None -> ()) t.descs
end
