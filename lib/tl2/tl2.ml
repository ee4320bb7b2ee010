module V = Tstm_vmm.Vmm
module G = Tstm_util.Growbuf
module Shm = Tstm_runtime.Shm
module Stats = Tstm_tm.Tm_stats
module Tx = Tstm_tm.Tx_core
module Log = Tstm_tm.Redo_log
open Tx

let name = "tl2"

exception Abort_exn of Stats.abort_reason

module Probe = Tstm_tm.Probe

(* Contention management (same plumbing discipline as TinySTM, adapted to
   commit-time locking: a locked orec always belongs to a transaction that
   is mid-commit and therefore finite and unkillable, so the kill-capable
   policies degenerate to "the winner waits for the release, the loser
   aborts and clears the road" — seniority still yields a total order, so
   the globally oldest transaction always gets through).  With the default
   [Backoff] policy and no watchdog, [cm_active] is false and no extra
   shared word is ever touched. *)
module Cm = Tstm_cm.Cm

(* TL2 lock words: unlocked = [version | 0]; locked = [tid | 1].  No
   incarnation numbers (write-back never dirties memory before commit) and
   no write-set payload (there is no per-lock chain — that is TinySTM's
   advantage the paper measures). *)
let is_locked w = w land 1 = 1
let unlocked ~version = version lsl 1
let version w = w lsr 1
let locked_by tid = (tid lsl 1) lor 1
let owner w = w lsr 1

type inst = {
  mem : V.t;
  words : Shm.t;  (* [V.words mem], read by every barrier *)
  n_locks : int;
  shifts : int;
  locks : Shm.t;
  ctl : Shm.t;  (* fence mode / clock, padded apart *)
  prios : Shm.t;  (* the core's published priorities *)
}

type desc = {
  mutable rv : int;
  (* Read set: (lock index, observed version) pairs, flattened. *)
  r_set : G.t;
  w : Log.t;  (* the write set *)
  (* Locks acquired during commit, with their previous words. *)
  l_idx : G.t;
  l_old : G.t;
}

type tx = (inst, desc) Tx.tx

let mode_slot = 0
let clock_slot = 8
let ctl_len = 16
let lock_index t addr = (addr lsr t.shifts) land (t.n_locks - 1)

let new_desc _ =
  {
    rv = 0;
    r_set = G.create 64;
    w = Log.create ();
    l_idx = G.create 32;
    l_old = G.create 32;
  }

let cleanup p =
  G.clear p.r_set;
  Log.clear p.w;
  G.clear p.l_idx;
  G.clear p.l_old

let abort reason = raise (Abort_exn reason)

let rec wait_bounded t li attempts =
  if attempts <= 0 then false
  else begin
    Shm.yield ();
    if is_locked (Shm.get t.locks li) then wait_bounded t li (attempts - 1)
    else true
  end

(* What to do about the committing owner of lock [li].  Returns whether
   the lock was observed free (re-run the failing step) — false means
   abort self.  The historical TL2 policy (and our [Backoff]/[Serialize]/
   [Suicide] arms) aborts immediately: a locked orec belongs to a
   transaction mid-commit.  The kill-capable policies instead let the
   winner of the pure decision table wait out the enemy's (finite) commit
   while the loser aborts at once, clearing its own commit locks out of
   the winner's way — seniority is a total order, so the globally oldest
   transaction always gets through. *)
let conflict_wait_for t (d : tx) li enemy =
  match d.eff_cm with
  | Cm.Backoff | Cm.Serialize _ | Cm.Suicide -> false
  | Cm.Karma | Cm.Greedy -> (
      let self_prio = Shm.get t.prios (flag_slot d.tid) in
      let enemy_prio = Shm.get t.prios (flag_slot enemy) in
      match
        Cm.on_enemy d.eff_cm ~self_prio ~enemy_prio ~self_tid:d.tid
          ~enemy_tid:enemy
      with
      | Cm.Kill_enemy -> wait_bounded t li Cm.wait_bound
      | Cm.Abort_now | Cm.Wait_retry -> false)

(* ------------------------------------------------------------------ *)
(* Read and write barriers                                             *)
(* ------------------------------------------------------------------ *)

let rec read_word t (d : tx) addr =
  Shm.charge_local c_op;
  if d.irrevocable then begin
    (* Serial slow path inside the fence: memory is the truth. *)
    d.stats.Stats.reads <- d.stats.Stats.reads + 1;
    Shm.get t.words addr
  end
  else
  let p = d.p in
  let k = if d.read_only then -1 else Log.find p.w addr in
  if k >= 0 then begin
    d.stats.Stats.reads <- d.stats.Stats.reads + 1;
    Log.value p.w k
  end
  else
  let li = lock_index t addr in
  let l1 = Shm.get t.locks li in
  if is_locked l1 then begin
    (* TL2 has no encounter-time ownership: a locked orec always
       belongs to a committing transaction. *)
    if conflict_wait_for t d li (owner l1) then read_word t d addr
    else abort Stats.Read_conflict
  end
  else begin
    let v = Shm.get t.words addr in
    let l2 = Shm.get t.locks li in
    if l1 <> l2 then read_word t d addr
    else if version l1 > p.rv then
      (* No snapshot extension in TL2: newer data forces an abort. *)
      abort Stats.Validation_failed
    else begin
      if not d.read_only then begin
        G.push p.r_set li;
        G.push p.r_set (version l1)
      end;
      if Probe.on () then Probe.read_accepted ~cpu:d.tid ~addr;
      d.stats.Stats.reads <- d.stats.Stats.reads + 1;
      v
    end
  end

let write_word t (d : tx) addr v =
  Shm.charge_local c_op;
  if d.read_only then invalid_arg "Tl2.write: transaction is read-only";
  d.stats.Stats.writes <- d.stats.Stats.writes + 1;
  if d.irrevocable then Shm.set t.words addr v else Log.put d.p.w addr v

(* A free is an update: rewrite the block so commit acquires its locks.
   Inside the fence there is no concurrency and the free is just deferred
   to the end of the escalated run. *)
let free_words t (d : tx) addr n =
  if not d.irrevocable then
    for w = addr to addr + n - 1 do
      let v = read_word t d w in
      write_word t d w v
    done;
  log_free d addr n

(* ------------------------------------------------------------------ *)
(* Commit                                                              *)
(* ------------------------------------------------------------------ *)

let release_acquired t (d : tx) =
  let p = d.p in
  let probing = Probe.on () in
  for k = 0 to G.length p.l_idx - 1 do
    Shm.set t.locks (G.get p.l_idx k) (G.get p.l_old k);
    if probing then
      Probe.lock_released ~clk:t.ctl ~cpu:d.tid ~lock:(G.get p.l_idx k)
  done;
  G.clear p.l_idx;
  G.clear p.l_old

let owns_lock p li =
  let rec go k =
    k >= 0
    && begin
         Shm.charge_local Log.c_scan;
         G.get p.l_idx k = li || go (k - 1)
       end
  in
  go (G.length p.l_idx - 1)

let old_word_of p li =
  let rec go k =
    if k < 0 then None
    else if G.get p.l_idx k = li then Some (G.get p.l_old k)
    else go (k - 1)
  in
  go (G.length p.l_idx - 1)

let acquire_write_locks t (d : tx) =
  let p = d.p in
  let rec take li =
    let l = Shm.get t.locks li in
    if is_locked l then begin
      (* Owned by another committing transaction: abort immediately
         (the reference implementation's default policy), unless the
         contention manager rules that we out-rank the owner and should
         wait out its commit instead. *)
      if conflict_wait_for t d li (owner l) then take li
      else begin
        release_acquired t d;
        abort Stats.Write_conflict
      end
    end
    else begin
      if Probe.on () then Probe.perturb ~clk:t.ctl ~tid:d.tid d.stats Lock_cas;
      if not (Shm.cas t.locks li l (locked_by d.tid)) then begin
        release_acquired t d;
        abort Stats.Write_conflict
      end
      else begin
        if Probe.on () then
          Probe.lock_acquired ~clk:t.ctl ~cpu:d.tid d.stats ~lock:li;
        G.push p.l_idx li;
        G.push p.l_old l
      end
    end
  in
  for k = 0 to Log.length p.w - 1 do
    let li = lock_index t (Log.addr p.w k) in
    if not (owns_lock p li) then take li
  done

let validate t (d : tx) =
  let p = d.p in
  d.stats.Stats.validations <- d.stats.Stats.validations + 1;
  let n = G.length p.r_set in
  let ok = ref true in
  let k = ref 0 in
  while !ok && !k < n do
    let li = G.get p.r_set !k in
    let l = Shm.get t.locks li in
    d.stats.Stats.val_locks_processed <-
      d.stats.Stats.val_locks_processed + 1;
    (if is_locked l then
       if owner l <> d.tid then ok := false
       else begin
         (* We hold the lock ourselves: check the pre-acquisition word. *)
         match old_word_of p li with
         | Some old -> if version old > p.rv then ok := false
         | None -> ok := false
       end
     else if version l > p.rv then ok := false);
    k := !k + 2
  done;
  !ok

let begin_ (d : tx) =
  d.p.rv <- Shm.get d.owner.ctl clock_slot;
  if Probe.on () then Probe.clock_read ~cpu:d.tid ~value:d.p.rv;
  true

let commit (d : tx) =
  let t = d.owner and p = d.p in
  if Log.length p.w = 0 && G.length d.f_addr = 0 then p.rv
  else begin
    acquire_write_locks t d;
    if Probe.on () then Probe.perturb ~clk:t.ctl ~tid:d.tid d.stats Clock_inc;
    let wv = Shm.fetch_add t.ctl clock_slot 1 + 1 in
    if Probe.on () then Probe.clock_advance ~cpu:d.tid ~drawn:wv;
    if Probe.on () then Probe.perturb ~clk:t.ctl ~tid:d.tid d.stats Write_back;
    if
      wv > p.rv + 1
      && (not (Probe.bug_active Probe.Skip_validation))
      && not (validate t d)
    then begin
      release_acquired t d;
      abort Stats.Validation_failed
    end;
    Log.write_back p.w t.words;
    (* The snapshot-consistency check must see the write set still under
       lock, before any orec is released. *)
    if Probe.on () then Probe.commit_publish ~cpu:d.tid ~wv;
    let probing = Probe.on () in
    for k = 0 to G.length p.l_idx - 1 do
      Shm.set t.locks (G.get p.l_idx k) (unlocked ~version:wv);
      if probing then
        Probe.lock_released ~clk:t.ctl ~cpu:d.tid ~lock:(G.get p.l_idx k)
    done;
    wv
  end

(* Commit-time locking: nothing was written to memory; just release the
   commit locks an aborted commit still holds.  (The sanitizer write log
   is empty for the same reason, so [tx_abort] has nothing to restore.) *)
let rollback (d : tx) =
  if Probe.on () then Probe.tx_abort ~cpu:d.tid;
  release_acquired d.owner d

(* Keep the clock moving so the serial commit has a unique serialization
   point with respect to the version order. *)
let serial_commit (d : tx) =
  let wv = Shm.fetch_add d.owner.ctl clock_slot 1 + 1 in
  if Probe.on () then Probe.serial_publish ~cpu:d.tid ~wv;
  wv

module Core =
  Tx.Make
    (struct
      type t = inst
      type nonrec desc = desc
      type mem = V.t

      exception Abort_exn = Abort_exn

      let name = name
      let rng_seed = 0x2b1
      let memory t = t.mem
      let new_desc = new_desc
      let begin_ = begin_
      let commit = commit
      let rollback = rollback
      let serial_commit = serial_commit
      let cleanup = cleanup

      (* The version clock is never bounded: [begin_] never reports it
         exhausted and no commit aborts with [Rollover]. *)
      let roll_over _ = ()
    end)

type t = Core.t

let create ~kind ?(n_locks = 1 lsl 16) ?(shifts = 0) ?(max_threads = 64)
    ?(max_retries = 0) ?(cm = Cm.default) ?watchdog ~memory_words () =
  if not (Tstm_util.Bitops.is_pow2 n_locks) then
    invalid_arg "Tl2.create: n_locks must be a power of two";
  if shifts < 0 || shifts > 16 then
    invalid_arg "Tl2.create: shifts out of range";
  if max_threads < 1 then invalid_arg "Tl2.create: max_threads < 1";
  if max_retries < 0 then invalid_arg "Tl2.create: max_retries < 0";
  let cm_active = cm_active ~cm ~watchdog in
  (* Creation order fixes the simulator's global cache-line ids. *)
  let prios = Shm.make kind (cm_words ~cm_active ~max_threads) 0 in
  let flags = Shm.make kind (flag_slot max_threads + 8) 0 in
  let ctl = Shm.make kind ctl_len 0 in
  let locks = Shm.make kind n_locks 0 in
  let mem = V.create ~kind ~words:memory_words in
  let words = V.words mem in
  Shm.label locks "locks";
  Shm.label words "mem";
  Core.make
    { mem; words; n_locks; shifts; locks; ctl; prios }
    ~ctl ~mode_slot ~flags ~prios ~max_threads ~max_retries ~cm ?watchdog ()

let memory t = (Core.fam t).mem
let clock_value t = Shm.get (Core.fam t).ctl clock_slot
let read (tx : tx) addr = read_word tx.owner tx addr
let write (tx : tx) addr v = write_word tx.owner tx addr v
let alloc = Core.alloc
let free (tx : tx) addr n = free_words tx.owner tx addr n
let atomically = Core.atomically
let stats = Core.stats
let reset_stats = Core.reset_stats
