(* NOrec: no ownership records, one global sequence lock, value-based
   validation (Dalessandro, Spear, Scott; PPoPP 2010).  Shares the repo's
   STM skeleton with TL2 (the redo log {!Tstm_tm.Redo_log} with its Bloom
   read-after-write reject, quiescence-fence escalation) but replaces the
   whole lock array with a single seqlock word: even = timestamp, odd = a
   writer mid-commit. *)

module V = Tstm_vmm.Vmm
module G = Tstm_util.Growbuf
module Shm = Tstm_runtime.Shm
module Stats = Tstm_tm.Tm_stats
module Tx = Tstm_tm.Tx_core
module Log = Tstm_tm.Redo_log
open Tx

let name = "norec"

exception Abort_exn of Stats.abort_reason

module Probe = Tstm_tm.Probe

(* Contention management.  A held sequence lock always belongs to a
   finite committing writer, so the kill-capable policies degenerate to
   "the decision-table winner waits out the commit, the loser aborts";
   [Suicide] aborts on any observed held lock.  Because there is only
   one lock, the symmetric hold-and-wait cycle that livelocks the
   lock-array STMs cannot form: some writer's CAS always lands. *)
module Cm = Tstm_cm.Cm

let seq_locked s = s land 1 = 1

(* NOrec's distinctive costs: every validation re-reads the whole read
   set by value (no per-stripe version shortcut), and every snapshot
   check samples the sequence word. *)
let c_val = 2
let c_seq = 1

type inst = {
  mem : V.t;
  words : Shm.t;  (* [V.words mem], read by every barrier *)
  ctl : Shm.t;  (* fence mode / sequence lock / committer, padded *)
  prios : Shm.t;  (* the core's published priorities *)
  cm_active : bool;
}

type desc = {
  mutable rv : int;  (* snapshot: an even sequence value *)
  (* Read set: (address, observed value) pairs, flattened.  Kept for
     read-only transactions too — value-based validation is what lets
     any transaction fast-forward instead of aborting. *)
  r_addr : G.t;
  r_val : G.t;
  w : Log.t;  (* the write set *)
}

type tx = (inst, desc) Tx.tx

let mode_slot = 0
let seq_slot = 8
let committer_slot = 16
let ctl_len = 24

let new_desc _ =
  {
    rv = 0;
    r_addr = G.create 64;
    r_val = G.create 64;
    w = Log.create ();
  }

let cleanup p =
  G.clear p.r_addr;
  G.clear p.r_val;
  Log.clear p.w

let abort reason = raise (Abort_exn reason)

(* The contention decision on an observed held sequence lock.  Returning
   means "wait for the (finite) commit to finish"; the policies that
   prefer the aborter abort self instead. *)
let conflict_on_holder t (d : tx) ~reason =
  match d.eff_cm with
  | Cm.Backoff | Cm.Serialize _ -> ()
  | Cm.Suicide -> abort reason
  | Cm.Karma | Cm.Greedy ->
      let enemy = Shm.get t.ctl committer_slot in
      if enemy <> d.tid then begin
        let self_prio = Shm.get t.prios (flag_slot d.tid) in
        let enemy_prio = Shm.get t.prios (flag_slot enemy) in
        match
          Cm.on_enemy d.eff_cm ~self_prio ~enemy_prio ~self_tid:d.tid
            ~enemy_tid:enemy
        with
        | Cm.Kill_enemy -> ()  (* winner waits out the finite commit *)
        | Cm.Abort_now | Cm.Wait_retry -> abort reason
      end

(* Sample the sequence word until it is even; consult the contention
   manager at every held observation. *)
let rec seq_even t d ~reason =
  Shm.charge_local c_seq;
  let s = Shm.get t.ctl seq_slot in
  if not (seq_locked s) then s
  else begin
    conflict_on_holder t d ~reason;
    Shm.yield ();
    seq_even t d ~reason
  end

(* Value-validate the whole read set and return the even sequence value
   it was proven consistent at; aborts on any changed value.  The
   post-scan sequence re-check restarts the scan when a writer landed
   mid-validation, so a returned time is a true consistency point. *)
let rec validate t (d : tx) ~reason =
  d.stats.Stats.validations <- d.stats.Stats.validations + 1;
  let time = seq_even t d ~reason in
  let words = t.words in
  let p = d.p in
  let n = G.length p.r_addr in
  let ok = ref true in
  let k = ref 0 in
  while !ok && !k < n do
    Shm.charge_local c_val;
    d.stats.Stats.val_locks_processed <-
      d.stats.Stats.val_locks_processed + 1;
    if Shm.get words (G.get p.r_addr !k) <> G.get p.r_val !k then ok := false;
    k := !k + 1
  done;
  if not !ok then abort Stats.Validation_failed
  else begin
    Shm.charge_local c_seq;
    if Shm.get t.ctl seq_slot <> time then validate t d ~reason else time
  end

(* Fast-forward: move the snapshot to the current sequence value after a
   passed value validation — NOrec's analogue of LSA snapshot extension.
   The armed [Skip_extension] bug blindly fast-forwards without
   validating (and must not emit the sanitizer's re-certification edge,
   which is reserved for validations that actually ran and passed). *)
let extend t (d : tx) ~reason =
  if Probe.bug_active Probe.Skip_extension then
    d.p.rv <- seq_even t d ~reason
  else begin
    let time = validate t d ~reason in
    d.p.rv <- time;
    d.stats.Stats.extensions <- d.stats.Stats.extensions + 1;
    if Probe.on () then Probe.seqlock_validate ~cpu:d.tid ~value:time
  end

(* ------------------------------------------------------------------ *)
(* Read and write barriers                                             *)
(* ------------------------------------------------------------------ *)

(* [@inline]: [read] and [free_words] each keep their own copy of this
   body, so a read costs no extra call; with three [Shm.t] constructors
   to dispatch on, the body is just over -inline 200. *)
let[@inline] read_word t (d : tx) addr =
  Shm.charge_local c_op;
  if d.irrevocable then begin
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
    else begin
      let words = t.words in
      let v = ref (Shm.get words addr) in
      (* The NOrec post-validation loop: the value is accepted only
         when the sequence word still equals the snapshot after the
         load; any movement (a writer committing or committed)
         triggers validation and fast-forward, then a re-read. *)
      Shm.charge_local c_seq;
      while Shm.get t.ctl seq_slot <> p.rv do
        extend t d ~reason:Stats.Read_conflict;
        v := Shm.get words addr;
        Shm.charge_local c_seq
      done;
      G.push p.r_addr addr;
      G.push p.r_val !v;
      if Probe.on () then Probe.read_accepted ~cpu:d.tid ~addr;
      d.stats.Stats.reads <- d.stats.Stats.reads + 1;
      !v
    end

let write_word t (d : tx) addr v =
  Shm.charge_local c_op;
  if d.read_only then invalid_arg "Norec.write: transaction is read-only";
  d.stats.Stats.writes <- d.stats.Stats.writes + 1;
  if d.irrevocable then Shm.set t.words addr v else Log.put d.p.w addr v

(* A free is an update: read-write the block so the commit is a writer
   (value validation then covers the block against concurrent access).
   Inside the fence there is no concurrency and the free is just
   deferred to the end of the escalated run. *)
let free_words t (d : tx) addr n =
  if not d.irrevocable then
    for w = addr to addr + n - 1 do
      let v = read_word t d w in
      write_word t d w v
    done;
  log_free d addr n

(* ------------------------------------------------------------------ *)
(* Begin and commit                                                    *)
(* ------------------------------------------------------------------ *)

(* The begin-time snapshot: wait for an even sequence value.  No
   contention decision here — nothing is invested yet, so aborting self
   would only re-enter the same wait. *)
let rec sample_snapshot t =
  Shm.charge_local c_seq;
  let s = Shm.get t.ctl seq_slot in
  if seq_locked s then begin
    Shm.yield ();
    sample_snapshot t
  end
  else s

let begin_ (d : tx) =
  d.p.rv <- sample_snapshot d.owner;
  if Probe.on () then Probe.clock_read ~cpu:d.tid ~value:d.p.rv;
  true

(* Acquire the sequence lock at the current snapshot.  A CAS can only
   succeed from [rv] itself, so a transaction whose snapshot lags the
   sequence word must revalidate (fast-forward) first; the armed
   [Skip_validation] bug blindly fast-forwards instead — the classic
   torn-commit mistake value validation exists to prevent. *)
let rec acquire_seq t (d : tx) =
  Shm.charge_local c_seq;
  let s = Shm.get t.ctl seq_slot in
  if seq_locked s then begin
    conflict_on_holder t d ~reason:Stats.Write_conflict;
    Shm.yield ();
    acquire_seq t d
  end
  else begin
    let p = d.p in
    (if s <> p.rv then
       if Probe.bug_active Probe.Skip_validation then p.rv <- s
       else begin
         let time = validate t d ~reason:Stats.Write_conflict in
         p.rv <- time;
         if Probe.on () then Probe.seqlock_validate ~cpu:d.tid ~value:time
       end);
    if Probe.on () then Probe.perturb ~clk:t.ctl ~tid:d.tid d.stats Lock_cas;
    if not (Shm.cas t.ctl seq_slot p.rv (p.rv + 1)) then acquire_seq t d
    else begin
      (* Stored before the probe: the sanitizer ignores "ctl". *)
      if t.cm_active then Shm.set t.ctl committer_slot d.tid;
      if Probe.on () then
        Probe.seqlock_acquired ~clk:t.ctl ~cpu:d.tid d.stats ~drawn:(p.rv + 2)
    end
  end

let commit (d : tx) =
  let t = d.owner and p = d.p in
  if Log.length p.w = 0 && G.length d.f_addr = 0 then
    (* Lock-free commit: no CAS, no store, nothing to publish. *)
    p.rv
  else begin
    acquire_seq t d;
    if Probe.on () then Probe.perturb ~clk:t.ctl ~tid:d.tid d.stats Write_back;
    let wv = p.rv + 2 in
    Log.write_back p.w t.words;
    (* The snapshot-consistency check must see the write set still under
       the sequence lock, before the new even value is published. *)
    if Probe.on () then Probe.commit_publish ~cpu:d.tid ~wv;
    if Probe.on () then Probe.perturb ~clk:t.ctl ~tid:d.tid d.stats Clock_inc;
    Shm.set t.ctl seq_slot wv;
    if Probe.on () then Probe.seqlock_released ~clk:t.ctl ~cpu:d.tid;
    wv
  end

(* Redo-log writes: memory was never touched, and every abort happens
   lock-free (the sequence lock is only ever held across the
   straight-line write-back), so there is nothing to release. *)
let rollback (d : tx) = if Probe.on () then Probe.tx_abort ~cpu:d.tid

(* Keep the sequence moving so the serial commit has a unique
   serialization point: the fence guarantees quiescence, so the CAS
   cannot fail. *)
let serial_commit (d : tx) =
  let t = d.owner in
  let s = Shm.get t.ctl seq_slot in
  let wv = s + 2 in
  ignore (Shm.cas t.ctl seq_slot s (s + 1));
  if Probe.on () then Probe.serial_seqlock_acquired ~cpu:d.tid ~wv;
  Shm.set t.ctl seq_slot wv;
  if Probe.on () then Probe.serial_seqlock_released ~cpu:d.tid;
  wv

module Core =
  Tx.Make
    (struct
      type t = inst
      type nonrec desc = desc
      type mem = V.t

      exception Abort_exn = Abort_exn

      let name = name
      let rng_seed = 0x9c3
      let memory t = t.mem
      let new_desc = new_desc
      let begin_ = begin_
      let commit = commit
      let rollback = rollback
      let serial_commit = serial_commit
      let cleanup = cleanup

      (* The sequence word is never bounded: [begin_] never reports it
         exhausted and no commit aborts with [Rollover]. *)
      let roll_over _ = ()
    end)

type t = Core.t

let create ~kind ?(max_threads = 64) ?(max_retries = 0) ?(cm = Cm.default)
    ?watchdog ~memory_words () =
  if max_threads < 1 then invalid_arg "Norec.create: max_threads < 1";
  if max_retries < 0 then invalid_arg "Norec.create: max_retries < 0";
  let cm_active = cm_active ~cm ~watchdog in
  (* Creation order fixes the simulator's global cache-line ids. *)
  let prios = Shm.make kind (cm_words ~cm_active ~max_threads) 0 in
  let flags = Shm.make kind (flag_slot max_threads + 8) 0 in
  let ctl = Shm.make kind ctl_len 0 in
  let mem = V.create ~kind ~words:memory_words in
  let words = V.words mem in
  Shm.label words "mem";
  Core.make
    { mem; words; ctl; prios; cm_active }
    ~ctl ~mode_slot ~flags ~prios ~max_threads ~max_retries ~cm ?watchdog ()

let memory t = (Core.fam t).mem
let clock_value t = Shm.get (Core.fam t).ctl seq_slot
let read (tx : tx) addr = read_word tx.owner tx addr
let write (tx : tx) addr v = write_word tx.owner tx addr v
let alloc = Core.alloc
let free (tx : tx) addr n = free_words tx.owner tx addr n
let atomically = Core.atomically
let stats = Core.stats
let reset_stats = Core.reset_stats
