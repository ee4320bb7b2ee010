module Lockenc = Lockenc
module Config = Config
module Hmask = Hmask

module V = Tstm_vmm.Vmm
module G = Tstm_util.Growbuf
module Shm = Tstm_runtime.Shm
module Stats = Tstm_tm.Tm_stats
module Tx = Tstm_tm.Tx_core
open Tx

let name = "tinystm"

exception Abort_exn of Stats.abort_reason

(* Instrumentation: one probe per linearization point (DESIGN.md §4k). *)
module Probe = Tstm_tm.Probe

(* Contention management: policy decisions are pure tables in [Tstm_cm];
   the shared-memory plumbing they need (published priorities, remote-kill
   flags) lives behind [t.cm_active], a plain boolean that is false for the
   default [Backoff] policy without a watchdog — on that path no extra
   shared word is ever touched and runs are byte-identical to the
   pre-CM implementation. *)
module Cm = Tstm_cm.Cm

type inst = {
  mem : V.t;
  words : Shm.t;  (* [V.words mem], read by every barrier *)
  mutable cfg : Config.t;
  (* [cfg]'s address mapping, copied out so a barrier reads one field per
     use; [set_config] rewrites them inside its fence. *)
  mutable shifts : int;
  mutable lock_mask : int;  (* n_locks - 1 *)
  mutable hier_on : bool;  (* hierarchy > 1 *)
  mutable locks : Shm.t;
  mutable hier : Shm.t;
  ctl : Shm.t;  (* clock / fence mode / roll-over count, padded apart *)
  max_clock : int;
  conflict_wait : int;  (* bounded re-check attempts on a foreign lock *)
  cm_active : bool;
    (* kill flags / priorities are live; false on the default path *)
  kill_flags : Shm.t;  (* per-thread remote-abort flags, padded apart *)
  prios : Shm.t;  (* the core's published priorities *)
  kind : Shm.kind;  (* re-tuning makes its fresh arrays of this kind *)
}

(* The read set holds only the lock index of each accepted read, as in
   Manticore's TinySTM; the version seen at read time is not kept.
   Validation accepts an entry whose lock is ours, or unlocked at a version
   <= [rv].  That is sound: a writer that locks an orec after our read
   draws its commit version after that read, so above the [rv] the read
   was accepted under, and every successful extension validates every
   entry before it raises [rv].  A foreign commit therefore always shows up
   as "locked by another" or as "version > rv".  One orec changes version
   without a commit: a write-through abort that overflows the incarnation
   counter re-versions it to the current clock, which can be <= [rv].
   Accepting that entry is sound too, because memory holds the restored
   value the reader saw. *)
type desc = {
  mutable rv : int;  (* upper bound of the snapshot's validity range *)
  (* Read set, partitioned by hierarchy slot; at h = 1 only [r_set.(0)]
     is used and no mask is kept. *)
  mutable r_set : G.t array;
  mutable hmask_read : Hmask.t;
  mutable hmask_write : Hmask.t;
  mutable hsnap : int array;  (* counter value at first touch *)
  mutable own_inc : int array;  (* own increments since first touch *)
  (* Write set (write-back): per-lock chains through [w_next]
     (index + 1; 0 terminates). *)
  w_addr : G.t;
  w_val : G.t;
  w_next : G.t;
  (* Undo log (write-through). *)
  u_addr : G.t;
  u_val : G.t;
  (* Acquired locks: lock index and the word it held before acquisition. *)
  l_idx : G.t;
  l_old : G.t;
  mutable h_dim : int;  (* hierarchy size the arrays above match *)
}

type tx = (inst, desc) Tx.tx

(* Control-word slots, spread over distinct cache lines of the simulated
   runtime (8 words per line by default). *)
let clock_slot = 8
let mode_slot = 16
let rollover_slot = 24
let ctl_len = 32

(* ------------------------------------------------------------------ *)
(* Descriptors                                                         *)
(* ------------------------------------------------------------------ *)

let fresh_hier_state p h =
  p.r_set <- Array.init h (fun _ -> G.create 32);
  p.hmask_read <- Hmask.create h;
  p.hmask_write <- Hmask.create h;
  p.hsnap <- Array.make h 0;
  p.own_inc <- Array.make h 0;
  p.h_dim <- h

let new_desc t =
  let p =
    {
      rv = 0;
      r_set = [||];
      hmask_read = Hmask.create 1;
      hmask_write = Hmask.create 1;
      hsnap = [||];
      own_inc = [||];
      w_addr = G.create 32;
      w_val = G.create 32;
      w_next = G.create 32;
      u_addr = G.create 32;
      u_val = G.create 32;
      l_idx = G.create 32;
      l_old = G.create 32;
      h_dim = 0;
    }
  in
  fresh_hier_state p t.cfg.Config.hierarchy;
  p

let cleanup p =
  if p.h_dim = 1 then G.clear p.r_set.(0)
  else begin
    Hmask.iter p.hmask_write (fun i -> p.own_inc.(i) <- 0);
    Hmask.iter p.hmask_read (fun i -> G.clear p.r_set.(i));
    Hmask.clear p.hmask_read;
    Hmask.clear p.hmask_write
  end;
  G.clear p.w_addr;
  G.clear p.w_val;
  G.clear p.w_next;
  G.clear p.u_addr;
  G.clear p.u_val;
  G.clear p.l_idx;
  G.clear p.l_old

(* ------------------------------------------------------------------ *)
(* Clock roll-over (paper §3.1), run inside the core's quiescence fence *)
(* ------------------------------------------------------------------ *)

let reset_clock t =
  Shm.set t.ctl clock_slot 0;
  for i = 0 to Shm.length t.locks - 1 do
    Shm.set t.locks i 0
  done;
  for i = 0 to Shm.length t.hier - 1 do
    Shm.set t.hier i 0
  done;
  ignore (Shm.fetch_add t.ctl rollover_slot 1);
  if Probe.on () then Probe.clock_rollover ~clk:t.ctl

(* Another thread may have completed the roll-over while we waited for
   the fence; re-check before paying for the reset. *)
let roll_over t =
  if Shm.get t.ctl clock_slot >= t.max_clock - 1 then reset_clock t

(* ------------------------------------------------------------------ *)
(* Hierarchical locking (paper §3.2)                                   *)
(* ------------------------------------------------------------------ *)

let lock_index t addr = (addr lsr t.shifts) land t.lock_mask

(* First touch of a partition (by read or write) snapshots its counter,
   before any of our own increments. *)
(* Only called with hierarchical locking enabled, on a read whose
   partition [i] carries no read entry yet (a partition in [hmask_read]
   already has its snapshot). *)
let[@inline never] hier_touch_read t p i =
  if not (Hmask.mem p.hmask_write i) then p.hsnap.(i) <- Shm.get t.hier i;
  ignore (Hmask.add p.hmask_read i)

(* Increment the partition counter immediately *after* a successful lock
   CAS (and, crucially, before this transaction can reach its commit and
   draw a write timestamp).  Soundness of the validation fast path then
   follows: if a validator sees the counter unchanged since its first
   touch, any foreign acquisition it could be missing must have CASed
   after the snapshot with its increment still pending — so that writer's
   commit version is drawn after the validator's clock read and its
   write-back serializes strictly later than the validated snapshot.
   (The other order — increment before CAS — is unsound: a validator can
   absorb the increment into its snapshot, read the still-unlocked
   location, and later skip the partition that hides the acquisition.) *)
let hier_note_acquired t p addr =
  if t.hier_on then begin
    let i = Config.hier_index t.cfg addr in
    if (not (Hmask.mem p.hmask_write i)) && not (Hmask.mem p.hmask_read i)
    then p.hsnap.(i) <- Shm.get t.hier i;
    ignore (Hmask.add p.hmask_write i);
    p.own_inc.(i) <- p.own_inc.(i) + 1;
    ignore (Shm.fetch_add t.hier i 1)
  end

(* ------------------------------------------------------------------ *)
(* Validation and snapshot extension                                   *)
(* ------------------------------------------------------------------ *)

(* The LSA rule (see [desc]): an entry passes when its lock is ours, or
   unlocked at a version no newer than [rv]. *)
let validate_partition t (d : tx) i =
  let buf = d.p.r_set.(i) in
  let rv = d.p.rv in
  let n = G.length buf in
  let ok = ref true in
  let k = ref 0 in
  while !ok && !k < n do
    let l = Shm.get t.locks (G.get buf !k) in
    d.stats.Stats.val_locks_processed <-
      d.stats.Stats.val_locks_processed + 1;
    (if Lockenc.is_locked l then begin
       if Lockenc.owner l <> d.tid then ok := false
     end
     else if Lockenc.version l > rv then ok := false);
    incr k
  done;
  !ok

(* With hierarchical locking, a partition whose counter moved only by our
   own increments since we first touched it saw no foreign lock
   acquisition: its read-set entries are skipped (paper §3.2). *)
let validate t (d : tx) =
  let p = d.p in
  d.stats.Stats.validations <- d.stats.Stats.validations + 1;
  if t.hier_on then begin
    let ok = ref true in
    Hmask.iter p.hmask_read (fun i ->
        if !ok then
          if Shm.get t.hier i = p.hsnap.(i) + p.own_inc.(i) then
            d.stats.Stats.val_locks_skipped <-
              d.stats.Stats.val_locks_skipped + G.length p.r_set.(i)
          else ok := validate_partition t d i);
    !ok
  end
  else validate_partition t d 0

let extend t (d : tx) =
  if Probe.on () then Probe.perturb ~clk:t.ctl ~tid:d.tid d.stats Clock_sample;
  let now = Shm.get t.ctl clock_slot in
  if Probe.bug_active Probe.Skip_extension then begin
    (* Deliberately broken protocol (chaos bug injection): accept the new
       snapshot bound without validating the read set.  Exists solely so
       the stress checker can demonstrate it catches the resulting
       non-serializable histories. *)
    d.p.rv <- now;
    if Probe.on () then Probe.clock_read ~cpu:d.tid ~value:now;
    true
  end
  else if validate t d then begin
    d.p.rv <- now;
    d.stats.Stats.extensions <- d.stats.Stats.extensions + 1;
    if Probe.on () then Probe.extended ~clk:t.ctl ~cpu:d.tid ~value:now;
    true
  end
  else false

let abort reason = raise (Abort_exn reason)

(* Bounded wait on a foreign lock (paper §3.1: "the transaction can try to
   wait for some time or abort immediately" — the paper picks immediate
   abort, our default; [conflict_wait] attempts enable the alternative).
   The wait must be bounded or two transactions blocked on each other's
   locks would deadlock.  Returns whether the lock was observed free. *)
let rec wait_bounded t li attempts =
  if attempts <= 0 then false
  else begin
    Shm.yield ();
    if Lockenc.is_locked (Shm.get t.locks li) then
      wait_bounded t li (attempts - 1)
    else true
  end

let wait_for_unlock t li = wait_bounded t li t.conflict_wait

(* What to do about the foreign owner of lock [li].  Returns whether the
   lock was observed free (retry the barrier) — false means abort self.
   The [Backoff]/[Serialize] arm is exactly the historical behaviour; the
   kill-capable policies read both parties' published priorities, consult
   the pure decision table, and either flag the enemy for remote abort or
   wait for it, always with a bounded spin (an unbounded wait would
   deadlock two transactions blocked on each other's orecs, and a kill
   victim polls its flag only at barrier entry). *)
let resolve_conflict t (d : tx) li enemy =
  match d.eff_cm with
  | Cm.Backoff | Cm.Serialize _ -> wait_for_unlock t li
  | Cm.Suicide -> false
  | Cm.Karma | Cm.Greedy -> (
      let self_prio = Shm.get t.prios (flag_slot d.tid) in
      let enemy_prio = Shm.get t.prios (flag_slot enemy) in
      match
        Cm.on_enemy d.eff_cm ~self_prio ~enemy_prio ~self_tid:d.tid
          ~enemy_tid:enemy
      with
      | Cm.Abort_now -> false
      | Cm.Wait_retry -> wait_bounded t li Cm.wait_bound
      | Cm.Kill_enemy ->
          Shm.set t.kill_flags (flag_slot enemy) 1;
          wait_bounded t li Cm.wait_bound)

(* Remote-abort poll: a kill-capable enemy flagged us; honour it at the
   next barrier entry (never while irrevocable — those run alone inside
   the fence and cannot be aborted). *)
let check_killed t (d : tx) =
  if t.cm_active && Shm.get t.kill_flags (flag_slot d.tid) <> 0 then begin
    Shm.set t.kill_flags (flag_slot d.tid) 0;
    abort Stats.Killed
  end

(* Reading a version newer than the snapshot: extend (update transactions
   with a read set) or abort (read-only transactions cannot revalidate). *)
let extend_or_abort t (d : tx) =
  if d.read_only then abort Stats.Validation_failed
  else if not (extend t d) then abort Stats.Validation_failed

(* ------------------------------------------------------------------ *)
(* Read and write barriers (paper §3.1)                                *)
(* ------------------------------------------------------------------ *)

(* The hot path is the unlocked, in-snapshot read: every other case is a
   separate function kept out of line, so [read_word] stays small. *)
let rec read_word t (d : tx) addr =
  Shm.charge_local c_op;
  if d.irrevocable then read_serial t d addr
  else begin
    check_killed t d;
    let p = d.p in
    (* The partition counter must be snapshotted *before* first sampling
       the lock: writers increment their counter right after a successful
       CAS, so an increment absorbed into a snapshot taken here means the
       matching acquisition already happened and our lock check below will
       see it (locked, or released with a new version).  Snapshotting after
       the check would let an acquire-and-increment slip in between, and
       validation would wrongly take the fast path. *)
    let part =
      if d.read_only || not t.hier_on then 0
      else begin
        let i = Config.hier_index t.cfg addr in
        if not (Hmask.mem p.hmask_read i) then hier_touch_read t p i;
        i
      end
    in
    let li = lock_index t addr in
    let l1 = Shm.get t.locks li in
    if Lockenc.is_locked l1 then read_locked t d addr li l1
    else begin
      let v = Shm.get t.words addr in
      if l1 <> Shm.get t.locks li then
        (* The lock changed under us (concurrent acquire/release or a
           write-through abort bumping the incarnation): retry. *)
        read_word t d addr
      else if Lockenc.version l1 > p.rv then read_extend t d addr
      else begin
        if not d.read_only then G.push p.r_set.(part) li;
        if Probe.on () then Probe.read_accepted ~cpu:d.tid ~addr;
        d.stats.Stats.reads <- d.stats.Stats.reads + 1;
        v
      end
    end
  end

(* Serial slow path inside the fence: no concurrent transaction exists,
   memory is the truth. *)
and[@inline never] read_serial t (d : tx) addr =
  d.stats.Stats.reads <- d.stats.Stats.reads + 1;
  Shm.get t.words addr

and[@inline never] read_locked t (d : tx) addr li l1 =
  if Lockenc.owner l1 <> d.tid then
    if resolve_conflict t d li (Lockenc.owner l1) then read_word t d addr
    else abort Stats.Read_conflict
  else begin
    (* Read-after-write: we own the covering lock. *)
    d.stats.Stats.reads <- d.stats.Stats.reads + 1;
    match t.cfg.Config.strategy with
    | Config.Write_through ->
        (* Memory holds our latest value. *)
        Shm.get t.words addr
    | Config.Write_back ->
        (* Follow the lock's write-set chain; fall back to memory when the
           lock covers the address but we never wrote it (the committed
           value cannot change while we hold the lock). *)
        let p = d.p in
        let rec find e =
          if e = 0 then Shm.get t.words addr
          else
            let k = e - 1 in
            if G.get p.w_addr k = addr then G.get p.w_val k
            else find (G.get p.w_next k)
        in
        find (Lockenc.payload l1)
  end

(* A version newer than the snapshot: extend (or abort), then re-read so
   the value is covered by the moved snapshot. *)
and[@inline never] read_extend t (d : tx) addr =
  extend_or_abort t d;
  read_word t d addr

let rec write_word t (d : tx) addr v =
  Shm.charge_local c_op;
  if d.read_only then
    invalid_arg "Tinystm.write: transaction is read-only";
  if d.irrevocable then begin
    d.stats.Stats.writes <- d.stats.Stats.writes + 1;
    Shm.set t.words addr v
  end
  else begin
  check_killed t d;
  let p = d.p in
  let li = lock_index t addr in
  let l = Shm.get t.locks li in
  if Lockenc.is_locked l then begin
    if Lockenc.owner l <> d.tid then
      if resolve_conflict t d li (Lockenc.owner l) then write_word t d addr v
      else abort Stats.Write_conflict
    else begin
    (* Write-after-write under our own lock. *)
    (match t.cfg.Config.strategy with
    | Config.Write_through ->
        G.push p.u_addr addr;
        G.push p.u_val (Shm.get t.words addr);
        Shm.set t.words addr v
    | Config.Write_back -> (
        let rec find e =
          if e = 0 then None
          else
            let k = e - 1 in
            if G.get p.w_addr k = addr then Some k
            else find (G.get p.w_next k)
        in
        match find (Lockenc.payload l) with
        | Some k -> G.set p.w_val k v
        | None ->
            G.push p.w_addr addr;
            G.push p.w_val v;
            G.push p.w_next (Lockenc.payload l);
            Shm.set t.locks li
              (Lockenc.locked ~tid:d.tid ~payload:(G.length p.w_addr))));
    d.stats.Stats.writes <- d.stats.Stats.writes + 1
    end
  end
  else begin
    let ver = Lockenc.version l in
    if ver > p.rv then begin
      extend_or_abort t d;
      write_word t d addr v
    end
    else begin
      match t.cfg.Config.strategy with
      | Config.Write_back ->
          G.push p.w_addr addr;
          G.push p.w_val v;
          G.push p.w_next 0;
          if Probe.on () then
            Probe.perturb ~clk:t.ctl ~tid:d.tid d.stats Lock_cas;
          if
            Shm.cas t.locks li l
              (Lockenc.locked ~tid:d.tid ~payload:(G.length p.w_addr))
          then begin
            if Probe.on () then
              Probe.lock_acquired ~clk:t.ctl ~cpu:d.tid d.stats ~lock:li;
            hier_note_acquired t p addr;
            G.push p.l_idx li;
            G.push p.l_old l;
            d.stats.Stats.writes <- d.stats.Stats.writes + 1
          end
          else begin
            (* Lost the acquisition race: retract the entry and retry the
               whole procedure (the lock may now be owned or renewed). *)
            let n = G.length p.w_addr in
            G.shrink p.w_addr (n - 1);
            G.shrink p.w_val (n - 1);
            G.shrink p.w_next (n - 1);
            write_word t d addr v
          end
      | Config.Write_through ->
          if Probe.on () then
            Probe.perturb ~clk:t.ctl ~tid:d.tid d.stats Lock_cas;
          if Shm.cas t.locks li l (Lockenc.locked ~tid:d.tid ~payload:0)
          then begin
            if Probe.on () then
              Probe.lock_acquired ~clk:t.ctl ~cpu:d.tid d.stats ~lock:li;
            hier_note_acquired t p addr;
            G.push p.l_idx li;
            G.push p.l_old l;
            G.push p.u_addr addr;
            G.push p.u_val (Shm.get t.words addr);
            Shm.set t.words addr v;
            d.stats.Stats.writes <- d.stats.Stats.writes + 1
          end
          else write_word t d addr v
    end
  end
  end

(* A free is semantically an update: acquire every covering lock (by
   writing back the current values) so no concurrent reader can observe
   the block being recycled without a conflict; inside the fence there is
   no concurrency and the free is just deferred to the commit. *)
let free_words t (d : tx) addr n =
  if not d.irrevocable then
    for w = addr to addr + n - 1 do
      let v = read_word t d w in
      write_word t d w v
    done;
  log_free d addr n

(* ------------------------------------------------------------------ *)
(* Begin, commit and rollback                                          *)
(* ------------------------------------------------------------------ *)

(* The snapshot bound is the current clock; a clock at its limit must
   roll over (inside the fence) before any transaction can start. *)
let begin_ (d : tx) =
  let t = d.owner and p = d.p in
  if p.h_dim <> t.cfg.Config.hierarchy then
    fresh_hier_state p t.cfg.Config.hierarchy;
  p.rv <- Shm.get t.ctl clock_slot;
  if Probe.on () then Probe.clock_read ~cpu:d.tid ~value:p.rv;
  p.rv < t.max_clock - 1

let release_locks_commit t (d : tx) wv =
  let p = d.p in
  let n = G.length p.l_idx in
  let probing = Probe.on () in
  for k = 0 to n - 1 do
    Shm.set t.locks (G.get p.l_idx k)
      (Lockenc.unlocked ~version:wv ~incarnation:0);
    if probing then
      Probe.lock_released ~clk:t.ctl ~cpu:d.tid ~lock:(G.get p.l_idx k)
  done

let release_locks_abort t (d : tx) =
  let p = d.p in
  let n = G.length p.l_idx in
  let probing = Probe.on () in
  let released k =
    if probing then
      Probe.lock_released ~clk:t.ctl ~cpu:d.tid ~lock:(G.get p.l_idx k)
  in
  match t.cfg.Config.strategy with
  | Config.Write_back ->
      (* Memory was never touched: restore the previous lock words. *)
      for k = 0 to n - 1 do
        Shm.set t.locks (G.get p.l_idx k) (G.get p.l_old k);
        released k
      done
  | Config.Write_through ->
      (* Memory was written and restored: bump the incarnation so a racing
         reader that sampled the lock before our acquisition cannot pass
         its lock/re-check (paper §3.1).  On incarnation overflow, take a
         fresh version from the clock. *)
      for k = 0 to n - 1 do
        let old = G.get p.l_old k in
        let inc = Lockenc.incarnation old + 1 in
        let word =
          if inc <= Lockenc.max_incarnation then
            Lockenc.unlocked ~version:(Lockenc.version old) ~incarnation:inc
          else
            Lockenc.unlocked ~version:(Shm.get t.ctl clock_slot) ~incarnation:0
        in
        Shm.set t.locks (G.get p.l_idx k) word;
        released k
      done

let commit (d : tx) =
  let t = d.owner and p = d.p in
  if G.length p.l_idx = 0 then
    (* No locks acquired: the incremental snapshot is consistent as-is. *)
    p.rv
  else begin
    let wv = Shm.fetch_add t.ctl clock_slot 1 + 1 in
    if Probe.on () then Probe.clock_advance ~cpu:d.tid ~drawn:wv;
    if wv >= t.max_clock then abort Stats.Rollover;
    (* Validation is unnecessary when no other transaction committed since
       our snapshot bound (paper §3.2). *)
    if wv > p.rv + 1 then
      if not (validate t d) then abort Stats.Validation_failed;
    (match t.cfg.Config.strategy with
    | Config.Write_back ->
        let n = G.length p.w_addr in
        let words = t.words in
        for k = 0 to n - 1 do
          Shm.set words (G.get p.w_addr k) (G.get p.w_val k)
        done
    | Config.Write_through -> ());
    (* The snapshot-consistency check must see the write set still under
       lock, before any orec is released. *)
    if Probe.on () then Probe.commit_publish ~cpu:d.tid ~wv;
    release_locks_commit t d wv;
    wv
  end

let rollback (d : tx) =
  let t = d.owner and p = d.p in
  (match t.cfg.Config.strategy with
  | Config.Write_back -> ()
  | Config.Write_through ->
      (* Undo in reverse order so earlier values win for rewritten words. *)
      let words = t.words in
      for k = G.length p.u_addr - 1 downto 0 do
        Shm.set words (G.get p.u_addr k) (G.get p.u_val k)
      done);
  (* Shadow state must be restored while the orecs still protect the
     written words, i.e. before the releases below. *)
  if Probe.on () then Probe.tx_abort ~cpu:d.tid;
  release_locks_abort t d

(* Serialization stamp of an escalated run.  A clock wrap is handled
   inline: the fence is already held, which is all [roll_over] needs. *)
let serial_commit (d : tx) =
  let t = d.owner in
  let wv =
    let wv = Shm.fetch_add t.ctl clock_slot 1 + 1 in
    if wv < t.max_clock then wv
    else begin
      reset_clock t;
      Shm.fetch_add t.ctl clock_slot 1 + 1
    end
  in
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
      let rng_seed = 0x7153
      let memory t = t.mem
      let new_desc = new_desc
      let begin_ = begin_
      let commit = commit
      let rollback = rollback
      let serial_commit = serial_commit
      let cleanup = cleanup
      let roll_over = roll_over
    end)

type t = Core.t

let create ~kind ?(config = Config.default) ?(max_threads = 64)
    ?(max_clock = Lockenc.max_version - 64) ?(conflict_wait = 0)
    ?(max_retries = 0) ?(cm = Cm.default) ?watchdog ~memory_words () =
  Config.validate config;
  if max_threads < 1 || max_threads > Lockenc.max_tid + 1 then
    invalid_arg "Tinystm.create: max_threads out of range";
  if max_clock < 16 || max_clock > Lockenc.max_version - 1 then
    invalid_arg "Tinystm.create: max_clock out of range";
  if conflict_wait < 0 then
    invalid_arg "Tinystm.create: conflict_wait < 0";
  if max_retries < 0 then
    invalid_arg "Tinystm.create: max_retries < 0";
  let cm_active = cm_active ~cm ~watchdog in
  let cm_len = cm_words ~cm_active ~max_threads in
  (* Creation order fixes the simulator's global cache-line ids. *)
  let prios = Shm.make kind cm_len 0 in
  let kill_flags = Shm.make kind cm_len 0 in
  let flags = Shm.make kind (flag_slot max_threads + 8) 0 in
  let ctl = Shm.make kind ctl_len 0 in
  (* An unused word, kept so that every later array keeps the simulator
     cache lines it had when a second counter level was made here: the
     figures' output depends on that numbering. *)
  ignore (Shm.make kind 1 0);
  let hier = Shm.make kind config.Config.hierarchy 0 in
  let locks =
    Shm.make_locks kind ~n_locks:config.Config.n_locks
      ~shifts:config.Config.shifts ~capacity:memory_words
  in
  let mem = V.create ~kind ~words:memory_words in
  let words = V.words mem in
  Shm.label locks "locks";
  Shm.label hier "hier";
  Shm.label words "mem";
  Core.make
    {
      mem;
      words;
      cfg = config;
      shifts = config.Config.shifts;
      lock_mask = config.Config.n_locks - 1;
      hier_on = config.Config.hierarchy > 1;
      locks;
      hier;
      ctl;
      max_clock;
      conflict_wait;
      cm_active;
      kill_flags;
      prios;
      kind;
    }
    ~ctl ~mode_slot ~flags ~prios ~kill_flags ~max_threads ~max_retries ~cm
    ?watchdog ()

let memory t = (Core.fam t).mem
let config t = (Core.fam t).cfg
let clock_value t = Shm.get (Core.fam t).ctl clock_slot
let rollovers t = Shm.get (Core.fam t).ctl rollover_slot

(* Re-tuning reuses the roll-over fence (paper §4.2): fresh lock and
   hierarchy arrays, and the clock restarts from zero. *)
let set_config t cfg =
  Config.validate cfg;
  let d = Core.desc_for t in
  if d.in_tx then invalid_arg "Tinystm.set_config: inside a transaction";
  Core.fence_and t (fun () ->
      let f = Core.fam t in
      f.cfg <- cfg;
      f.shifts <- cfg.Config.shifts;
      f.lock_mask <- cfg.Config.n_locks - 1;
      f.hier_on <- cfg.Config.hierarchy > 1;
      f.locks <-
        Shm.make_locks f.kind ~n_locks:cfg.Config.n_locks
          ~shifts:cfg.Config.shifts ~capacity:(V.capacity f.mem);
      f.hier <- Shm.make f.kind cfg.Config.hierarchy 0;
      (* The unused word of [create], for the same line numbering. *)
      ignore (Shm.make f.kind 1 0);
      Shm.label f.locks "locks";
      Shm.label f.hier "hier";
      Shm.set f.ctl clock_slot 0;
      if Probe.on () then Probe.reconfigured ())

(* ------------------------------------------------------------------ *)
(* Public TM operations                                                *)
(* ------------------------------------------------------------------ *)

let read (tx : tx) addr = read_word tx.owner tx addr
let write (tx : tx) addr v = write_word tx.owner tx addr v
let alloc = Core.alloc
let free (tx : tx) addr n = free_words tx.owner tx addr n
let atomically = Core.atomically
let atomically_stamped = Core.atomically_stamped
let stats = Core.stats
let reset_stats = Core.reset_stats

(* The registry packaging, one per write strategy: the strategy is part of
   the STM's identity (the paper compares WB and WT as distinct
   competitors), not a tuning knob. *)
module Packed (S : sig
  val name : string
  val strategy : Config.strategy
end) : Tstm_tm.Tm_intf.PACKED = struct
  module Intf = Tstm_tm.Tm_intf

  type nonrec t = t
  type nonrec tx = tx

  let name = S.name
  let family = "tinystm"

  let capabilities =
    {
      Intf.lock_array = true;
      dynamic_reconfig = true;
      read_only_fastpath = true;
      snapshot_extension = true;
    }

  let config_of_tuning (tu : Intf.tuning) =
    Config.make ~n_locks:tu.Intf.n_locks ~shifts:tu.Intf.shifts
      ~hierarchy:tu.Intf.hierarchy
      ~strategy:S.strategy ()

  let create ~kind ?(tuning = Intf.default_tuning) ?max_retries ?cm
      ?watchdog ~memory_words () =
    create ~kind ~config:(config_of_tuning tuning) ?max_retries ?cm
      ?watchdog ~memory_words ()

  let configure t tuning = set_config t (config_of_tuning tuning)
  let live_words t = V.live_words (memory t)
  let read = read
  let write = write
  let alloc = alloc
  let free = free
  let atomically = atomically
  let stats = stats
  let reset_stats = reset_stats
end

module Stm = struct
  module Write_back = Packed (struct
    let name = "tinystm-wb"
    let strategy = Config.Write_back
  end)

  module Write_through = Packed (struct
    let name = "tinystm-wt"
    let strategy = Config.Write_through
  end)
end
