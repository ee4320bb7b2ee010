(* FastTrack-style happens-before sanitizer over the simulated word memory.

   One vector clock per simulated CPU; release/acquire edges mirror the
   synchronization the STM protocols actually perform (orec CAS, global
   clock, quiescence fence, run fork/join).  Word shadow state is
   epoch-compressed: the last writer's [(clock, cpu)] packed in one int,
   plus a status int (published version / pending / raw).

   Reader-side ordering is deliberately NOT checked through epochs: an
   invisible-read STM is physically racy on the reader side by design (a
   committer may overwrite a word an active reader has sampled; the reader
   then fails validation).  Readers are instead checked against versions —
   accepted reads must sit at or below the snapshot bound, and at commit no
   logged read may have been superseded inside the transaction's
   serialization scope.  The latter is the check the armed protocol bugs
   (skip-validation, skip-extension) trip. *)

module G = Tstm_util.Growbuf
module Tap = Tstm_runtime.Tap

type kind =
  | Ww_race
  | Raw_race
  | Dirty_read
  | Stale_read
  | Read_beyond_snapshot
  | Lock_not_held
  | Double_acquire
  | Orec_leak
  | Clock_publish
  | Use_after_free

let kind_name = function
  | Ww_race -> "ww-race"
  | Raw_race -> "raw-race"
  | Dirty_read -> "dirty-read"
  | Stale_read -> "stale-read"
  | Read_beyond_snapshot -> "read-beyond-snapshot"
  | Lock_not_held -> "lock-not-held"
  | Double_acquire -> "double-acquire"
  | Orec_leak -> "orec-leak"
  | Clock_publish -> "clock-publish"
  | Use_after_free -> "use-after-free"

type finding = {
  kind : kind;
  cpu : int;
  other : int;
  label : string;
  addr : int;
  detail : string;
}

let render f =
  Printf.sprintf "%s cpu=%d %s:%d — %s" (kind_name f.kind) f.cpu f.label
    f.addr f.detail

(* Shadow status codes; [>= 0] is a published commit version. *)
let st_pending = -1
let st_raw = -2

(* Epoch packing: [(clock lsl 8) lor cpu]; the all-zero epoch is bottom. *)
let ep_cpu e = e land 255
let ep_clk e = e asr 8

type state = {
  ncpus : int;
  max_findings : int;
  vc : int array array;  (* C: one clock per CPU *)
  clock_vc : int array;  (* K: release history of the global clock word *)
  mode_vc : int array;  (* release history of the fence mode word *)
  park_vc : int array array;  (* T: release history of each fence flag *)
  lock_vc : (int, int array) Hashtbl.t;  (* L: per lock-array slot *)
  lock_owner : (int, int) Hashtbl.t;  (* current holder, [-1] = free *)
  seq_vc : int array;  (* release history of the global sequence lock *)
  mutable seq_owner : int;  (* committing holder of the seqlock, [-1] = free *)
  owned : G.t array;  (* per-CPU list of held lock slots *)
  mutable w_ep : int array;  (* per-word last-writer epoch *)
  mutable w_st : int array;  (* per-word status *)
  mutable a_st : Bytes.t;  (* 0 unknown / 1 allocated / 2 freed *)
  in_tx : bool array;
  rv : int array;  (* snapshot bound per CPU *)
  drawn : int array;  (* clock value drawn this tx; [-1] = none *)
  published : bool array;  (* commit_publish ran this tx *)
  rlog : G.t array;  (* accepted reads: (addr, epoch, status) triples *)
  wlog : G.t array;  (* writes: (addr, prev epoch, prev status) triples *)
  mutable findings_rev : finding list;
  mutable n_findings : int;
  mutable dropped : int;
}

let state : state option ref = ref None
let armed = ref false
let enabled () = !armed

let make ~ncpus ~max_findings =
  if ncpus < 1 || ncpus > 256 then invalid_arg "San.arm: ncpus";
  {
    ncpus;
    max_findings;
    vc = Array.init ncpus (fun _ -> Array.make ncpus 0);
    clock_vc = Array.make ncpus 0;
    mode_vc = Array.make ncpus 0;
    park_vc = Array.init ncpus (fun _ -> Array.make ncpus 0);
    lock_vc = Hashtbl.create 64;
    lock_owner = Hashtbl.create 64;
    seq_vc = Array.make ncpus 0;
    seq_owner = -1;
    owned = Array.init ncpus (fun _ -> G.create 8);
    w_ep = Array.make 4096 0;
    w_st = Array.make 4096 0;
    a_st = Bytes.make 4096 '\000';
    in_tx = Array.make ncpus false;
    rv = Array.make ncpus 0;
    drawn = Array.make ncpus (-1);
    published = Array.make ncpus false;
    rlog = Array.init ncpus (fun _ -> G.create 64);
    wlog = Array.init ncpus (fun _ -> G.create 64);
    findings_rev = [];
    n_findings = 0;
    dropped = 0;
  }

let report s ~kind ~cpu ?(other = -1) ?(label = "mem") ~addr detail =
  if s.n_findings >= s.max_findings then s.dropped <- s.dropped + 1
  else begin
    s.findings_rev <- { kind; cpu; other; label; addr; detail } :: s.findings_rev;
    s.n_findings <- s.n_findings + 1
  end

let join dst src =
  for i = 0 to Array.length dst - 1 do
    if src.(i) > dst.(i) then dst.(i) <- src.(i)
  done

let epoch s cpu = (s.vc.(cpu).(cpu) lsl 8) lor cpu

(* Does epoch [e] happen before [cpu]'s current point? *)
let covered s cpu e = s.vc.(cpu).(ep_cpu e) >= ep_clk e

let ensure_shadow s addr =
  let n = Array.length s.w_ep in
  if addr >= n then begin
    let n' = ref (n * 2) in
    while addr >= !n' do
      n' := !n' * 2
    done;
    let ep = Array.make !n' 0 and st = Array.make !n' 0 in
    Array.blit s.w_ep 0 ep 0 n;
    Array.blit s.w_st 0 st 0 n;
    let ast = Bytes.make !n' '\000' in
    Bytes.blit s.a_st 0 ast 0 n;
    s.w_ep <- ep;
    s.w_st <- st;
    s.a_st <- ast
  end

let lock_clock s lk =
  match Hashtbl.find_opt s.lock_vc lk with
  | Some v -> v
  | None ->
      let v = Array.make s.ncpus 0 in
      Hashtbl.add s.lock_vc lk v;
      v

let uaf_check s ~cpu ~addr what =
  if Bytes.get s.a_st addr = '\002' then
    report s ~kind:Use_after_free ~cpu ~addr (what ^ " of a freed word")

(* --- memory access checks ------------------------------------------------ *)

let tx_write s ~cpu ~addr =
  ensure_shadow s addr;
  uaf_check s ~cpu ~addr "transactional write";
  let pep = s.w_ep.(addr) and pst = s.w_st.(addr) in
  (if pst = st_pending then begin
     let o = ep_cpu pep in
     if o <> cpu then
       report s ~kind:Ww_race ~cpu ~other:o ~addr
         (Printf.sprintf
            "transactional write while cpu=%d's transactional write to the \
             same word is still in flight (no orec edge between them)"
            o)
   end
   else if not (covered s cpu pep) then begin
     let o = ep_cpu pep in
     let kind = if pst = st_raw then Raw_race else Ww_race in
     report s ~kind ~cpu ~other:o ~addr
       (Printf.sprintf
          "transactional write not ordered after the previous %s by \
           cpu=%d@%d (no release→acquire edge)"
          (if pst = st_raw then "raw store" else "transactional write")
          o (ep_clk pep))
   end);
  let w = s.wlog.(cpu) in
  G.push w addr;
  G.push w pep;
  G.push w pst;
  s.w_ep.(addr) <- epoch s cpu;
  s.w_st.(addr) <- st_pending

let raw_store s ~cpu ~addr =
  ensure_shadow s addr;
  uaf_check s ~cpu ~addr "raw store";
  let pep = s.w_ep.(addr) and pst = s.w_st.(addr) in
  (if pst = st_pending then begin
     let o = ep_cpu pep in
     if o <> cpu then
       report s ~kind:Raw_race ~cpu ~other:o ~addr
         (Printf.sprintf
            "raw store while cpu=%d's transactional write to the same word \
             is in flight"
            o)
   end
   else if not (covered s cpu pep) then
     report s ~kind:Raw_race ~cpu ~other:(ep_cpu pep) ~addr
       (Printf.sprintf
          "raw store not ordered after the previous write by cpu=%d@%d"
          (ep_cpu pep) (ep_clk pep)));
  s.w_ep.(addr) <- epoch s cpu;
  s.w_st.(addr) <- st_raw

let raw_load s ~cpu ~addr =
  ensure_shadow s addr;
  uaf_check s ~cpu ~addr "raw load";
  let pep = s.w_ep.(addr) and pst = s.w_st.(addr) in
  if pst = st_pending then begin
    let o = ep_cpu pep in
    if o <> cpu then
      report s ~kind:Raw_race ~cpu ~other:o ~addr
        (Printf.sprintf
           "raw load while cpu=%d's transactional write to the same word is \
            in flight"
           o)
  end
  else if not (covered s cpu pep) then
    report s ~kind:Raw_race ~cpu ~other:(ep_cpu pep) ~addr
      (Printf.sprintf
         "raw load not ordered after the %s by cpu=%d@%d"
         (if pst = st_raw then "raw store" else "transactional write")
         (ep_cpu pep) (ep_clk pep))

(* The shadow a word had before this transaction's own first write to it:
   the first write-log triple for [addr] (pushed by [tx_write] in write
   order).  Without this, a read-modify-write hides a foreign republish of
   the word behind the transaction's own pending shadow. *)
let pre_write_shadow s cpu addr ~ep ~st =
  let wl = s.wlog.(cpu) in
  let n = G.length wl in
  let rec find k =
    if k >= n then (ep, st)
    else if G.get wl k = addr then (G.get wl (k + 1), G.get wl (k + 2))
    else find (k + 3)
  in
  find 0

(* Snapshot consistency: no logged read may have been superseded at or
   below [scope] (the commit's serialization point) by a foreign write.
   All reads of a word precede the transaction's own first write to it
   (later reads are served from the write set / under the own lock and are
   not logged), and a foreign publish cannot interleave with our writes
   (the orec protects the word from first store to release) — so judging
   self-pending words against the pre-write shadow is exact. *)
let stale_check s cpu ~scope =
  let rl = s.rlog.(cpu) in
  let n = G.length rl in
  let k = ref 0 in
  while !k < n do
    let addr = G.get rl !k
    and oep = G.get rl (!k + 1)
    and ost = G.get rl (!k + 2) in
    let cep = s.w_ep.(addr) and cst = s.w_st.(addr) in
    let cep, cst =
      if cst = st_pending && ep_cpu cep = cpu then
        pre_write_shadow s cpu addr ~ep:cep ~st:cst
      else (cep, cst)
    in
    (* A bottom shadow (all-zero epoch) means the word was freed and
       re-allocated since the read: a fresh life carrying no version
       information, not a republish at version 0.  Lifetime misuse is the
       allocator checks' business ([Use_after_free] fires on the access
       itself). *)
    if (cep <> oep || cst <> ost) && ep_cpu cep <> cpu && not (cep = 0 && cst = 0)
    then begin
      if cst = st_raw then
        report s ~kind:Raw_race ~cpu ~other:(ep_cpu cep) ~addr
          (Printf.sprintf
             "read accepted at %s was overwritten by a raw store by cpu=%d \
              before the transaction committed"
             (if ost >= 0 then "version " ^ string_of_int ost else "bottom")
             (ep_cpu cep))
      else if cst >= 0 && cst <= scope then
        report s ~kind:Stale_read ~cpu ~other:(ep_cpu cep) ~addr
          (Printf.sprintf
             "read accepted at %s was republished at version %d <= \
              serialization point %d by cpu=%d: the commit-time validation \
              that should have caught this did not run"
             (if ost >= 0 then "version " ^ string_of_int ost else "bottom")
             cst scope (ep_cpu cep))
      (* [cst = st_pending]: an in-flight foreign committer; its write
         version will exceed [scope], so the read is not stale under this
         serialization point. *)
    end;
    k := !k + 3
  done

(* --- STM annotations ----------------------------------------------------- *)

let with_state cpu f =
  match !state with
  | Some s when !armed && cpu >= 0 && cpu < s.ncpus -> f s
  | _ -> ()

let tx_begin ~cpu =
  with_state cpu (fun s ->
      s.in_tx.(cpu) <- true;
      s.published.(cpu) <- false;
      s.drawn.(cpu) <- -1;
      G.clear s.rlog.(cpu);
      G.clear s.wlog.(cpu))

let read_accept ~cpu ~addr =
  with_state cpu (fun s ->
      ensure_shadow s addr;
      uaf_check s ~cpu ~addr "transactional read";
      let ep = s.w_ep.(addr) and st = s.w_st.(addr) in
      let pc = ep_cpu ep in
      (if st = st_pending then begin
         if pc <> cpu then
           report s ~kind:Dirty_read ~cpu ~other:pc ~addr
             (Printf.sprintf
                "accepted a read of cpu=%d's in-flight (uncommitted) write"
                pc)
       end
       else if st = st_raw then begin
         if pc <> cpu && not (covered s cpu ep) then
           report s ~kind:Raw_race ~cpu ~other:pc ~addr
             (Printf.sprintf
                "transactional read of an unsynchronized raw store by \
                 cpu=%d@%d"
                pc (ep_clk ep))
       end
       else if st > s.rv.(cpu) && pc <> cpu then
         report s ~kind:Read_beyond_snapshot ~cpu ~other:pc ~addr
           (Printf.sprintf
              "accepted a read of version %d above the snapshot bound %d" st
              s.rv.(cpu)));
      let rl = s.rlog.(cpu) in
      G.push rl addr;
      G.push rl ep;
      G.push rl st)

let clock_read ~cpu ~value =
  with_state cpu (fun s ->
      s.rv.(cpu) <- value;
      join s.vc.(cpu) s.clock_vc)

let clock_advance ~cpu ~drawn =
  with_state cpu (fun s ->
      join s.vc.(cpu) s.clock_vc;
      join s.clock_vc s.vc.(cpu);
      s.vc.(cpu).(cpu) <- s.vc.(cpu).(cpu) + 1;
      s.drawn.(cpu) <- drawn)

let lock_acquire ~cpu ~lock =
  with_state cpu (fun s ->
      (match Hashtbl.find_opt s.lock_owner lock with
      | Some o when o >= 0 ->
          report s ~kind:Double_acquire ~cpu ~other:o ~label:"locks"
            ~addr:lock
            (if o = cpu then "acquired an orec it already holds"
             else Printf.sprintf "acquired an orec still held by cpu=%d" o)
      | _ -> ());
      Hashtbl.replace s.lock_owner lock cpu;
      G.push s.owned.(cpu) lock;
      join s.vc.(cpu) (lock_clock s lock))

let owned_remove o lk =
  let n = G.length o in
  let rec find k = if k >= n then -1 else if G.get o k = lk then k else find (k + 1) in
  let k = find 0 in
  if k >= 0 then begin
    G.set o k (G.get o (n - 1));
    G.shrink o (n - 1);
    true
  end
  else false

let lock_release ~cpu ~lock =
  with_state cpu (fun s ->
      (match Hashtbl.find_opt s.lock_owner lock with
      | Some o when o = cpu ->
          ignore (owned_remove s.owned.(cpu) lock);
          Hashtbl.replace s.lock_owner lock (-1)
      | Some o when o >= 0 ->
          report s ~kind:Lock_not_held ~cpu ~other:o ~label:"locks" ~addr:lock
            (Printf.sprintf "released an orec held by cpu=%d" o)
      | _ ->
          report s ~kind:Lock_not_held ~cpu ~label:"locks" ~addr:lock
            "released an orec it does not hold (double release?)");
      let l = lock_clock s lock in
      join l s.vc.(cpu);
      s.vc.(cpu).(cpu) <- s.vc.(cpu).(cpu) + 1)

(* --- global sequence lock (NOrec) ---------------------------------------- *)

(* There is exactly one global sequence lock, reported as slot 0 of the
   ["seqlock"] label.  Acquire = the even→odd CAS a writer wins before
   write-back; release = publishing the next even value; validate = a
   successful value-based revalidation of the whole read set against an
   even sequence value. *)

let seqlock_acquire ~cpu ~drawn =
  with_state cpu (fun s ->
      (if s.seq_owner >= 0 then
         report s ~kind:Double_acquire ~cpu ~other:s.seq_owner
           ~label:"seqlock" ~addr:0
           (if s.seq_owner = cpu then
              "acquired the sequence lock it already holds"
            else
              Printf.sprintf
                "acquired the sequence lock while cpu=%d is still committing"
                s.seq_owner));
      s.seq_owner <- cpu;
      join s.vc.(cpu) s.seq_vc;
      (* The version to be published at release plays the role a drawn clock
         value plays in orec STMs; [commit_publish] checks they agree. *)
      s.drawn.(cpu) <- drawn)

let seqlock_release ~cpu =
  with_state cpu (fun s ->
      (if s.seq_owner = cpu then s.seq_owner <- -1
       else if s.seq_owner >= 0 then
         report s ~kind:Lock_not_held ~cpu ~other:s.seq_owner ~label:"seqlock"
           ~addr:0
           (Printf.sprintf "released the sequence lock held by cpu=%d"
              s.seq_owner)
       else
         report s ~kind:Lock_not_held ~cpu ~label:"seqlock" ~addr:0
           "released the sequence lock it does not hold");
      join s.seq_vc s.vc.(cpu);
      s.vc.(cpu).(cpu) <- s.vc.(cpu).(cpu) + 1)

let seqlock_validate ~cpu ~value =
  with_state cpu (fun s ->
      join s.vc.(cpu) s.seq_vc;
      s.rv.(cpu) <- value;
      (* A passed value-based validation re-certifies the entire read set at
         the new snapshot: refresh every logged read to the word's current
         shadow so later stale checks judge against this validation point,
         not the original accept.  This is what makes value validation
         admissible to a version-based sanitizer — a benign same-value
         republish stops mattering once re-certified, while genuine
         protocol breakage still trips the commit-time check, because the
         commit CAS only succeeds when nothing republished after the last
         validation. *)
      let rl = s.rlog.(cpu) in
      let n = G.length rl in
      let k = ref 0 in
      while !k < n do
        let addr = G.get rl !k in
        let cep = s.w_ep.(addr) and cst = s.w_st.(addr) in
        let cep, cst =
          if cst = st_pending && ep_cpu cep = cpu then
            pre_write_shadow s cpu addr ~ep:cep ~st:cst
          else (cep, cst)
        in
        G.set rl (!k + 1) cep;
        G.set rl (!k + 2) cst;
        k := !k + 3
      done)

let commit_publish ~cpu ~wv =
  with_state cpu (fun s ->
      if s.in_tx.(cpu) then begin
        if s.drawn.(cpu) <> wv then
          report s ~kind:Clock_publish ~cpu ~label:"ctl" ~addr:0
            (Printf.sprintf
               "commit publishes version %d but the transaction drew %s from \
                the global clock"
               wv
               (if s.drawn.(cpu) < 0 then "nothing"
                else "version " ^ string_of_int s.drawn.(cpu)));
        stale_check s cpu ~scope:wv;
        s.published.(cpu) <- true;
        let e = epoch s cpu in
        let w = s.wlog.(cpu) in
        let n = G.length w in
        let k = ref 0 in
        while !k < n do
          let addr = G.get w !k in
          s.w_ep.(addr) <- e;
          s.w_st.(addr) <- wv;
          k := !k + 3
        done
      end)

let tx_abort ~cpu =
  with_state cpu (fun s ->
      if s.in_tx.(cpu) then begin
        (* Restore in reverse so a word written (or undone) several times
           lands back on its pre-transaction shadow state. *)
        let w = s.wlog.(cpu) in
        let k = ref (G.length w - 3) in
        while !k >= 0 do
          let addr = G.get w !k in
          s.w_ep.(addr) <- G.get w (!k + 1);
          s.w_st.(addr) <- G.get w (!k + 2);
          k := !k - 3
        done;
        G.clear w
      end)

let tx_exit ~cpu ~committed =
  with_state cpu (fun s ->
      if s.in_tx.(cpu) then begin
        if committed && not s.published.(cpu) then
          (* Lock-free commit (read-only, or an empty write set): the
             transaction serializes at its snapshot bound. *)
          stale_check s cpu ~scope:s.rv.(cpu);
        let o = s.owned.(cpu) in
        let n = G.length o in
        if n > 0 then begin
          for k = 0 to n - 1 do
            let lk = G.get o k in
            report s ~kind:Orec_leak ~cpu ~label:"locks" ~addr:lk
              (Printf.sprintf "orec still held after %s exit"
                 (if committed then "commit" else "abort"));
            Hashtbl.replace s.lock_owner lk (-1)
          done;
          G.clear o
        end;
        if s.seq_owner = cpu then begin
          report s ~kind:Orec_leak ~cpu ~label:"seqlock" ~addr:0
            (Printf.sprintf "sequence lock still held after %s exit"
               (if committed then "commit" else "abort"));
          s.seq_owner <- -1
        end;
        s.in_tx.(cpu) <- false;
        G.clear s.rlog.(cpu);
        G.clear s.wlog.(cpu)
      end)

let thread_park ~cpu =
  with_state cpu (fun s ->
      join s.park_vc.(cpu) s.vc.(cpu);
      s.vc.(cpu).(cpu) <- s.vc.(cpu).(cpu) + 1)

let fence_pass ~cpu = with_state cpu (fun s -> join s.vc.(cpu) s.mode_vc)

let fence_owner_entry ~cpu =
  with_state cpu (fun s ->
      join s.vc.(cpu) s.mode_vc;
      for j = 0 to s.ncpus - 1 do
        join s.vc.(cpu) s.park_vc.(j)
      done)

let fence_owner_exit ~cpu =
  with_state cpu (fun s ->
      join s.mode_vc s.vc.(cpu);
      s.vc.(cpu).(cpu) <- s.vc.(cpu).(cpu) + 1)

let rollover ~cpu =
  with_state cpu (fun s ->
      (* Published versions restart from zero after a clock rollover; the
         fence guarantees no transaction is in flight across it. *)
      for addr = 0 to Array.length s.w_st - 1 do
        if s.w_st.(addr) > 0 then s.w_st.(addr) <- 0
      done)

(* --- tap consumption ----------------------------------------------------- *)

let on_access ~cpu ~label ~index kind =
  match !state with
  | Some s when cpu >= 0 && cpu < s.ncpus && String.equal label "mem" -> (
      match kind with
      | Tap.Set | Tap.Faa | Tap.Cas true ->
          if s.in_tx.(cpu) then tx_write s ~cpu ~addr:index
          else raw_store s ~cpu ~addr:index
      | Tap.Cas false -> ()
      | Tap.Get ->
          (* Transactional reads are judged at their accept point
             ({!read_accept}); a bare in-transaction probe of a possibly
             locked word carries no obligation. *)
          if not s.in_tx.(cpu) then raw_load s ~cpu ~addr:index)
  | _ -> ()

let on_vmm_load ~cpu ~addr =
  match !state with
  | Some s when cpu >= 0 && cpu < s.ncpus -> raw_load s ~cpu ~addr
  | _ -> ()

let on_vmm_store ~cpu ~addr =
  match !state with
  | Some s when cpu >= 0 && cpu < s.ncpus -> raw_store s ~cpu ~addr
  | _ -> ()

let on_vmm_alloc ~cpu ~addr ~len =
  match !state with
  | Some s when cpu >= 0 && cpu < s.ncpus ->
      ensure_shadow s (addr + len - 1);
      for a = addr to addr + len - 1 do
        (* A fresh life for these words: forget the previous one's shadow
           (the TSan convention), mark allocated. *)
        s.w_ep.(a) <- 0;
        s.w_st.(a) <- 0;
        Bytes.set s.a_st a '\001'
      done
  | _ -> ()

let on_vmm_free ~cpu ~addr ~len =
  match !state with
  | Some s when cpu >= 0 && cpu < s.ncpus ->
      ensure_shadow s (addr + len - 1);
      for a = addr to addr + len - 1 do
        Bytes.set s.a_st a '\002'
      done
  | _ -> ()

let on_run_boundary () =
  match !state with
  | Some s ->
      (* Fork/join: every CPU starts the next run knowing everything, with
         its own component bumped so post-boundary epochs are fresh. *)
      let sup = Array.make s.ncpus 0 in
      for c = 0 to s.ncpus - 1 do
        join sup s.vc.(c)
      done;
      for c = 0 to s.ncpus - 1 do
        Array.blit sup 0 s.vc.(c) 0 s.ncpus;
        s.vc.(c).(c) <- sup.(c) + 1
      done
  | None -> ()

(* --- arming -------------------------------------------------------------- *)

let arm ?(max_findings = 64) ~ncpus () =
  let s = make ~ncpus ~max_findings in
  state := Some s;
  armed := true;
  Tstm_util.Gate.set Tstm_util.Gate.San true;
  Tap.install
    (Some
       {
         Tap.on_access;
         on_vmm_load;
         on_vmm_store;
         on_vmm_alloc;
         on_vmm_free;
         on_run_boundary;
       })

let disarm () =
  Tap.install None;
  armed := false;
  Tstm_util.Gate.set Tstm_util.Gate.San false

let findings () =
  match !state with None -> [] | Some s -> List.rev s.findings_rev


let summary () =
  match !state with
  | None -> "sanitizer never armed"
  | Some s when s.n_findings = 0 -> "clean"
  | Some s ->
      let tbl = Hashtbl.create 8 in
      List.iter
        (fun f ->
          let k = kind_name f.kind in
          Hashtbl.replace tbl k
            (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
        s.findings_rev;
      let parts =
        Hashtbl.fold (fun k n acc -> Printf.sprintf "%s×%d" k n :: acc) tbl []
        |> List.sort compare
      in
      Printf.sprintf "%d finding%s: %s%s" s.n_findings
        (if s.n_findings = 1 then "" else "s")
        (String.concat ", " parts)
        (if s.dropped > 0 then Printf.sprintf " (+%d dropped)" s.dropped
         else "")

let with_armed ?max_findings ~ncpus f =
  arm ?max_findings ~ncpus ();
  Fun.protect ~finally:disarm (fun () ->
      let r = f () in
      (r, findings ()))
