module Tap = Tstm_runtime.Tap
module Plan = Tstm_chaos.Plan
module Shm = Tstm_runtime.Shm

let max_class = 256
let null = 0

(* Control-word layout inside [ctl]:
   0                      bump pointer (next fresh address)
   1                      live word counter
   2                      total-allocated counter
   3 .. 3+max_class-1     free-list head per size class (0 = empty)
   3+max_class ..         spin lock per size class
   3+2*max_class          spin lock for the large-block extent table      *)
type t = {
  words : Shm.t;
  ctl : Shm.t;
  capacity : int;
  (* Extents of live non-recyclable (bump-allocated) blocks, so their
     frees are validated too.  Mutated only under [large_lock_slot]. *)
  large : (int, int) Hashtbl.t;
}

let bump_slot = 0
let live_slot = 1
let total_slot = 2
let head_slot n = 3 + (n - 1)
let lock_slot n = 3 + max_class + (n - 1)
let large_lock_slot = 3 + (2 * max_class)

let create ~kind ~words:n =
  if n < 1 then invalid_arg "Vmm.create: words < 1";
  let t =
    {
      words = Shm.make_words kind (n + 1) 0;
      (* +1: address 0 is reserved *)
      ctl = Shm.make kind (4 + (2 * max_class)) 0;
      capacity = n;
      large = Hashtbl.create 16;
    }
  in
  Shm.set t.ctl bump_slot 1;
  t

let capacity t = t.capacity
let words t = t.words

let check_addr t addr =
  if addr < 1 || addr > t.capacity then
    invalid_arg (Printf.sprintf "Vmm: address %d out of bounds" addr)

(* Raw accesses announce themselves on the tap as explicit
   non-transactional events; the underlying word access is bracketed with
   [suspend]/[resume] so it is not double-reported through the generic
   array tap. *)

let load t addr =
  check_addr t addr;
  Tap.suspend ();
  let v = Shm.get t.words addr in
  Tap.resume ();
  Tap.vmm_load ~addr;
  v

let store t addr v =
  check_addr t addr;
  Tap.suspend ();
  Shm.set t.words addr v;
  Tap.resume ();
  Tap.vmm_store ~addr

let lock t slot =
  while not (Shm.cas t.ctl slot 0 1) do
    Shm.yield ()
  done

let unlock t slot = Shm.set t.ctl slot 0

let bump t n =
  let base = Shm.fetch_add t.ctl bump_slot n in
  if base + n - 1 > t.capacity then raise Out_of_memory;
  base

(* Free-list manipulation threads next pointers through the freed blocks
   themselves; those arena-word accesses are allocator protocol, not data,
   so they are hidden from the tap. *)

let alloc t n =
  if n < 1 then invalid_arg "Vmm.alloc: size < 1";
  (* Injected allocation failure fires before any allocator state is
     touched, so a faulted alloc is indistinguishable from genuine
     exhaustion and leaves the accounting intact by construction. *)
  (if Plan.enabled () then
     match Plan.at Alloc ~tid:(Shm.tid ()) with
     | Oom -> raise Out_of_memory
     | _ -> ());
  let base =
    Tap.suspend ();
    Fun.protect ~finally:Tap.resume (fun () ->
        if n > max_class then begin
          let base = bump t n in
          lock t large_lock_slot;
          Hashtbl.replace t.large base n;
          unlock t large_lock_slot;
          base
        end
        else begin
          lock t (lock_slot n);
          let head = Shm.get t.ctl (head_slot n) in
          if head = null then begin
            unlock t (lock_slot n);
            bump t n
          end
          else begin
            (* Pop: the first word of a free block holds the next pointer. *)
            Shm.set t.ctl (head_slot n) (Shm.get t.words head);
            unlock t (lock_slot n);
            head
          end
        end)
  in
  ignore (Shm.fetch_add t.ctl live_slot n);
  ignore (Shm.fetch_add t.ctl total_slot n);
  Tap.vmm_alloc ~addr:base ~len:n;
  base

let free t addr n =
  if n < 1 then invalid_arg "Vmm.free: size < 1";
  check_addr t addr;
  check_addr t (addr + n - 1);
  Tap.suspend ();
  Fun.protect ~finally:Tap.resume (fun () ->
      if n <= max_class then begin
        lock t (lock_slot n);
        (* Double-free detection: the block must not already sit on its
           size class's free list.  O(list length) under the class lock —
           fine for a simulator arena whose lists stay short; a production
           allocator would pay one guard word per block instead.  Freeing
           the same address under a *different* size class is not
           detectable here. *)
        let b = ref (Shm.get t.ctl (head_slot n)) in
        let dup = ref false in
        while (not !dup) && !b <> null do
          if !b = addr then dup := true else b := Shm.get t.words !b
        done;
        if !dup then begin
          unlock t (lock_slot n);
          invalid_arg
            (Printf.sprintf "Vmm.free: double free of block %d (size %d)"
               addr n)
        end;
        Shm.set t.words addr (Shm.get t.ctl (head_slot n));
        Shm.set t.ctl (head_slot n) addr;
        unlock t (lock_slot n)
      end
      else begin
        (* Non-recyclable blocks stay leaked (bump-only), but their frees
           are validated against the recorded extent: freeing a block that
           was never allocated, was already freed, or with a size other
           than the one it was allocated with raises. *)
        lock t large_lock_slot;
        let known = Hashtbl.find_opt t.large addr in
        (match known with
        | Some m when m = n -> Hashtbl.remove t.large addr
        | _ -> ());
        unlock t large_lock_slot;
        match known with
        | Some m when m = n -> ()
        | Some m ->
            invalid_arg
              (Printf.sprintf
                 "Vmm.free: large block %d allocated with size %d, freed \
                  with size %d"
                 addr m n)
        | None ->
            invalid_arg
              (Printf.sprintf
                 "Vmm.free: large block %d (size %d) was never allocated \
                  or is already freed"
                 addr n)
      end);
  (* Counters move only once the free is known to be valid, so a rejected
     free leaves the accounting intact. *)
  ignore (Shm.fetch_add t.ctl live_slot (-n));
  Tap.vmm_free ~addr ~len:n

let live_words t = Shm.get t.ctl live_slot
let allocated_since_start t = Shm.get t.ctl total_slot

(* perfbench/main.ml's micro-benchmarks bind the arena to a runtime module;
   that is this functor's only caller. *)
module Make (R : sig
  val kind : Shm.kind
end) =
struct
  type nonrec t = t

  let create ~words = create ~kind:R.kind ~words
  let load = load
  let store = store
  let alloc = alloc
  let free = free
end
