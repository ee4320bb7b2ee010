type fiber = { id : int; mutable vtime : int }

type _ Effect.t += Charge : int -> unit Effect.t

type job =
  | Start of fiber * (int -> unit)
  | Resume of fiber * (unit, unit) Effect.Deep.continuation

(* Binary min-heap on (vtime, seq): seq breaks ties FIFO, which keeps the
   schedule deterministic and fair. *)
module Heap = struct
  type entry = { key : int; seq : int; job : job }
  type t = { mutable a : entry array; mutable len : int; mutable seq : int }

  let dummy =
    { key = 0; seq = 0; job = Start ({ id = -1; vtime = 0 }, fun _ -> ()) }

  let create () = { a = Array.make 64 dummy; len = 0; seq = 0 }

  let less x y = x.key < y.key || (x.key = y.key && x.seq < y.seq)

  let push t key job =
    if t.len = Array.length t.a then begin
      let a = Array.make (2 * t.len) dummy in
      Array.blit t.a 0 a 0 t.len;
      t.a <- a
    end;
    let e = { key; seq = t.seq; job } in
    t.seq <- t.seq + 1;
    let i = ref t.len in
    t.len <- t.len + 1;
    t.a.(!i) <- e;
    (* Sift up. *)
    let continue_up = ref true in
    while !continue_up && !i > 0 do
      let parent = (!i - 1) / 2 in
      if less t.a.(!i) t.a.(parent) then begin
        let tmp = t.a.(parent) in
        t.a.(parent) <- t.a.(!i);
        t.a.(!i) <- tmp;
        i := parent
      end
      else continue_up := false
    done

  let pop t =
    if t.len = 0 then None
    else begin
      let top = t.a.(0) in
      t.len <- t.len - 1;
      t.a.(0) <- t.a.(t.len);
      t.a.(t.len) <- dummy;
      (* Sift down. *)
      let i = ref 0 in
      let continue_down = ref true in
      while !continue_down do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < t.len && less t.a.(l) t.a.(!smallest) then smallest := l;
        if r < t.len && less t.a.(r) t.a.(!smallest) then smallest := r;
        if !smallest <> !i then begin
          let tmp = t.a.(!smallest) in
          t.a.(!smallest) <- t.a.(!i);
          t.a.(!i) <- tmp;
          i := !smallest
        end
        else continue_down := false
      done;
      Some top.job
    end
end

type state = {
  heap : Heap.t;
  mutable current : fiber option;
  mutable nswitches : int;
}

let state = ref None

let inside () =
  match !state with
  | Some s -> s.current <> None
  | None -> false

let current_fiber () =
  match !state with
  | Some s -> s.current
  | None -> None

let tid () = match current_fiber () with Some f -> f.id | None -> 0
let now_cycles () = match current_fiber () with Some f -> f.vtime | None -> 0

let charge_noyield c =
  assert (c >= 0);
  match current_fiber () with Some f -> f.vtime <- f.vtime + c | None -> ()

let charge c =
  assert (c >= 0);
  if inside () then Effect.perform (Charge c)

let last_switches = ref 0

let switches () =
  match !state with Some s -> s.nswitches | None -> !last_switches

let handler_for (s : state) (fb : fiber) =
  {
    Effect.Deep.retc = (fun () -> ());
    exnc = raise;
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Charge c ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                (* Yielding charges are the scheduler's preemption points;
                   an armed plan may stretch any of them, reordering
                   virtual-time ties.  Same seed, same stretches. *)
                let c =
                  if Tstm_chaos.Plan.enabled () then
                    match Tstm_chaos.Plan.at Charge ~tid:fb.id with
                    | Delay n -> c + n
                    | _ -> c
                  else c
                in
                fb.vtime <- fb.vtime + c;
                Heap.push s.heap fb.vtime (Resume (fb, k)))
        | _ -> None);
  }

let run ~nthreads body =
  if nthreads < 1 then invalid_arg "Sim_sched.run: nthreads < 1";
  if !state <> None then invalid_arg "Sim_sched.run: nested run";
  let s = { heap = Heap.create (); current = None; nswitches = 0 } in
  state := Some s;
  for i = 0 to nthreads - 1 do
    let fb = { id = i; vtime = 0 } in
    Heap.push s.heap 0 (Start (fb, body))
  done;
  let exec job =
    s.nswitches <- s.nswitches + 1;
    match job with
    | Start (fb, f) ->
        s.current <- Some fb;
        Effect.Deep.match_with (fun () -> f fb.id) () (handler_for s fb)
    | Resume (fb, k) ->
        s.current <- Some fb;
        Effect.Deep.continue k ()
  in
  let finish () =
    last_switches := s.nswitches;
    state := None
  in
  let rec loop () =
    match Heap.pop s.heap with
    | None -> ()
    | Some job ->
        exec job;
        s.current <- None;
        loop ()
  in
  (try loop () with e -> finish (); raise e);
  finish ()
