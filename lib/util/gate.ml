type system = Sink | Plan | San

let bit = function Sink -> 1 | Plan -> 2 | San -> 4

(* The armed systems as a bit set, mirrored into one plain bool so the
   hot-path guard is a single load. *)
let armed = ref 0
let any = ref false

let set s on =
  armed := if on then !armed lor bit s else !armed land lnot (bit s);
  any := !armed <> 0

let on () = !any
