type t = { mutable data : int array; mutable len : int }

let create capacity =
  let capacity = max 1 capacity in
  { data = Array.make capacity 0; len = 0 }

let length t = t.len
let capacity t = Array.length t.data

let grow t =
  let data = Array.make (2 * Array.length t.data) 0 in
  Array.blit t.data 0 data 0 t.len;
  t.data <- data

let push t x =
  if t.len = Array.length t.data then grow t;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Growbuf.get";
  t.data.(i)

let set t i x =
  if i < 0 || i >= t.len then invalid_arg "Growbuf.set";
  t.data.(i) <- x

(* A buffer cleared while it holds more than this many elements gets a
   fresh array of this size.  The
   STM descriptors clear their sets after every transaction; without a
   bound each set would hold, for the life of its descriptor, the largest
   transaction it ever ran (the harness's list insert draws keys inside
   one transaction until one is absent, so a read set now and then holds
   a dozen traversals), and the retained memory would depend on the
   longest such run.  16,384 elements is two full traversals of a
   4,096-key list. *)
let max_retained = 16384

let[@inline never] release t = t.data <- Array.make max_retained 0

(* Testing the length, not the capacity, keeps the fast path on the one
   field it writes: a buffer grows past [max_retained] only by holding
   more than that many elements. *)
let clear t =
  if t.len > max_retained then release t;
  t.len <- 0

let shrink t n =
  if n < 0 || n > t.len then invalid_arg "Growbuf.shrink";
  t.len <- n

let to_list t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (t.data.(i) :: acc) in
  go (t.len - 1) []
