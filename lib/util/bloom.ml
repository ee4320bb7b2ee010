type t = { mutable bits : int }

let word_bits = 62

let create () = { bits = 0 }
let clear t = t.bits <- 0

let hash1 addr = Bitops.mix addr mod word_bits

let hash2 addr =
  Bitops.mix (addr lxor 0x5bd1e995) mod word_bits

let mask addr = (1 lsl hash1 addr) lor (1 lsl hash2 addr)

let may_contain t addr =
  let m = mask addr in
  t.bits land m = m

let check_add t addr =
  let m = mask addr in
  let b = t.bits in
  t.bits <- b lor m;
  b land m = m
