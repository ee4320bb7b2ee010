module G = Tstm_util.Growbuf
module Shm = Tstm_runtime.Shm
module Bloom = Tstm_util.Bloom

type t = { w_addr : G.t; w_val : G.t; bloom : Bloom.t }

let create () =
  { w_addr = G.create 32; w_val = G.create 32; bloom = Bloom.create () }

let clear t =
  G.clear t.w_addr;
  G.clear t.w_val;
  Bloom.clear t.bloom

let length t = G.length t.w_addr
let addr t k = G.get t.w_addr k
let value t k = G.get t.w_val k
let c_bloom = 3
let c_scan = 1

(* Newest first: a hit's simulated charge depends on this order. *)
let rec scan t a k =
  if k < 0 then -1
  else begin
    Shm.charge_local c_scan;
    if G.get t.w_addr k = a then k else scan t a (k - 1)
  end

let find t a =
  Shm.charge_local c_bloom;
  let n = length t in
  if n = 0 || not (Bloom.may_contain t.bloom a) then -1 else scan t a (n - 1)

let put t a v =
  Shm.charge_local c_bloom;
  let k = if Bloom.check_add t.bloom a then scan t a (length t - 1) else -1 in
  if k >= 0 then G.set t.w_val k v
  else begin
    G.push t.w_addr a;
    G.push t.w_val v
  end

let write_back t words =
  for k = 0 to G.length t.w_addr - 1 do
    Shm.set words (G.get t.w_addr k) (G.get t.w_val k)
  done
