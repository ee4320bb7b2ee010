type strategy = Write_back | Write_through

let strategy_to_string = function
  | Write_back -> "write-back"
  | Write_through -> "write-through"

type t = {
  n_locks : int;
  shifts : int;
  hierarchy : int;
  strategy : strategy;
}

let validate c =
  let module B = Tstm_util.Bitops in
  if not (B.is_pow2 c.n_locks) || c.n_locks < 2 || c.n_locks > 1 lsl 26 then
    invalid_arg "Config: n_locks must be a power of two in [2, 2^26]";
  if c.shifts < 0 || c.shifts > 16 then
    invalid_arg "Config: shifts must be in [0, 16]";
  if not (B.is_pow2 c.hierarchy) || c.hierarchy < 1 || c.hierarchy > 1024 then
    invalid_arg "Config: hierarchy must be a power of two in [1, 1024]";
  if c.hierarchy > c.n_locks then
    invalid_arg "Config: hierarchy must not exceed n_locks"

let default =
  {
    n_locks = 1 lsl 16;
    shifts = 0;
    hierarchy = 1;
    strategy = Write_back;
  }

let make ?(n_locks = default.n_locks) ?(shifts = default.shifts)
    ?(hierarchy = default.hierarchy) ?(strategy = default.strategy) () =
  let c = { n_locks; shifts; hierarchy; strategy } in
  validate c;
  c

let lock_index c addr = (addr lsr c.shifts) land (c.n_locks - 1)
let hier_index c addr = (addr lsr c.shifts) land (c.hierarchy - 1)

let pp ppf c =
  Format.fprintf ppf "{locks=2^%d; shifts=%d; h=%d; %s}"
    (Tstm_util.Bitops.log2 c.n_locks)
    c.shifts c.hierarchy
    (strategy_to_string c.strategy)

let to_string c = Format.asprintf "%a" pp c

let equal a b =
  a.n_locks = b.n_locks && a.shifts = b.shifts && a.hierarchy = b.hierarchy
  && a.strategy = b.strategy
