type t =
  | Tx_begin
  | Tx_commit of { read_only : bool; reads : int; writes : int; retries : int }
  | Tx_abort of { reason : string; retries : int }
  | Tx_escalate of { retries : int }
  | Lock_acquire of { lock : int }
  | Lock_release of { lock : int }
  | Clock_extend
  | Clock_rollover
  | Cache_transfer of {
      label : string;
      line : int;
      word : int;
      same_word : bool;
    }
  | Tx_livelock of { window : int }
  | Tx_starved of { retries : int }
  | Cm_switch of { level : string }
  | Tx_fault of { kind : string; point : string }
  | Pool_heal of { action : string; tid : int }
  | Breaker_trip of { state : string }

let name = function
  | Tx_begin -> "tx_begin"
  | Tx_commit _ -> "tx_commit"
  | Tx_abort _ -> "tx_abort"
  | Tx_escalate _ -> "tx_escalate"
  | Lock_acquire _ -> "lock_acquire"
  | Lock_release _ -> "lock_release"
  | Clock_extend -> "clock_extend"
  | Clock_rollover -> "clock_rollover"
  | Cache_transfer _ -> "cache_transfer"
  | Tx_livelock _ -> "tx_livelock"
  | Tx_starved _ -> "tx_starved"
  | Cm_switch _ -> "cm_switch"
  | Tx_fault _ -> "tx_fault"
  | Pool_heal _ -> "pool_heal"
  | Breaker_trip _ -> "breaker_trip"

let args = function
  | Tx_begin | Clock_extend | Clock_rollover -> []
  | Tx_commit { read_only; reads; writes; retries } ->
      [
        ("outcome", "commit");
        ("read_only", string_of_bool read_only);
        ("reads", string_of_int reads);
        ("writes", string_of_int writes);
        ("retries", string_of_int retries);
      ]
  | Tx_abort { reason; retries } ->
      [
        ("outcome", "abort");
        ("reason", reason);
        ("retries", string_of_int retries);
      ]
  | Tx_escalate { retries } ->
      [ ("outcome", "escalate"); ("retries", string_of_int retries) ]
  | Lock_acquire { lock } | Lock_release { lock } ->
      [ ("lock", string_of_int lock) ]
  | Cache_transfer { label; line; word; same_word } ->
      [
        ("array", label);
        ("line", string_of_int line);
        ("word", string_of_int word);
        ("kind", if same_word then "true-conflict" else "false-sharing");
      ]
  | Tx_livelock { window } -> [ ("window", string_of_int window) ]
  | Tx_starved { retries } -> [ ("retries", string_of_int retries) ]
  | Cm_switch { level } -> [ ("level", level) ]
  | Tx_fault { kind; point } -> [ ("kind", kind); ("point", point) ]
  | Pool_heal { action; tid } ->
      [ ("action", action); ("tid", string_of_int tid) ]
  | Breaker_trip { state } -> [ ("state", state) ]
