(** Typed trace events recorded by the observability layer.

    Events are emitted by the STM implementations, the runtimes and the
    service layer through {!Sink} and stamped there with a virtual-time cycle
    count and the emitting CPU id; the payloads below carry only what the
    emitting site knows locally.  Abort reasons travel as strings (produced
    by [Tm_stats.abort_reason_to_string]) so this library stays below
    [tstm_tm] in the dependency order. *)

type t =
  | Tx_begin  (** one per attempt: a retry emits a fresh [Tx_begin] *)
  | Tx_commit of { read_only : bool; reads : int; writes : int; retries : int }
  | Tx_abort of { reason : string; retries : int }
  | Tx_escalate of { retries : int }
      (** retry budget exhausted: the transaction re-runs on the
          serial-irrevocable slow path *)
  | Lock_acquire of { lock : int }  (** lock-array index *)
  | Lock_release of { lock : int }
  | Clock_extend  (** successful snapshot extension *)
  | Clock_rollover  (** clock wrapped; lock array reset under a fence *)
  | Cache_transfer of {
      label : string;  (** shared-array label, e.g. ["locks"] *)
      line : int;  (** line index within that array *)
      word : int;  (** word index of the access that paid the transfer *)
      same_word : bool;
          (** the previous owner last wrote this very word: a true conflict
              rather than false sharing *)
    }
  | Tx_livelock of { window : int }
      (** the progress watchdog saw a zero-commit window of [window] cycles *)
  | Tx_starved of { retries : int }
      (** a transaction crossed the watchdog's per-transaction retry
          ceiling *)
  | Cm_switch of { level : string }
      (** the watchdog moved the degradation level (and with it the
          effective contention-management policy) *)
  | Tx_fault of { kind : string; point : string }
      (** an injected fault fired inside a transaction ([kind] is
          ["crash"], ["hang"] or ["oom"]; [point] ["clock-read"],
          ["commit"], ["abort"] or ["alloc"]) *)
  | Pool_heal of { action : string; tid : int }
      (** the real-domain pool healed a worker: ["crash-respawn"],
          ["hang-detected"], ["hang-recovered"] *)
  | Breaker_trip of { state : string }
      (** the service circuit breaker changed state (["open"],
          ["half-open"], ["closed"]) *)

val name : t -> string
(** Short stable name, used for Chrome-trace event names. *)

val args : t -> (string * string) list
(** Payload as key/value strings for exporters (values are raw, unquoted). *)
