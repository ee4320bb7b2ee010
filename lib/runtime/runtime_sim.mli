(** The simulated-multicore implementation of {!Runtime_intf.S}.

    Shared arrays are [Shm.Sim] and carry a {!Cache_model.t}; every access
    inside a {!Runtime_intf.S.run} charges its base cycle cost (a preemption point)
    plus a contention penalty computed from the cache-line state at the
    instant the access executes.  Accesses outside [run] (e.g. populating a
    data structure before the timed phase) execute at zero cost.

    The cost parameters are process-global and read when an array is created;
    call {!configure} before building the experiment state. *)

val configure : Cache_model.params -> unit
(** Set the cost model for subsequently created arrays.  Raises
    [Invalid_argument] on bad parameters. *)

val params : unit -> Cache_model.params
(** Currently configured parameters. *)

include Runtime_intf.S

(** {2 Aliases}

    The names this runtime has always exported.  The code behind them is
    {!Shm}'s, shared with {!Runtime_real}; the STM libraries call {!Shm}
    directly. *)

val is_simulated : bool
(** [true]. *)

val sarray_length : sarray -> int
val get : sarray -> int -> int
val set : sarray -> int -> int -> unit
val cas : sarray -> int -> int -> int -> bool
val fetch_add : sarray -> int -> int -> int
val sarray_label : sarray -> string -> unit
val tid : unit -> int
val charge : int -> unit
val charge_local : int -> unit
val yield : unit -> unit
