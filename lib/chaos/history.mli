(** Operation histories over an integer set, and a serializability checker.

    The stress harness records every completed structure operation with its
    invocation and response timestamps (virtual time under the simulator).
    {!check} then decides whether the history is linearizable with respect to
    sequential set semantics — a black-box correctness criterion in the
    spirit of Proust (see PAPERS.md): no knowledge of the STM internals, only
    observed results. *)

type op = Add of int | Remove of int | Contains of int

type event = {
  tid : int;
  inv : int;  (** invocation timestamp *)
  resp : int;  (** response timestamp; [resp >= inv] *)
  op : op;
  result : bool;
      (** [Add]: element was absent and is now present; [Remove]: element was
          present and is now absent; [Contains]: membership. *)
}

type t
(** Mutable per-thread recorder.  [record] from thread [tid] must not race
    with itself — one recording thread per slot (trivially true under the
    simulator, where [record] runs between preemption points). *)

val create : nthreads:int -> t
val record : t -> tid:int -> inv:int -> resp:int -> op:op -> result:bool -> unit
val size : t -> int

val events : t -> event list
(** All recorded events sorted by invocation time (the order {!check}
    expects). *)

val op_to_string : op -> string

val check :
  ?window:int -> ?max_nodes:int -> final:int list -> event list -> (unit, string) result
(** [check ~final evs] searches for a linearization of [evs] (which must be
    sorted by [inv], as {!events} returns) that respects real-time order,
    replays every recorded result against a sequential set starting empty,
    and ends with exactly the elements [final].

    [window] bounds how many pending operations are considered at each step
    (histories from the simulator are nearly sequential, so a small window
    suffices); [max_nodes] bounds the search, turning pathological cases
    into [Error "checker budget exceeded"] rather than a wrong verdict.

    [Ok ()] means serializable; [Error msg] carries the deepest linearized
    prefix and the operations it got stuck on. *)
