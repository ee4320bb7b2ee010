(** Process-global instrumentation tap on the simulated runtime's shared
    memory, in the spirit of {!Tstm_obs.Sink}: the default is {!Null} (no
    hooks installed) and every emission site guards on {!enabled} — a single
    mutable-bool load — so an untapped run is indistinguishable, in virtual
    time and in results, from the untouched code.  Hooks never charge
    simulator cycles; a tapped run is bit-identical to an untapped one.

    Consumers (the {!Tstm_san} happens-before sanitizer) install a {!hooks}
    record (the STMs' own sync edges go from [Tstm_tm.Probe] to the
    sanitizer directly); producers are:

    - {!Runtime_sim}: every [sarray] access ({!access}) with the array's
      label, and the {!run_boundary} full-synchronization points at the
      start and end of each simulated run;
    - {!Tstm_vmm.Vmm}: the allocator events ({!vmm_alloc}, {!vmm_free}) and
      the explicitly non-transactional word accesses ({!vmm_load},
      {!vmm_store}).

    The allocator brackets its own free-list manipulation with
    {!suspend}/{!resume} so protocol-internal accesses to arena words (next
    pointers threaded through freed blocks) are not misread as data
    accesses.  Suspension is per-CPU and reentrant. *)

type access = Get | Set | Cas of bool  (** [Cas success] *) | Faa

type hooks = {
  on_access : cpu:int -> label:string -> index:int -> access -> unit;
      (** A shared-array access by [cpu] on the array labelled [label]
          (see {!Runtime_intf.S.sarray_label}; [""] when unlabelled). *)
  on_vmm_load : cpu:int -> addr:int -> unit;
      (** Non-transactional [Vmm.load]. *)
  on_vmm_store : cpu:int -> addr:int -> unit;
      (** Non-transactional [Vmm.store]. *)
  on_vmm_alloc : cpu:int -> addr:int -> len:int -> unit;
  on_vmm_free : cpu:int -> addr:int -> len:int -> unit;
  on_run_boundary : unit -> unit;
      (** Start or end of a simulated run: a real full synchronization
          (threads are forked/joined there). *)
}

val install : hooks option -> unit
(** [install (Some h)] arms the tap; [install None] restores the zero-cost
    null tap. *)

val enabled : unit -> bool
(** One boolean load; producers gate every emission on it. *)

val suspend : unit -> unit
(** Suppress emission from the calling CPU until the matching {!resume}
    (reentrant).  Used by the allocator around free-list internals. *)

val resume : unit -> unit

(** {1 Producer entry points} — no-ops when {!enabled} is false or the
    calling CPU is suspended. *)

val access : label:string -> index:int -> access -> unit
val vmm_load : addr:int -> unit
val vmm_store : addr:int -> unit
val vmm_alloc : addr:int -> len:int -> unit
val vmm_free : addr:int -> len:int -> unit
val run_boundary : unit -> unit
