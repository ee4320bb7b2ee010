(** Name-keyed registry of packaged {!Tm_intf.STM} implementations — the
    single STM list in the repository, for both runtimes.

    Each STM is registered once, as its family's one {!Tm_intf.PACKED}
    packaging; the entry binds it to both runtimes, the simulator
    ([Shm.Simulated]) and real domains ([Shm.Domains]).  The [tstm_stms]
    library registers every entry in one block at link time; harness and
    CLI code resolves a canonical name or one of its short aliases.
    Lookups raise [Invalid_argument] listing the known names, so a typo in
    a CLI flag produces an actionable message.

    Each entry carries the module's self-declared algorithm [family] and
    {!Tm_intf.capabilities}, so drivers filter plans by capability
    ({!fold}, {!filter}, {!require}) instead of matching on names. *)

type entry = {
  name : string;  (** canonical name, e.g. ["tinystm-wb"] *)
  label : string;  (** display label, e.g. ["TinySTM-WB"] *)
  aliases : string list;
  family : string;  (** e.g. ["tinystm"], ["tl2"], ["norec"] *)
  capabilities : Tm_intf.capabilities;
  sim : (module Tm_intf.STM);  (** bound to the simulated runtime *)
  real : (module Tm_intf.STM);  (** bound to real domains *)
}

val register :
  ?aliases:string list -> ?label:string -> (module Tm_intf.PACKED) -> unit
(** Register under the module's [name]; [family] and [capabilities] are
    read off it.  [aliases] are alternate lookup keys (e.g. ["wb"]
    for ["tinystm-wb"]); [label] is the display label used in figure
    headings (defaults to the name).  Raises [Invalid_argument] when the
    name or an alias is already bound. *)

val get : string -> (module Tm_intf.STM)
(** Resolve a canonical name or alias to its simulated packaging; raises
    [Invalid_argument] when unknown. *)

val mem : string -> bool

val entry_of : string -> entry option
(** Full entry for a name or alias; [None] when unknown. *)

val canonical : string -> string
(** Canonical name for a name or alias; raises when unknown. *)

val label : string -> string
(** Display label (e.g. ["TinySTM-WB"]); raises when unknown. *)

val family : string -> string
(** Algorithm family of a name or alias; raises when unknown. *)

val capabilities : string -> Tm_intf.capabilities
(** Capability record of a name or alias; raises when unknown. *)

val names : unit -> string list
(** Canonical names in registration order. *)

val all : unit -> entry list
(** Entries in registration order. *)

val fold : ('a -> entry -> 'a) -> 'a -> 'a
(** Left fold over entries in registration order — the way shared test
    batteries enumerate every registered implementation. *)

val filter : (entry -> bool) -> entry list
(** Entries satisfying a predicate, in registration order. *)

val families : unit -> string list
(** Distinct families in first-registration order. *)

val require : string -> string -> unit
(** [require stm capability] raises {!Tm_intf.Capability_error} when the
    named STM lacks the capability (field name, e.g. ["dynamic_reconfig"]);
    [Invalid_argument] for unknown STMs or capability names. *)
