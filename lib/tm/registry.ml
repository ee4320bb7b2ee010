(* Name-keyed registry of packaged STM implementations.

   The registry is the single point of STM dispatch in the repository:
   harness, CLIs and tests resolve an implementation by its canonical name
   (or a short alias) and get back a first-class [(module Tm_intf.STM)],
   bound to the simulated runtime ([sim]) or to real domains ([real]).
   Both are the family's one packaging with [create]'s kind fixed.  The
   [tstm_stms] library registers tinystm-wb, tinystm-wt, tl2 and norec at
   module-initialisation time and is linked whole, so any binary that
   links the harness sees the entries before [main] runs.

   Family and capability metadata are pulled from the module itself at
   registration, so the registry is also the single source of truth for
   capability-driven plan filtering ([fold], [filter], [families]). *)

type entry = {
  name : string;
  label : string;
  aliases : string list;
  family : string;
  capabilities : Tm_intf.capabilities;
  sim : (module Tm_intf.STM);
  real : (module Tm_intf.STM);
}

(* Registration order is the presentation order (figures, CLIs), so keep an
   ordered list rather than hashing. *)
let entries : entry list ref = ref []

let all () = List.rev !entries

let names () = List.map (fun e -> e.name) (all ())

let entry_of name =
  List.find_opt
    (fun e -> String.equal e.name name || List.mem name e.aliases)
    (all ())

let mem name = entry_of name <> None

(* A packaging bound to one runtime: [create] builds instances of [kind]. *)
let bind kind (module P : Tm_intf.PACKED) : (module Tm_intf.STM) =
  (module struct
    include P

    let kind = kind
    let create = P.create ~kind
  end)

let register ?(aliases = []) ?label (module M : Tm_intf.PACKED) =
  let name = M.name in
  let label = Option.value label ~default:name in
  List.iter
    (fun key ->
      if mem key then
        invalid_arg (Printf.sprintf "Registry.register: %S already bound" key))
    (name :: aliases);
  entries :=
    {
      name;
      label;
      aliases;
      family = M.family;
      capabilities = M.capabilities;
      sim = bind Tstm_runtime.Shm.Simulated (module M);
      real = bind Tstm_runtime.Shm.Domains (module M);
    }
    :: !entries

let unknown name =
  invalid_arg
    (Printf.sprintf "unknown STM %S (known: %s)" name
       (String.concat ", " (names ())))

let get name = match entry_of name with Some e -> e.sim | None -> unknown name

let canonical name =
  match entry_of name with Some e -> e.name | None -> unknown name

let label name =
  match entry_of name with Some e -> e.label | None -> unknown name

let family name =
  match entry_of name with Some e -> e.family | None -> unknown name

let capabilities name =
  match entry_of name with Some e -> e.capabilities | None -> unknown name

let fold f init = List.fold_left f init (all ())

(* Families in first-appearance order, deduplicated. *)
let families () =
  List.rev
    (fold
       (fun acc e -> if List.mem e.family acc then acc else e.family :: acc)
       [])

let filter p = List.filter p (all ())

let require name capability =
  let e = match entry_of name with Some e -> e | None -> unknown name in
  let have =
    match capability with
    | "lock_array" -> e.capabilities.Tm_intf.lock_array
    | "dynamic_reconfig" -> e.capabilities.Tm_intf.dynamic_reconfig
    | "read_only_fastpath" -> e.capabilities.Tm_intf.read_only_fastpath
    | "snapshot_extension" -> e.capabilities.Tm_intf.snapshot_extension
    | other -> invalid_arg ("Registry.require: unknown capability " ^ other)
  in
  if not have then Tm_intf.capability_error ~stm:e.name ~capability
