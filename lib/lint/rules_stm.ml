(* STM-protocol rules: the discipline the word-based STM's correctness
   rests on, checked where the dynamic tools (VmmSan, the chaos
   checker) cannot see — on every path, not just executed ones.

   The pairing analyses anchor on the probe events (Probe.lock_acquired,
   Probe.lock_released, Probe.tx_abort, ...) placed at the real protocol
   operations: the event *is* the machine-checkable marker of the
   operation, so a path that can acquire without reaching a release or an
   abort is either a protocol bug or a missing probe — both findings.  The
   families cannot bypass the probe: a direct sanitizer call is a layering
   finding. *)

open Rule

type eff = Acq | Orec | Rel | Abt | Undo | Pub | Mem | Chg

let suffix r pat = Astq.suffix_matches ~pat r.Astq.r_lid

(* The three families plus the transaction core they share (lib/tm). *)
let in_stm p =
  under2 ~a:"lib" ~b:"tinystm" p
  || under2 ~a:"lib" ~b:"tl2" p
  || under2 ~a:"lib" ~b:"norec" p
  || under2 ~a:"lib" ~b:"tm" p

(* --- stm-lock-pairing ------------------------------------------------ *)

(* The global sequence lock follows the same acquire/release discipline as
   an orec slot; its seqlock events (speculative and serial) are the
   machine-checkable markers of the even-to-odd CAS and the publishing
   store.  [Orec] marks an orec acquisition proper, [Undo] the rollback's
   shadow restore and [Pub] the commit's publication. *)
let lock_markers =
  [
    ([ "Probe"; "lock_acquired" ], [ Acq; Orec ]);
    ([ "Probe"; "lock_released" ], [ Rel ]);
    ([ "Probe"; "seqlock_acquired" ], [ Acq ]);
    ([ "Probe"; "seqlock_released" ], [ Rel ]);
    ([ "Probe"; "serial_seqlock_acquired" ], [ Acq ]);
    ([ "Probe"; "serial_seqlock_released" ], [ Rel ]);
    ([ "Probe"; "tx_abort" ], [ Abt; Undo ]);
    ([ "Probe"; "commit_publish" ], [ Pub ]);
    ([ "Abort_exn" ], [ Abt ]);
  ]

let lock_pairing_direct r =
  List.concat_map (fun (pat, e) -> if suffix r pat then e else []) lock_markers

(* An entry point that can acquire must reach a release or an abort (the
   abort's rollback releases).  Since every acquiring barrier can abort,
   the exits are checked too: a function that publishes a commit, or in a
   module that acquires orecs one that rolls back, must reach a release. *)
let stm_lock_pairing =
  let id = "stm-lock-pairing" in
  mk ~id ~severity:Finding.Error ~scope_doc:"lib/tinystm, lib/tl2, lib/norec, lib/tm"
    ~scope:in_stm
    ~doc:
      "every call path that can acquire an orec or the global sequence \
       lock reaches a release or an abort within the module, and every \
       commit publication and orec rollback reaches a release"
    (File_pass
       (fun file ->
         match file.str with
         | None -> []
         | Some str ->
             let g = Astq.transitive_effects ~direct:lock_pairing_direct str in
             let has (f : Astq.fn) e =
               List.mem e (Astq.effects_of g f.fn_name)
             in
             let orecs = List.exists (fun f -> has f Orec) g.fns in
             List.filter_map
               (fun (f : Astq.fn) ->
                 (if
                    List.memq f g.roots && has f Acq
                    && not (has f Rel || has f Abt)
                  then
                    Some
                      (Printf.sprintf
                         "entry point `%s` can acquire an orec \
                          (Probe.lock_acquired reachable) but reaches \
                          neither a release (Probe.lock_released) nor an \
                          abort (Probe.tx_abort)"
                         f.fn_name)
                  else if
                    (has f Pub || (orecs && has f Undo)) && not (has f Rel)
                  then
                    Some
                      (Printf.sprintf
                         "`%s` %s but reaches no release (Probe.lock_released)"
                         f.fn_name
                         (if has f Pub then "publishes a commit"
                          else "rolls back"))
                  else None)
                 |> Option.map
                      (Finding.of_location ~rule:id ~severity:Finding.Error
                         f.fn_loc))
               g.fns))

(* --- vmm-charge ------------------------------------------------------ *)

let vmm_charge_direct r =
  if
    suffix r [ "V"; "load" ]
    || suffix r [ "V"; "store" ]
    || suffix r [ "Vmm"; "load" ]
    || suffix r [ "Vmm"; "store" ]
  then [ Mem ]
  else
    match Astq.flatten r.Astq.r_lid with
    | Some comps when List.length comps >= 2 -> (
        match List.rev comps with
        | ("charge" | "charge_local" | "charge_noyield") :: _ -> [ Chg ]
        | _ -> [])
    | _ -> []

let vmm_charge =
  let id = "vmm-charge" in
  mk ~id ~severity:Finding.Error
    ~scope_doc:"lib/tinystm, lib/tl2, lib/norec, lib/tm, lib/structures"
    ~scope:(fun p -> in_stm p || under2 ~a:"lib" ~b:"structures" p)
    ~doc:
      "raw Vmm word accesses are only reachable from entry points that \
       charge simulated cycles, so every simulated step is accounted"
    (File_pass
       (fun file ->
         match file.str with
         | None -> []
         | Some str ->
             let g = Astq.transitive_effects ~direct:vmm_charge_direct str in
             List.filter_map
               (fun (f : Astq.fn) ->
                 let e = Astq.effects_of g f.fn_name in
                 if List.mem Mem e && not (List.mem Chg e) then
                   Some
                     (Finding.of_location ~rule:id ~severity:Finding.Error
                        f.fn_loc
                        (Printf.sprintf
                           "entry point `%s` reaches a raw Vmm load/store \
                            but never charges Sim_sched cycles \
                            (Shm.charge/charge_local, \
                            Sim_sched.charge_noyield)"
                           f.fn_name))
                 else None)
               g.roots))

(* --- tap-pairing ----------------------------------------------------- *)

let tap_pairs =
  [
    ([ "Probe"; "lock_acquired" ], [ "Probe"; "lock_released" ]);
    ([ "Probe"; "seqlock_acquired" ], [ "Probe"; "seqlock_released" ]);
    ( [ "Probe"; "serial_seqlock_acquired" ],
      [ "Probe"; "serial_seqlock_released" ] );
    ([ "Probe"; "tx_begin" ], [ "Probe"; "tx_exit" ]);
    ([ "Probe"; "fence_owner_entry" ], [ "Probe"; "fence_owner_exit" ]);
    ([ "Tap"; "suspend" ], [ "Tap"; "resume" ]);
    ([ "Tap"; "vmm_alloc" ], [ "Tap"; "vmm_free" ]);
  ]

let tap_pairing =
  let id = "tap-pairing" in
  mk ~id ~severity:Finding.Error ~scope_doc:"lib" ~scope:in_lib
    ~doc:
      "probe events and tap producer hooks come in pairs; a module that emits one \
       side must emit the other or the shadow state leaks"
    (File_pass
       (fun file ->
         match file.str with
         | None -> []
         | Some str ->
             let refs = Astq.structure_refs str in
             let first pat =
               List.find_opt (fun r -> suffix r pat) refs
             in
             List.concat_map
               (fun (a, b) ->
                 let fail present missing (r : Astq.ref_) =
                   [
                     Finding.of_location ~rule:id ~severity:Finding.Error
                       r.r_loc
                       (Printf.sprintf
                          "%s without a matching %s anywhere in this module"
                          (String.concat "." present)
                          (String.concat "." missing));
                   ]
                 in
                 match (first a, first b) with
                 | Some r, None -> fail a b r
                 | None, Some r -> fail b a r
                 | _ -> [])
               tap_pairs))

(* --- layering -------------------------------------------------------- *)

(* The declared architecture: one row per library under lib/, with the
   set of libraries it may depend on (directly).  Checked against both
   the source parsetrees (module references) and the dune stanzas.  A
   new library must be added here before anything may depend on it. *)
type layer = {
  dir : string;  (** directory under lib/ *)
  root_module : string;  (** wrapped root module name *)
  lib_name : string;  (** dune library name *)
  allowed : string list;  (** dirs this library may depend on *)
}

let layers =
  [
    { dir = "util"; root_module = "Tstm_util"; lib_name = "tstm_util"; allowed = [] };
    { dir = "obs"; root_module = "Tstm_obs"; lib_name = "tstm_obs"; allowed = [ "util" ] };
    { dir = "chaos"; root_module = "Tstm_chaos"; lib_name = "tstm_chaos"; allowed = [ "util"; "obs" ] };
    { dir = "cm"; root_module = "Tstm_cm"; lib_name = "tstm_cm"; allowed = [ "util" ] };
    { dir = "runtime"; root_module = "Tstm_runtime"; lib_name = "tstm_runtime"; allowed = [ "util"; "obs"; "chaos" ] };
    { dir = "vmm"; root_module = "Tstm_vmm"; lib_name = "tstm_vmm"; allowed = [ "util"; "chaos"; "runtime" ] };
    { dir = "san"; root_module = "Tstm_san"; lib_name = "tstm_san"; allowed = [ "util"; "runtime" ] };
    { dir = "tm"; root_module = "Tstm_tm"; lib_name = "tstm_tm"; allowed = [ "util"; "cm"; "obs"; "chaos"; "runtime"; "vmm"; "san" ] };
    { dir = "tinystm"; root_module = "Tinystm"; lib_name = "tinystm"; allowed = [ "util"; "cm"; "runtime"; "vmm"; "tm" ] };
    { dir = "tl2"; root_module = "Tstm_tl2"; lib_name = "tstm_tl2"; allowed = [ "util"; "cm"; "runtime"; "vmm"; "tm" ] };
    { dir = "norec"; root_module = "Tstm_norec"; lib_name = "tstm_norec"; allowed = [ "util"; "cm"; "runtime"; "vmm"; "tm" ] };
    { dir = "structures"; root_module = "Tstm_structures"; lib_name = "tstm_structures"; allowed = [ "util"; "runtime"; "vmm"; "tm" ] };
    { dir = "tuning"; root_module = "Tstm_tuning"; lib_name = "tstm_tuning"; allowed = [ "util"; "tinystm" ] };
    { dir = "vacation"; root_module = "Tstm_vacation"; lib_name = "tstm_vacation"; allowed = [ "util"; "runtime"; "tm"; "structures" ] };
    { dir = "stms"; root_module = "Tstm_stms"; lib_name = "tstm_stms"; allowed = [ "runtime"; "tm"; "tinystm"; "tl2"; "norec" ] };
    { dir = "harness"; root_module = "Tstm_harness"; lib_name = "tstm_harness"; allowed = [ "util"; "cm"; "obs"; "chaos"; "runtime"; "vmm"; "tm"; "stms"; "san"; "tinystm"; "tl2"; "norec"; "structures"; "tuning"; "vacation" ] };
    { dir = "service"; root_module = "Tstm_service"; lib_name = "tstm_service"; allowed = [ "util"; "cm"; "obs"; "chaos"; "runtime"; "tm"; "san"; "structures"; "vacation"; "harness" ] };
    { dir = "exec"; root_module = "Tstm_exec"; lib_name = "tstm_exec"; allowed = [ "util"; "cm"; "obs"; "chaos"; "runtime"; "tm"; "san"; "tinystm"; "harness"; "service" ] };
    { dir = "lint"; root_module = "Tstm_lint"; lib_name = "tstm_lint"; allowed = [ "util" ] };
  ]

(* The STM stack is written once for both runtimes: an instance picks its
   runtime at [create] from the kind of its arrays, so no module under
   these dirs may name a runtime module of lib/runtime, although the
   library itself is allowed. *)
let runtime_free = [ "vmm"; "tm"; "tinystm"; "tl2"; "norec" ]
let runtime_modules = [ "Runtime"; "Runtime_sim"; "Runtime_real" ]

let names_runtime (r : Astq.ref_) =
  match Astq.flatten r.r_lid with
  | Some path -> List.exists (fun m -> List.mem m runtime_modules) path
  | None -> false

let layer_of_dir d = List.find_opt (fun l -> l.dir = d) layers
let layer_of_root m = List.find_opt (fun l -> l.root_module = m) layers
let layer_of_lib n = List.find_opt (fun l -> l.lib_name = n) layers

(* The lib/<dir> a path belongs to, fixture trees included
   (test/lint_fixtures/lib/<dir>/... resolves like lib/<dir>/...). *)
let owner_of_path path =
  let rec go = function
    | "lib" :: d :: _ -> layer_of_dir d
    | _ :: rest -> go rest
    | [] -> None
  in
  go (segments path)

(* Tokenize a dune file into (token, line) pairs; parens are their own
   tokens and ';' comments run to end of line. *)
let dune_tokens text =
  let toks = ref [] in
  let buf = Buffer.create 16 in
  let line = ref 1 in
  let tline = ref 1 in
  let flush () =
    if Buffer.length buf > 0 then begin
      toks := (Buffer.contents buf, !tline) :: !toks;
      Buffer.clear buf
    end
  in
  let in_comment = ref false in
  String.iter
    (fun c ->
      match c with
      | '\n' ->
          flush ();
          in_comment := false;
          incr line
      | _ when !in_comment -> ()
      | ';' ->
          flush ();
          in_comment := true
      | ' ' | '\t' | '\r' -> flush ()
      | '(' | ')' ->
          flush ();
          toks := (String.make 1 c, !line) :: !toks
      | _ ->
          if Buffer.length buf = 0 then tline := !line;
          Buffer.add_char buf c)
    text;
  flush ();
  List.rev !toks

(* The (token, line) list of every dependency named by a (libraries ...)
   field. *)
let dune_libraries text =
  let rec go acc = function
    | ("libraries", _) :: rest ->
        let rec deps acc = function
          | (")", _) :: rest -> go acc rest
          | ((tok, _) as t) :: rest when tok <> "(" -> deps (t :: acc) rest
          | rest -> go acc rest
        in
        deps acc rest
    | _ :: rest -> go acc rest
    | [] -> List.rev acc
  in
  go [] (dune_tokens text)

let layering =
  let id = "layering" in
  mk ~id ~severity:Finding.Error ~scope_doc:"lib (sources and dune stanzas)"
    ~scope:in_lib
    ~doc:
      "the library DAG is declared once (util at the bottom, \
       harness/service/exec at the top); both module references and dune \
       stanzas must respect it, and the STM stack names no runtime module"
    (Repo_pass
       (fun files ->
         let out = ref [] in
         let seen = Hashtbl.create 64 in
         let flag ~path ~line ~col owner target =
           if not (Hashtbl.mem seen (path, target.dir)) then begin
             Hashtbl.replace seen (path, target.dir) ();
             out :=
               Finding.v ~rule:id ~severity:Finding.Error ~path ~line ~col
                 (Printf.sprintf
                    "layering violation: lib/%s must not depend on lib/%s \
                     (allowed: %s)"
                    owner.dir target.dir
                    (if owner.allowed = [] then "nothing"
                     else String.concat ", " owner.allowed))
               :: !out
           end
         in
         List.iter
           (fun f ->
             match owner_of_path f.path with
             | None -> ()
             | Some owner -> (
                 let check_ref (r : Astq.ref_) =
                   if List.mem owner.dir runtime_free && names_runtime r
                   then begin
                     let p = r.r_loc.loc_start in
                     out :=
                       Finding.v ~rule:id ~severity:Finding.Error ~path:f.path
                         ~line:p.pos_lnum ~col:(p.pos_cnum - p.pos_bol)
                         (Printf.sprintf
                            "layering violation: lib/%s must not name a \
                             runtime module (%s); an STM instance picks its \
                             runtime from its arrays' Shm.kind"
                            owner.dir (String.concat ", " runtime_modules))
                       :: !out
                   end;
                   match Astq.head r.r_lid with
                   | Some h -> (
                       match layer_of_root h with
                       | Some target
                         when target.dir <> owner.dir
                              && not (List.mem target.dir owner.allowed) ->
                           let p = r.r_loc.loc_start in
                           flag ~path:f.path ~line:p.pos_lnum
                             ~col:(p.pos_cnum - p.pos_bol) owner target
                       | _ -> ())
                   | None -> ()
                 in
                 match f.kind with
                 | Ml ->
                     Option.iter
                       (fun s -> List.iter check_ref (Astq.structure_refs s))
                       f.str
                 | Mli ->
                     Option.iter
                       (fun s -> List.iter check_ref (Astq.signature_refs s))
                       f.intf
                 | Dune ->
                     List.iter
                       (fun (dep, line) ->
                         match layer_of_lib dep with
                         | Some target
                           when target.dir <> owner.dir
                                && not (List.mem target.dir owner.allowed) ->
                             flag ~path:f.path ~line ~col:0 owner target
                         | _ -> ())
                       (dune_libraries f.text)))
           files;
         List.rev !out))

let rules =
  [ stm_lock_pairing; vmm_charge; tap_pairing; layering ]
