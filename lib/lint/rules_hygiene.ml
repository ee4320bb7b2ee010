(* Hygiene and determinism rules.  All identifier rules work on the
   parsetree, so occurrences inside comments and string literals are
   invisible by construction — the false-positive class the grep-era
   lint suffered from. *)

open Rule

let drop_stdlib = function "Stdlib" :: rest -> rest | comps -> comps

(* A prefix whose last element is capitalized names a module: the match
   must then be strictly longer (a bare constructor that happens to
   share the name — e.g. Json's own [Obj of members] — is not an access
   into the module). *)
let prefix_matches ~pre comps =
  let comps = drop_stdlib comps in
  let module_prefix =
    match List.rev pre with
    | last :: _ -> last <> "" && last.[0] >= 'A' && last.[0] <= 'Z'
    | [] -> false
  in
  (not (module_prefix && List.length comps = List.length pre))
  &&
  let rec go pre comps =
    match (pre, comps) with
    | [], _ -> true
    | p :: pre, c :: comps -> p = c && go pre comps
    | _ :: _, [] -> false
  in
  go pre comps

let dotted comps = String.concat "." comps

(* A rule that flags every reference whose flattened path matches one of
   [pres] (after an optional leading [Stdlib.]). *)
let mk_ident ~id ~scope_doc ~scope ~doc ~pres ~message =
  mk ~id ~severity:Finding.Error ~scope_doc ~scope ~doc
    (File_pass
       (fun file ->
         match file.str with
         | None -> []
         | Some str ->
             List.filter_map
               (fun (r : Astq.ref_) ->
                 match Astq.flatten r.r_lid with
                 | Some comps
                   when List.exists (fun pre -> prefix_matches ~pre comps) pres
                   ->
                     Some
                       (Finding.of_location ~rule:id ~severity:Finding.Error
                          r.r_loc (message comps))
                 | _ -> None)
               (Astq.structure_refs str)))

let obj_cast =
  mk_ident ~id:"obj-cast" ~scope_doc:"lib, bin, test" ~scope:(fun _ -> true)
    ~doc:"no unsafe casts or representation games through the Obj module"
    ~pres:[ [ "Obj" ] ]
    ~message:(fun comps ->
      dotted comps
      ^ " defeats the type system; there is no sound use of Obj in this \
         codebase")

(* A compiler primitive or C stub picks a value's representation behind
   the type checker's back, so that choice lives in one audited module:
   Shm's atomic cells. *)
let external_decl =
  let id = "external-decl" in
  mk ~id ~severity:Finding.Error
    ~scope_doc:"lib, bin, test (except lib/runtime/shm.ml)"
    ~scope:(fun p ->
      not (under2 ~a:"lib" ~b:"runtime" p && basename p = "shm.ml"))
    ~doc:
      "external declarations (compiler primitives, C stubs) live only in \
       lib/runtime/shm.ml, so representation choices stay in one module"
    (File_pass
       (fun file ->
         let acc = ref [] in
         let flag (vd : Parsetree.value_description) =
           acc :=
             Finding.of_location ~rule:id ~severity:Finding.Error vd.pval_loc
               ("external " ^ vd.pval_name.txt
              ^ " outside lib/runtime/shm.ml; use the Shm operation that \
                 wraps it")
             :: !acc
         in
         let it =
           let open Ast_iterator in
           {
             default_iterator with
             structure_item =
               (fun it si ->
                 (match si.Parsetree.pstr_desc with
                 | Parsetree.Pstr_primitive vd -> flag vd
                 | _ -> ());
                 default_iterator.structure_item it si);
             signature_item =
               (fun it si ->
                 (match si.Parsetree.psig_desc with
                 | Parsetree.Psig_value vd when vd.pval_prim <> [] -> flag vd
                 | _ -> ());
                 default_iterator.signature_item it si);
           }
         in
         Option.iter (it.structure it) file.str;
         Option.iter (it.signature it) file.intf;
         List.rev !acc))

let stdlib_random =
  mk_ident ~id:"stdlib-random"
    ~scope_doc:"lib, bin (except lib/util/xrand.ml)"
    ~scope:(fun p ->
      (in_lib p || in_bin p)
      && basename p <> "xrand.ml"
      && basename p <> "xrand.mli")
    ~doc:"all randomness threads a seeded Xrand stream for replayability"
    ~pres:[ [ "Random" ] ]
    ~message:(fun comps ->
      dotted comps
      ^ " breaks deterministic replay; use Xrand (lib/util/xrand.ml)")

let printf_in_lib =
  mk_ident ~id:"printf-in-lib" ~scope_doc:"lib (except lib/exec)"
    ~scope:(fun p -> in_lib p && not (under2 ~a:"lib" ~b:"exec" p))
    ~doc:
      "libraries return data or report through obs; printing belongs to \
       binaries and to lib/exec's Cli, which owns deterministic stdout"
    ~pres:[ [ "Printf"; "printf" ]; [ "print_endline" ]; [ "print_string" ] ]
    ~message:(fun comps ->
      dotted comps
      ^ " inside lib/; report through obs exporters or return data")

let wallclock =
  mk_ident ~id:"wallclock"
    ~scope_doc:"lib (except lib/obs/monotonic.ml and lib/exec)"
    ~scope:(fun p ->
      in_lib p
      && (not (under2 ~a:"lib" ~b:"exec" p))
      && basename p <> "monotonic.ml"
      && basename p <> "monotonic.mli")
    ~doc:
      "wall-clock reads live behind Tstm_obs.Monotonic (measurement) and \
       lib/exec (process supervision); everything else runs in virtual time"
    ~pres:[ [ "Sys"; "time" ]; [ "Unix"; "gettimeofday" ]; [ "Unix"; "time" ] ]
    ~message:(fun comps ->
      dotted comps
      ^ " is a nondeterministic clock; use Tstm_obs.Monotonic or virtual time")

let marshal_outside_exec =
  mk_ident ~id:"marshal-outside-exec" ~scope_doc:"lib, bin (except lib/exec)"
    ~scope:(fun p ->
      (in_lib p || in_bin p) && not (under2 ~a:"lib" ~b:"exec" p))
    ~doc:
      "Marshal round-trips are the job-pool protocol; anywhere else they \
       hide versioning and type-safety holes"
    ~pres:[ [ "Marshal" ] ]
    ~message:(fun comps ->
      dotted comps
      ^ " outside lib/exec; serialization goes through the typed exporters \
         or the exec job protocol")

let catch_all_handler =
  let id = "catch-all-handler" in
  mk ~id ~severity:Finding.Error ~scope_doc:"lib" ~scope:in_lib
    ~doc:
      "a try that swallows every exception also swallows Abort_exn, \
       Out_of_memory and assertion failures; match the exceptions the \
       expression can actually raise"
    (File_pass
       (fun file ->
         match file.str with
         | None -> []
         | Some str ->
             let acc = ref [] in
             let it =
               let open Ast_iterator in
               {
                 default_iterator with
                 expr =
                   (fun it e ->
                     (match e.Parsetree.pexp_desc with
                     | Parsetree.Pexp_try (_, cases) -> (
                         match List.rev cases with
                         | last :: _ -> (
                             match
                               ( last.Parsetree.pc_lhs.Parsetree.ppat_desc,
                                 last.Parsetree.pc_guard )
                             with
                             | Parsetree.Ppat_any, None ->
                                 acc :=
                                   Finding.of_location ~rule:id
                                     ~severity:Finding.Error
                                     last.Parsetree.pc_lhs.Parsetree.ppat_loc
                                     "catch-all `with _ ->` handler; match \
                                      the specific exceptions this \
                                      expression can raise"
                                   :: !acc
                             | _ -> ())
                         | [] -> ())
                     | _ -> ());
                     default_iterator.expr it e);
               }
             in
             it.structure it str;
             List.rev !acc))

let no_mli_allowlist = [ "intset_list.ml" ]

let mli_coverage =
  let id = "mli-coverage" in
  mk ~id ~severity:Finding.Error ~scope_doc:"lib" ~scope:in_lib
    ~doc:
      "every lib module states its interface; interface-only *_intf.ml \
       modules and the explicit allowlist are exempt"
    (Repo_pass
       (fun files ->
         let have_mli = Hashtbl.create 64 in
         List.iter
           (fun f -> if f.kind = Mli then Hashtbl.replace have_mli f.path ())
           files;
         List.filter_map
           (fun f ->
             if f.kind <> Ml || not (in_lib f.path) then None
             else
               let base = basename f.path in
               let is_intf =
                 String.length base > 8
                 && String.sub base (String.length base - 8) 8 = "_intf.ml"
               in
               if
                 is_intf
                 || List.mem base no_mli_allowlist
                 || Hashtbl.mem have_mli (f.path ^ "i")
               then None
               else
                 Some
                   (Finding.v ~rule:id ~severity:Finding.Error ~path:f.path
                      ~line:1
                      "missing .mli (interface-only *_intf.ml modules exempt)"))
           files))

let rules =
  [
    obj_cast;
    external_decl;
    stdlib_random;
    printf_in_lib;
    wallclock;
    marshal_outside_exec;
    catch_all_handler;
    mli_coverage;
  ]
