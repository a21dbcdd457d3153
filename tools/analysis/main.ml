(* treatycheck — TreatyCheck's command-line driver.

   The interprocedural passes load every .cmt under the given paths (dune
   keeps them in .objs/ directories; pass lib trees from _build, or
   individual files), build the whole-program IR and run:

     taint   secret-taint escape        [taint-escape]
     nondet  determinism effects        [nondet-effect]
     lanes   lane/lock-order safety     [lane-race, lock-order]

   [--pass lint] instead walks .ml sources (files, or directories searched
   recursively) with the per-file syntactic rules of [Syntactic]:

     crypto-primitive, untrusted-zone, hw-counter, obs-zone, cache-zone,
     wire-zone, nondeterminism, wildcard-match, partial-failure

   [--pass all] runs the three interprocedural passes; lint reads different
   inputs and is always asked for by name. Exit 0 when clean (or, with
   --expect-fail, when violations were found), 1 on findings or stale
   allowlist entries, 2 on usage/load errors. One allowlist serves every
   pass: entries whose rule the selected pass does not own, or whose file is
   outside the inputs, are ignored rather than reported as unused. *)

let usage () =
  prerr_endline
    "usage: treatycheck [--pass taint|nondet|lanes|all|lint] [--allowlist FILE]\n\
    \       [--expect-fail] [--self-test] PATHS...\n\
     PATHS are .cmt files (.ml sources for --pass lint) or directories\n\
     searched recursively for them.";
  exit 2

(* The shared allowlist, narrowed to entries the current run can use: rules
   the selected pass owns, on files it actually reads. *)
let allows allowlist ~rules ~files =
  match allowlist with
  | None -> []
  | Some f ->
      Diag.load_allowlist f
      |> List.filter (fun (a : Diag.allow) ->
             List.mem a.a_rule rules
             && List.exists
                  (fun file -> String.ends_with ~suffix:a.suffix file)
                  files)

(* --pass lint: the syntactic rules over .ml sources. Never returns. *)
let lint ~allowlist ~expect_fail ~self_test paths =
  if self_test then exit (Syntactic.run_self_test ());
  if paths = [] then usage ();
  let files = List.concat_map (fun p -> Syntactic.gather [] p) paths in
  if files = [] then begin
    prerr_endline "treatycheck --pass lint: no .ml files to check";
    exit 2
  end;
  let violations = List.concat_map Syntactic.lint_file files in
  exit
    (Diag.finish ~label:"treatycheck --pass lint" ~expect_fail
       ~allows:(allows allowlist ~rules:Syntactic.rules ~files)
       ~files:(List.length files) violations)

let () =
  let pass = ref "all" in
  let allowlist = ref None in
  let expect_fail = ref false in
  let self_test = ref false in
  let paths = ref [] in
  let rec parse = function
    | [] -> ()
    | "--pass" :: v :: rest ->
        if not (List.mem v [ "taint"; "nondet"; "lanes"; "all"; "lint" ]) then
          usage ();
        pass := v;
        parse rest
    | "--allowlist" :: f :: rest ->
        allowlist := Some f;
        parse rest
    | "--expect-fail" :: rest ->
        expect_fail := true;
        parse rest
    | "--self-test" :: rest ->
        self_test := true;
        parse rest
    | p :: rest ->
        if String.length p > 0 && p.[0] = '-' then usage ();
        paths := p :: !paths;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !pass = "lint" then lint ~allowlist:!allowlist ~expect_fail:!expect_fail
    ~self_test:!self_test (List.rev !paths);
  if !self_test then exit (Selftest.run ());
  if !paths = [] then usage ();
  let prog, units = Ir.load_paths (List.rev !paths) in
  if units = 0 then begin
    prerr_endline "treatycheck: no .cmt files found under the given paths";
    exit 2
  end;
  let spec = Spec.production in
  let want p = !pass = "all" || !pass = p in
  let violations =
    (if want "taint" then Taint.run spec prog else [])
    @ (if want "nondet" then Determinism.run spec prog else [])
    @ if want "lanes" then Lanes.run spec prog else []
  in
  let active_rules =
    (if want "taint" then [ Taint.rule ] else [])
    @ (if want "nondet" then [ Determinism.rule ] else [])
    @ if want "lanes" then [ Lanes.rule_lane; Lanes.rule_lock ] else []
  in
  let src_files =
    Hashtbl.fold (fun _ (d : Ir.def) acc -> d.Ir.d_file :: acc) prog.Ir.defs []
    |> List.sort_uniq compare
  in
  exit
    (Diag.finish
       ~label:("treatycheck --pass " ^ !pass)
       ~expect_fail:!expect_fail
       ~allows:(allows !allowlist ~rules:active_rules ~files:src_files)
       ~files:units violations)
