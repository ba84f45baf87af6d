module T = Ir.Types

type mode =
  | No_sync
  | Baseline
  | Speculative of Passes.Deconflict.strategy
  | Automatic of {
      params : Passes.Auto_detect.params;
      strategy : Passes.Deconflict.strategy;
      profile : Analysis.Profile.t option;
    }

type threshold_override = Keep | Set of int | Unset

type repair_mode = No_repair | Repair of { dry_run : bool; max_edits : int }

type options = {
  mode : mode;
  coarsen : int option;
  threshold : threshold_override;
  cleanup : bool;
  deconflict : bool;
  lint : bool;
  race : bool;
  repair : repair_mode;
}

let baseline =
  { mode = Baseline; coarsen = None; threshold = Keep; cleanup = true; deconflict = true;
    lint = true; race = true; repair = No_repair }

let speculative =
  {
    mode = Speculative Passes.Deconflict.Dynamic;
    coarsen = None;
    threshold = Keep;
    cleanup = true;
    deconflict = true;
    lint = true;
    race = true;
    repair = No_repair;
  }

let automatic =
  {
    mode =
      Automatic
        {
          params = Passes.Auto_detect.default_params;
          strategy = Passes.Deconflict.Dynamic;
          profile = None;
        };
    coarsen = None;
    threshold = Keep;
    cleanup = true;
    deconflict = true;
    lint = true;
    race = true;
    repair = No_repair;
  }

let mode_name = function
  | No_sync -> "none"
  | Baseline -> "baseline"
  | Speculative Passes.Deconflict.Dynamic -> "specrecon"
  | Speculative Passes.Deconflict.Static -> "specrecon-static"
  | Automatic _ -> "auto"

(* The five named modes, in the order usage and error text list them. *)
let named_modes =
  [ Baseline; No_sync; Speculative Passes.Deconflict.Dynamic;
    Speculative Passes.Deconflict.Static; automatic.mode ]

let mode_names = List.map mode_name named_modes

let mode_of_string name =
  match List.find_opt (fun m -> mode_name m = name) named_modes with
  | Some m -> m
  | None -> invalid_arg ("unknown mode " ^ name)

let threshold_of_int = function None -> Keep | Some k when k < 0 -> Unset | Some k -> Set k

type repair_report = {
  pre_findings : Analysis.Barrier_safety.finding list;
  outcome : Analysis.Barrier_repair.outcome;
  before : Ir.Linear.t;
}

type compiled = {
  options : options;
  program : T.program;
  linear : Ir.Linear.t;
  decoded : Ir.Decoded.t;
  pdom_barriers : (string * int * T.barrier) list;
  applied : Passes.Specrecon.applied list;
  interproc_applied : Passes.Interproc.applied list;
  deconflict_report : Passes.Deconflict.report option;
  candidates : Passes.Auto_detect.candidate list;
  lint_findings : Analysis.Barrier_safety.finding list;
  race_findings : Analysis.Race_safety.finding list;
  repair_report : repair_report option;
}

(* Provenance for srlint's dominance rule: every speculative barrier the
   passes placed, with the block holding its join (BSSY). *)
let speculative_meta ~applied ~interproc =
  List.map
    (fun (a : Passes.Specrecon.applied) ->
      {
        Analysis.Barrier_safety.sfunc = a.in_func;
        slot = a.user_barrier;
        join_block = a.region_start;
      })
    applied
  @ List.map
      (fun (a : Passes.Interproc.applied) ->
        { Analysis.Barrier_safety.sfunc = a.in_func; slot = a.barrier; join_block = a.region_start })
      interproc

let override_thresholds threshold (p : T.program) =
  match threshold with
  | Keep -> ()
  | Set _ | Unset ->
    Hashtbl.iter
      (fun _ (f : T.func) ->
        f.hints <-
          List.map
            (fun (h : T.predict_hint) ->
              match threshold with
              | Set k -> { h with threshold = Some k }
              | Unset -> { h with threshold = None }
              | Keep -> h)
            f.hints)
      p.funcs

let strip_hints (p : T.program) =
  Hashtbl.iter (fun _ (f : T.func) -> f.hints <- []) p.funcs

(* Barrier priority for deconfliction: user hints beat region barriers
   beat compiler PDOM barriers (§4.1). *)
let barrier_priority ~applied ~interproc ~pdom =
  let rank = Hashtbl.create 16 in
  List.iter
    (fun (a : Passes.Specrecon.applied) ->
      Hashtbl.replace rank (a.in_func, a.user_barrier) 3;
      match a.region_barrier with
      | Some b -> Hashtbl.replace rank (a.in_func, b) 2
      | None -> ())
    applied;
  List.iter
    (fun (a : Passes.Interproc.applied) -> Hashtbl.replace rank (a.in_func, a.barrier) 3)
    interproc;
  List.iter (fun (fname, _, b) -> Hashtbl.replace rank (fname, b) 1) pdom;
  fun fname b -> Option.value (Hashtbl.find_opt rank (fname, b)) ~default:1

(* The race differential needs the PDOM placement of the same source:
   re-lower the (already coarsened) AST through the baseline passes
   rather than recursing into [compile_ast], which would re-run srlint
   and the race stage itself. *)
let pdom_race_findings ast =
  let p = Front.Lower.lower ast in
  strip_hints p;
  let divergence = Analysis.Divergence.run p in
  ignore (Passes.Pdom_sync.run p divergence);
  ignore (Passes.Cleanup.run p);
  Analysis.Race_safety.check p

let compile_ast ?(check = fun _ _ -> ()) options ast =
  let ast =
    match options.coarsen with
    | Some factor -> Front.Coarsen.apply ast ~factor
    | None -> ast
  in
  let program = Front.Lower.lower ast in
  override_thresholds options.threshold program;
  check "lower" program;
  (* Every stage that rewrites [program] reports to the observer. *)
  let stage name f =
    let result = f () in
    check name program;
    result
  in
  let pdom () =
    let divergence = Analysis.Divergence.run program in
    stage "pdom_sync" (fun () -> Passes.Pdom_sync.run program divergence)
  in
  let speculative strategy =
    let applied = stage "specrecon" (fun () -> Passes.Specrecon.run program) in
    let interproc = stage "interproc" (fun () -> Passes.Interproc.run program) in
    let pdom = pdom () in
    let report =
      if options.deconflict then begin
        let priority = barrier_priority ~applied ~interproc ~pdom in
        Some (stage "deconflict" (fun () -> Passes.Deconflict.run program ~strategy ~priority))
      end
      else None
    in
    (pdom, applied, interproc, report)
  in
  let (pdom_barriers, applied, interproc_applied, deconflict_report), candidates =
    match options.mode with
    | No_sync ->
      strip_hints program;
      (([], [], [], None), [])
    | Baseline ->
      strip_hints program;
      ((pdom (), [], [], None), [])
    | Speculative strategy -> (speculative strategy, [])
    | Automatic { params; strategy; profile } ->
      strip_hints program;
      let candidates = Passes.Auto_detect.detect ?profile params program in
      stage "auto_detect" (fun () -> Passes.Auto_detect.install program candidates);
      (speculative strategy, candidates)
  in
  if options.cleanup then stage "cleanup" (fun () -> ignore (Passes.Cleanup.run program));
  Ir.Verifier.check_program_exn program;
  (* Mandatory barrier-safety stage: a finding is a compiler bug (a
     placement the deconfliction rules should have ruled out), so it is a
     hard error unless the caller opted out with lint=false (srcc
     --no-lint), which leaves reporting the findings to the caller. *)
  let spec_meta = speculative_meta ~applied ~interproc:interproc_applied in
  let lint_findings = Analysis.Barrier_safety.check ~speculative:spec_meta program in
  (* Opt-in repair stage ([srcc --fix]): synthesize a minimal edit
     sequence whose re-check comes back empty. An accepted repair
     replaces the program and clears the findings, so the lint gate
     below sees a clean compile; a dry run or an unrepairable program
     leaves both untouched and the gate fires as today. *)
  let repair_report =
    match options.repair with
    | No_repair -> None
    | Repair { max_edits; _ } ->
      let before = Ir.Linear.linearize program in
      let outcome =
        match lint_findings with
        | [] -> Analysis.Barrier_repair.Clean
        | _ -> Analysis.Barrier_repair.repair ~speculative:spec_meta ~max_edits program
      in
      Some { pre_findings = lint_findings; outcome; before }
  in
  let program, lint_findings =
    match (options.repair, repair_report) with
    | ( Repair { dry_run = false; _ },
        Some { outcome = Analysis.Barrier_repair.Repaired { program = p; _ }; _ } ) ->
      check "repair" p;
      (p, [])
    | _ -> (program, lint_findings)
  in
  if options.lint && lint_findings <> [] then begin
    let unrepairable =
      match repair_report with
      | Some { outcome = Analysis.Barrier_repair.Unrepairable { blocking; explored }; _ } ->
        Printf.sprintf "\nsrfix: unrepairable after exploring %d candidate(s); blocked by: %s"
          explored
          (Format.asprintf "%a" Analysis.Barrier_safety.pp_machine blocking)
      | _ -> ""
    in
    failwith
      (Printf.sprintf "srlint: %d barrier-safety finding(s):\n%s%s" (List.length lint_findings)
         (Analysis.Barrier_safety.render lint_findings) unrepairable)
  end;
  (* Race stage ([srcc --race]): unlike lint, findings are reported, not
     gated — a data race can be source-level (present under every
     placement), so the caller decides severity. Under a speculative
     placement, findings absent from the PDOM placement of the same
     source are upgraded to [race-introduced]: the transform broke an
     ordering PDOM had. The PDOM baseline is built lazily — only when
     there is something to diff. *)
  let race_findings =
    if not options.race then []
    else
      let findings = Analysis.Race_safety.check program in
      match (options.mode, findings) with
      | (No_sync | Baseline), _ | _, [] -> findings
      | (Speculative _ | Automatic _), _ ->
        Analysis.Race_safety.diff ~baseline:(pdom_race_findings ast) findings
  in
  let linear = Ir.Linear.linearize program in
  let decoded = Ir.Decoded.decode linear in
  {
    options;
    program;
    linear;
    decoded;
    pdom_barriers;
    applied;
    interproc_applied;
    deconflict_report;
    candidates;
    lint_findings;
    race_findings;
    repair_report;
  }

let compile options ~source = compile_ast options (Front.Parser.parse_string source)
