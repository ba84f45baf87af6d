(* The compile pipeline rebuilt stage by stage from each layer's public
   functions, with a span around every stage and work counts at the
   stage boundaries, plus a traced launch.

   This mirrors Core.Compile.compile_ast step for step (parse, coarsen,
   lower, threshold override, synchronization passes, deconfliction,
   cleanup, verify, srlint, repair, srrace with its PDOM rebuild,
   linearize, decode). [replicates] holds the rebuild to the real
   pipeline: the decoded listing must be byte-identical to the one
   Core.Compile.compile produces for the same source and options,
   otherwise the per-layer numbers would describe a different
   pipeline. *)

module C = Core.Compile
module T = Ir.Types

let ir_insts (p : T.program) =
  Hashtbl.fold
    (fun _ (f : T.func) acc ->
      Hashtbl.fold (fun _ (b : T.block) acc -> acc + List.length b.T.insts + 1) f.T.blocks acc)
    p.T.funcs 0

(* Core.Compile's private helpers, restated. *)

let strip_hints (p : T.program) = Hashtbl.iter (fun _ (f : T.func) -> f.T.hints <- []) p.T.funcs

let override_thresholds threshold (p : T.program) =
  let set h =
    match threshold with
    | C.Keep -> h
    | C.Set k -> { h with T.threshold = Some k }
    | C.Unset -> { h with T.threshold = None }
  in
  if threshold <> C.Keep then
    Hashtbl.iter (fun _ (f : T.func) -> f.T.hints <- List.map set f.T.hints) p.T.funcs

let speculative_meta ~applied ~interproc =
  List.map
    (fun (a : Passes.Specrecon.applied) ->
      { Analysis.Barrier_safety.sfunc = a.in_func; slot = a.user_barrier;
        join_block = a.region_start })
    applied
  @ List.map
      (fun (a : Passes.Interproc.applied) ->
        { Analysis.Barrier_safety.sfunc = a.in_func; slot = a.barrier; join_block = a.region_start })
      interproc

let make_priority ~applied ~interproc ~pdom =
  let rank = Hashtbl.create 16 in
  List.iter
    (fun (a : Passes.Specrecon.applied) ->
      Hashtbl.replace rank (a.in_func, a.user_barrier) 3;
      Option.iter (fun b -> Hashtbl.replace rank (a.in_func, b) 2) a.region_barrier)
    applied;
  List.iter
    (fun (a : Passes.Interproc.applied) -> Hashtbl.replace rank (a.in_func, a.barrier) 3)
    interproc;
  List.iter (fun (fname, _, b) -> Hashtbl.replace rank (fname, b) 1) pdom;
  fun fname b -> Option.value (Hashtbl.find_opt rank (fname, b)) ~default:1

(* The PDOM placement of the same (coarsened) AST, for srrace's
   differential; one span, as it is one stage of the race checker. *)
let pdom_race_findings ast =
  let p = Front.Lower.lower ast in
  strip_hints p;
  ignore (Passes.Pdom_sync.run p (Analysis.Divergence.run p));
  ignore (Passes.Cleanup.run p);
  Analysis.Race_safety.check p

type built = { program : T.program; decoded : Ir.Decoded.t }

let compile tr (o : C.options) ~source =
  let span name f = Span.with_span tr name f in
  let count name n = Span.count tr name (float_of_int n) in
  let ast = span "front.parse" (fun () -> Front.Parser.parse_string source) in
  let ast =
    match o.C.coarsen with
    | Some factor -> span "front.coarsen" (fun () -> Front.Coarsen.apply ast ~factor)
    | None -> ast
  in
  let program = span "front.lower" (fun () -> Front.Lower.lower ast) in
  count "front.ir_insts" (ir_insts program);
  override_thresholds o.C.threshold program;
  let pdom () =
    let d = span "analysis.divergence" (fun () -> Analysis.Divergence.run program) in
    span "passes.pdom_sync" (fun () -> Passes.Pdom_sync.run program d)
  in
  let speculative strategy =
    let applied = span "passes.specrecon" (fun () -> Passes.Specrecon.run program) in
    let interproc = span "passes.interproc" (fun () -> Passes.Interproc.run program) in
    let pdom = pdom () in
    if o.C.deconflict then begin
      let priority = make_priority ~applied ~interproc ~pdom in
      ignore (span "passes.deconflict" (fun () -> Passes.Deconflict.run program ~strategy ~priority))
    end;
    (pdom, applied, interproc)
  in
  let pdom, applied, interproc =
    match o.C.mode with
    | C.No_sync ->
      strip_hints program;
      ([], [], [])
    | C.Baseline ->
      strip_hints program;
      (pdom (), [], [])
    | C.Speculative strategy -> speculative strategy
    | C.Automatic { params; strategy; profile } ->
      strip_hints program;
      span "passes.auto_detect" (fun () ->
          Passes.Auto_detect.install program (Passes.Auto_detect.detect ?profile params program));
      speculative strategy
  in
  count "passes.barriers_placed" (List.length pdom + List.length applied + List.length interproc);
  if o.C.cleanup then begin
    let r = span "passes.cleanup" (fun () -> Passes.Cleanup.run program) in
    count "passes.cleanup_removed" (r.Passes.Cleanup.dce_removed + r.dead_barrier_ops_removed)
  end;
  span "ir.verify" (fun () -> Ir.Verifier.check_program_exn program);
  let speculative = speculative_meta ~applied ~interproc in
  let lint = span "analysis.lint" (fun () -> Analysis.Barrier_safety.check ~speculative program) in
  let program, lint =
    match o.C.repair with
    | C.No_repair -> (program, lint)
    | C.Repair { dry_run; max_edits } ->
      span "analysis.repair" (fun () ->
          (* Core.Compile linearizes the pre-repair program for its report. *)
          ignore (Ir.Linear.linearize program);
          if lint = [] then (program, lint)
          else
            match Analysis.Barrier_repair.repair ~speculative ~max_edits program with
            | Analysis.Barrier_repair.Repaired { program = p; explored; _ } ->
              count "analysis.repair_explored" explored;
              if dry_run then (program, lint) else (p, [])
            | Analysis.Barrier_repair.Unrepairable { explored; _ } ->
              count "analysis.repair_explored" explored;
              (program, lint)
            | Analysis.Barrier_repair.Clean -> (program, lint))
  in
  count "analysis.lint_findings" (List.length lint);
  if lint <> [] && o.C.lint then
    failwith (Printf.sprintf "srlint: %d barrier-safety finding(s)" (List.length lint));
  let race =
    if not o.C.race then []
    else
      let findings = span "analysis.race" (fun () -> Analysis.Race_safety.check program) in
      match (o.C.mode, findings) with
      | (C.No_sync | C.Baseline), _ | _, [] -> findings
      | (C.Speculative _ | C.Automatic _), _ ->
        let baseline = span "analysis.race_pdom" (fun () -> pdom_race_findings ast) in
        Analysis.Race_safety.diff ~baseline findings
  in
  count "analysis.race_findings" (List.length race);
  let linear = span "ir.linearize" (fun () -> Ir.Linear.linearize program) in
  count "ir.linear_insts" (Array.length linear.Ir.Linear.code);
  { program; decoded = span "ir.decode" (fun () -> Ir.Decoded.decode linear) }

let listing decoded = Format.asprintf "%a" Ir.Decoded.pp decoded

(* The stage-replication check: [Error] names the first differing line. *)
let replicates built (o : C.options) ~source =
  let want = listing (C.compile o ~source).C.decoded and got = listing built.decoded in
  if String.equal want got then Ok ()
  else
    let w = String.split_on_char '\n' want and g = String.split_on_char '\n' got in
    let rec first i = function
      | a :: w, b :: g -> if String.equal a b then first (i + 1) (w, g) else (i, a, b)
      | a :: _, [] -> (i, a, "<end>")
      | [], b :: _ -> (i, "<end>", b)
      | [], [] -> (i, "", "")
    in
    let i, a, b = first 1 (w, g) in
    Error (Printf.sprintf "decoded listing differs at line %d: compile=%S staged=%S" i a b)

(* One launch under a "simt.run" span, with the simulator's counters. *)
let launch tr ~config ~init ~args built =
  let words0 = Gc.minor_words () in
  let r =
    Span.with_span tr "simt.run" (fun () ->
        Simt.Interp.run config built.decoded ~args ~init_memory:(fun mem -> init built.program mem))
  in
  let words = Gc.minor_words () -. words0 in
  let m = r.Simt.Interp.metrics in
  let mem = Simt.Memsys.stats r.Simt.Interp.memory in
  let count name n = Span.count tr name (float_of_int n) in
  Span.count tr "simt.minor_words" words;
  count "simt.issues" m.Simt.Metrics.issues;
  count "simt.cycles" m.cycles;
  count "simt.idle_cycles" (m.cycles - m.issues);
  count "simt.active_lanes" m.active_sum;
  count "simt.mem_transactions" mem.Simt.Memsys.transactions;
  count "simt.mem_cache_hits" mem.hits;
  count "simt.mem_cache_lookups" (mem.hits + mem.misses);
  count "simt.barrier_waits" m.barrier_waits;
  count "simt.barrier_fires" m.barrier_fires;
  r
