(* Regression gates for the fuzzing subsystem itself:

   - corpus replay: every minimized repro under corpus/ (found by
     srfuzz, root-caused, fixed, then promoted) must pass every
     differential oracle, forever;
   - fixed-seed smoke campaign: the tier-1 slice of a full
     [srfuzz --seed 42] run;
   - deconfliction rescue: the §3 conflicting-barrier deadlock fires
     when the deconflict stage is skipped and is resolved when it runs;
   - generator determinism: same seed and id, same program. *)

module Oracle = Fuzz.Oracle
module C = Core.Compile

(* The checker-rejected placement: speculative compilation with
   deconfliction skipped, its srlint findings kept as data. *)
let compile_raw ast = C.compile_ast { C.speculative with deconflict = false; lint = false } ast

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let simt_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".simt")
  |> List.sort compare
  |> List.map (Filename.concat dir)

let corpus_files () = simt_files "corpus"

let test_corpus_replay () =
  let files = corpus_files () in
  Alcotest.(check bool)
    (Printf.sprintf "corpus holds at least 5 repros (found %d)" (List.length files))
    true
    (List.length files >= 5);
  List.iter
    (fun path ->
      let ast = Front.Parser.parse_string (read_file path) in
      match Oracle.check ast with
      | Oracle.Ok_run -> ()
      | v -> Alcotest.failf "%s: %a" path Oracle.pp_verdict v)
    files

let test_smoke_campaign () =
  let report = Fuzz.Driver.run ~seed:42 ~count:200 () in
  List.iter
    (fun (f : Fuzz.Driver.finding) ->
      Alcotest.failf "[%d] %s %s: %s" f.Fuzz.Driver.id
        (Fuzz.Gen.shape_name f.Fuzz.Driver.shape)
        (Oracle.kind_name f.Fuzz.Driver.violation.Oracle.kind)
        f.Fuzz.Driver.violation.Oracle.detail)
    report.Fuzz.Driver.findings;
  Alcotest.(check int) "every program accounted for" 200
    (report.Fuzz.Driver.passed + report.Fuzz.Driver.limited)

let test_generator_deterministic () =
  let a = Fuzz.Gen.generate ~seed:1729 3 and b = Fuzz.Gen.generate ~seed:1729 3 in
  Alcotest.(check bool) "same seed and id give the same program" true
    (Front.Pretty.equal_program a.Fuzz.Gen.ast b.Fuzz.Gen.ast)

let test_second_kernel_typed_calls () =
  (* Seed 8806 id 202 (and 244) once generated a second kernel whose
     Common_call body fed float arguments to an int-typed fn0 — a
     stage-failure in lower. The generator now only rolls Common_call
     for a second kernel when a float-typed device function exists.
     The pre-fix sources are permanently ill-typed, so the regression is
     pinned by regenerating rather than by a corpus file. *)
  List.iter
    (fun id ->
      let case = Fuzz.Gen.generate ~seed:8806 id in
      match Oracle.check case.Fuzz.Gen.ast with
      | Oracle.Ok_run -> ()
      | v -> Alcotest.failf "8806/%d: %a" id Oracle.pp_verdict v)
    [ 202; 244 ]

(* The §3 common-call conflict, as srfuzz minimized it (corpus id 18):
   threads that call [fn0] block on the interprocedural barrier waiting
   at the callee's entry, while the threads that skipped the call block
   on the caller's PDOM join — complementary waiting sets, so neither
   barrier can ever fire on its own. *)
let conflicting_source =
  {|
func fn0(p0: float) -> float {
}

kernel k() {
  var accf3: float = 0.0;
  predict func fn0;
  for i5 in 0 .. 1 {
    if ((randint(3) == 0)) {
      accf3 = (accf3 + fn0(fabs((rand() - rand()))));
    }
  }
}
|}

let run_policy (staged : C.compiled) policy =
  let config = { Oracle.base_config with Simt.Config.policy } in
  Simt.Interp.run config staged.decoded ~args:[] ~init_memory:(Oracle.init_memory staged.program)

let test_deconflict_rescues_deadlock () =
  let ast = Front.Parser.parse_string conflicting_source in
  let raw = compile_raw ast in
  let deadlocked =
    List.filter
      (fun policy ->
        match run_policy raw policy with
        | _ -> false
        | exception Simt.Interp.Deadlock _ -> true)
      Simt.Config.policies
  in
  Alcotest.(check bool) "deadlocks under some policy without deconfliction" true
    (deadlocked <> []);
  let deconflicted = C.compile_ast C.speculative ast in
  Alcotest.(check bool) "deconfliction resolved the conflict" true
    (match deconflicted.deconflict_report with
    | Some r -> List.length r.Passes.Deconflict.resolutions >= 1
    | None -> false);
  List.iter
    (fun policy ->
      match run_policy deconflicted policy with
      | _ -> ()
      | exception Simt.Interp.Deadlock msg -> Alcotest.failf "still deadlocks: %s" msg)
    Simt.Config.policies;
  match Oracle.check ast with
  | Oracle.Ok_run -> ()
  | v -> Alcotest.failf "full oracle matrix: %a" Oracle.pp_verdict v

(* ---- Yield recovery (the fault-tolerance tentpole) ---- *)

let digest (r : Simt.Interp.result) = Simt.Memsys.digest r.Simt.Interp.memory

let run_yield (staged : C.compiled) policy yield_policy =
  let config =
    { Oracle.base_config with
      Simt.Config.policy;
      yield_on_stall = true;
      yield_policy }
  in
  Simt.Interp.run config staged.decoded ~args:[] ~init_memory:(Oracle.init_memory staged.program)

let test_yield_recovers_conflict () =
  (* The same checker-rejected conflicting placement that deadlocks in
     test_deconflict_rescues_deadlock must, with yield recovery on,
     complete under every (scheduler, victim-policy) pair with memory
     bit-identical to the PDOM baseline — graceful degradation instead
     of a stuck machine. *)
  let ast = Front.Parser.parse_string conflicting_source in
  let raw = compile_raw ast in
  Alcotest.(check bool) "the placement is checker-rejected" true (raw.lint_findings <> []);
  let baseline = C.compile_ast C.baseline ast in
  let want = digest (run_policy baseline Simt.Config.Most_threads) in
  let yielded = ref 0 in
  List.iter
    (fun policy ->
      List.iter
        (fun yield_policy ->
          match run_yield raw policy yield_policy with
          | r ->
            yielded := !yielded + r.Simt.Interp.metrics.Simt.Metrics.yields;
            Alcotest.(check int)
              "all threads finish under yield recovery" (Fuzz.Gen.n_threads)
              r.Simt.Interp.metrics.Simt.Metrics.threads_finished;
            Alcotest.(check bool) "memory matches the PDOM baseline" true (digest r = want)
          | exception Simt.Interp.Deadlock msg ->
            Alcotest.failf "deadlocked despite yield recovery: %s" msg)
        [ Simt.Config.Oldest_arrival; Simt.Config.Most_waiters; Simt.Config.Lowest_slot ])
    Simt.Config.policies;
  Alcotest.(check bool) "recovery actually fired somewhere" true (!yielded > 0)

let test_yield_log_deterministic () =
  (* Victim selection is part of the deterministic machine: same config,
     same yield log (cycle, warp, slot, released lanes), for each victim
     policy. *)
  let ast = Front.Parser.parse_string conflicting_source in
  let raw = compile_raw ast in
  List.iter
    (fun yield_policy ->
      let a = run_yield raw Simt.Config.Most_threads yield_policy in
      let b = run_yield raw Simt.Config.Most_threads yield_policy in
      Alcotest.(check bool) "identical yield logs across reruns" true
        (a.Simt.Interp.yield_log = b.Simt.Interp.yield_log);
      Alcotest.(check bool) "identical issue counts across reruns" true
        (a.Simt.Interp.metrics.Simt.Metrics.issues = b.Simt.Interp.metrics.Simt.Metrics.issues))
    [ Simt.Config.Oldest_arrival; Simt.Config.Most_waiters; Simt.Config.Lowest_slot ]

let test_deadlock_report_names_cycle () =
  (* Satellite of the yield unit: the no-yield diagnostic must name the
     waits-for cycle so the report is actionable. *)
  let ast = Front.Parser.parse_string conflicting_source in
  let raw = compile_raw ast in
  let saw_deadlock =
    List.exists
      (fun policy ->
        match run_policy raw policy with
        | _ -> false
        | exception Simt.Interp.Deadlock msg ->
          let contains needle =
            let n = String.length needle and len = String.length msg in
            let rec go i = i + n <= len && (String.sub msg i n = needle || go (i + 1)) in
            go 0
          in
          Alcotest.(check bool) "report names the waits-for cycle" true
            (contains "waits-for cycle: b");
          Alcotest.(check bool) "report shows blocked sites" true (contains "blocked at");
          Alcotest.(check bool) "report suggests yield recovery" true (contains "--yield");
          true)
      Simt.Config.policies
  in
  Alcotest.(check bool) "some policy deadlocks without yield" true saw_deadlock

(* ---- Fault injection ---- *)

let divergent_source =
  {|
global out: float[64];
kernel k() {
  var acc: float = 0.0;
  for i in 0 .. 12 {
    if (rand() < 0.5) { acc = acc + rand(); } else { acc = acc - 1.0; }
  }
  out[tid()] = acc;
}
|}

let test_fault_trace_roundtrip_and_replay () =
  let ast = Front.Parser.parse_string divergent_source in
  let staged = C.compile_ast C.speculative ast in
  let config = { Oracle.base_config with Simt.Config.yield_on_stall = true } in
  let faults = Simt.Faults.create ~seed:1905 () in
  let a =
    Simt.Interp.run ~faults config staged.decoded ~args:[]
      ~init_memory:(Oracle.init_memory staged.program)
  in
  let events = Simt.Faults.events faults in
  Alcotest.(check bool) "the plan injected something" true (events <> []);
  Alcotest.(check bool) "trace survives print/parse round trip" true
    (Simt.Faults.parse_trace (Simt.Faults.trace_to_string events) = events);
  (* Replaying the recorded trace reproduces the faulted run exactly. *)
  let replayed = Simt.Faults.replay events in
  let b =
    Simt.Interp.run ~faults:replayed config staged.decoded ~args:[]
      ~init_memory:(Oracle.init_memory staged.program)
  in
  Alcotest.(check bool) "replay applies the same faults" true
    (Simt.Faults.events replayed = events);
  Alcotest.(check bool) "replay reproduces the issue count" true
    (a.Simt.Interp.metrics.Simt.Metrics.issues = b.Simt.Interp.metrics.Simt.Metrics.issues);
  Alcotest.(check bool) "replay reproduces the memory image" true (digest a = digest b);
  (* And faults must not change what the program computes. *)
  let clean =
    Simt.Interp.run Oracle.base_config staged.decoded ~args:[]
      ~init_memory:(Oracle.init_memory staged.program)
  in
  Alcotest.(check bool) "faulted memory matches the unfaulted run" true (digest a = digest clean)

(* A faulted schedule pinned to fixed values. Replaying a run against its
   own trace cannot catch a scheduler bug on the forced-stall or
   spurious-release path, since the run and its replay share the bug;
   these numbers were recorded before the group table owned the
   scheduling state. *)
let test_fault_schedule_pinned () =
  let rates =
    { Simt.Faults.default_rates with Simt.Faults.release_rate = 0.02; stall_rate = 0.02 }
  in
  let faults = Simt.Faults.create ~rates ~seed:7 () in
  let config = { Simt.Config.default with Simt.Config.n_warps = 1; yield_on_stall = true } in
  let o =
    Core.Runner.run_spec ~config ~faults Core.Compile.speculative
      (Workloads.Registry.find "mummer")
  in
  let events = Simt.Faults.events faults in
  let count p = List.length (List.filter p events) in
  Alcotest.(check int) "forced stalls" 261
    (count (function Simt.Faults.Stall _ -> true | _ -> false));
  Alcotest.(check int) "spurious releases" 176
    (count (function Simt.Faults.Release _ -> true | _ -> false));
  let m = o.Core.Runner.metrics in
  Alcotest.(check int) "cycles" 42555 m.Simt.Metrics.cycles;
  Alcotest.(check int) "issues" 13618 m.Simt.Metrics.issues;
  Alcotest.(check int) "yields" 0 m.Simt.Metrics.yields;
  Alcotest.(check int) "faults injected" 570 m.Simt.Metrics.faults_injected;
  Alcotest.(check string) "fault trace digest" "45035c870ef59573a28083695dd82f1e"
    (Digest.to_hex (Digest.string (Simt.Faults.trace_to_string events)))

let multi_kernel_source =
  {|
global out: int[64];
global datai: int[64];

kernel k() {
  out[tid()] = datai[tid()] * 2;
}

kernel k2(bias: int) {
  if (datai[tid()] > 0) {
    out[tid()] = datai[tid()] + bias;
  } else {
    out[tid()] = bias;
  }
}
|}

let test_multi_kernel_program () =
  (* Multi-kernel translation units (a ROADMAP item): both kernels are
     lowered side by side; the entry selector picks which one runs. *)
  let ast = Front.Parser.parse_string multi_kernel_source in
  let staged = C.compile_ast C.speculative ast in
  let kernels =
    List.map (fun (f : Ir.Linear.finfo) -> f.Ir.Linear.fname) staged.linear.Ir.Linear.kernels
  in
  Alcotest.(check (list string)) "both kernels listed in order" [ "k"; "k2" ] kernels;
  let run entry args =
    Simt.Interp.run ~entry Oracle.base_config staged.decoded ~args
      ~init_memory:(Oracle.init_memory staged.program)
  in
  let a = run "k" [] in
  let b = run "k2" [ Ir.Types.I 7 ] in
  Alcotest.(check bool) "the two kernels compute different images" true (digest a <> digest b);
  (match run "nope" [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown entry must be rejected");
  match Oracle.check ast with
  | Oracle.Ok_run -> ()
  | v -> Alcotest.failf "multi-kernel program fails the oracle matrix: %a" Oracle.pp_verdict v

let test_chaos_campaign () =
  (* A fixed-seed chaos slice: every clean program must survive one
     fault plan per program with zero violations (the chaos-smoke alias
     runs a second slice at another seed through the srfuzz binary). *)
  let report = Fuzz.Driver.run ~seed:1234 ~count:40 ~chaos:1 () in
  List.iter
    (fun (f : Fuzz.Driver.finding) ->
      Alcotest.failf "[%d] %s %s: %s" f.Fuzz.Driver.id
        (Fuzz.Gen.shape_name f.Fuzz.Driver.shape)
        (Oracle.kind_name f.Fuzz.Driver.violation.Oracle.kind)
        f.Fuzz.Driver.violation.Oracle.detail)
    report.Fuzz.Driver.findings;
  Alcotest.(check int) "every program accounted for" 40
    (report.Fuzz.Driver.passed + report.Fuzz.Driver.limited)

(* ---- Stage health through Core.Compile's observer ---- *)

(* The stage names Core.Compile reports, in order, each program it
   reports checked by Ir.Verifier on the way. *)
let observed_stages options ast =
  let seen = ref [] in
  let check stage program =
    seen := stage :: !seen;
    match Ir.Verifier.check_program program with
    | [] -> ()
    | e :: _ -> Alcotest.failf "verifier after %s: %a" stage Ir.Verifier.pp_error e
  in
  ignore (C.compile_ast ~check options ast);
  List.rev !seen

let parse_file path = Front.Parser.parse_string (read_file path)

let test_stage_sequence () =
  let ast = parse_file "../examples/kernels/loop_merge.simt" in
  let expect name options stages =
    Alcotest.(check (list string)) name stages (observed_stages options ast)
  in
  let sync = [ "specrecon"; "interproc"; "pdom_sync" ] in
  let speculative = ("lower" :: sync) @ [ "deconflict"; "cleanup" ] in
  let repair = C.Repair { dry_run = false; max_edits = Analysis.Barrier_repair.default_max_edits } in
  expect "baseline" C.baseline [ "lower"; "pdom_sync"; "cleanup" ];
  expect "specrecon" C.speculative speculative;
  expect "specrecon-static" { C.speculative with mode = C.mode_of_string "specrecon-static" }
    speculative;
  expect "auto" C.automatic (("lower" :: "auto_detect" :: sync) @ [ "deconflict"; "cleanup" ]);
  expect "coarsen" { C.speculative with coarsen = Some 8 } speculative;
  expect "no deconflict" { C.speculative with deconflict = false }
    (("lower" :: sync) @ [ "cleanup" ]);
  expect "repair of a clean program" { C.speculative with repair } speculative;
  Alcotest.(check (list string)) "accepted repair"
    (("lower" :: sync) @ [ "cleanup"; "repair" ])
    (observed_stages
       { C.speculative with deconflict = false; repair }
       (parse_file "corpus/srfuzz_42_114_deadlock.simt"))

let test_stage_health_sweep () =
  let modes = List.map C.mode_of_string [ "baseline"; "specrecon"; "specrecon-static"; "auto" ] in
  let sweep ~deconflict path =
    let ast = parse_file path in
    List.iter
      (fun mode -> ignore (observed_stages { C.baseline with mode; deconflict; lint = false } ast))
      modes
  in
  let examples = simt_files "../examples/kernels" and corpus = corpus_files () in
  Alcotest.(check bool) "sweep has examples and corpus repros" true (examples <> [] && corpus <> []);
  List.iter (sweep ~deconflict:true) examples;
  List.iter (sweep ~deconflict:false) corpus

let tests =
  [
    ( "fuzz.oracles",
      [
        Alcotest.test_case "generator deterministic" `Quick test_generator_deterministic;
        Alcotest.test_case "second-kernel calls well-typed" `Quick
          test_second_kernel_typed_calls;
        Alcotest.test_case "deconfliction rescues common-call deadlock" `Quick
          test_deconflict_rescues_deadlock;
        Alcotest.test_case "multi-kernel programs" `Quick test_multi_kernel_program;
        Alcotest.test_case "corpus replay" `Slow test_corpus_replay;
        Alcotest.test_case "smoke campaign (seed 42)" `Slow test_smoke_campaign;
      ] );
    ( "fuzz.stage_health",
      [
        Alcotest.test_case "observed stage sequence per option" `Quick test_stage_sequence;
        Alcotest.test_case "every stage verifier-clean on examples and corpus" `Quick
          test_stage_health_sweep;
      ] );
    ( "fuzz.chaos",
      [
        Alcotest.test_case "yield recovery completes conflicting placements" `Quick
          test_yield_recovers_conflict;
        Alcotest.test_case "yield log deterministic per victim policy" `Quick
          test_yield_log_deterministic;
        Alcotest.test_case "deadlock report names the waits-for cycle" `Quick
          test_deadlock_report_names_cycle;
        Alcotest.test_case "fault trace round-trips and replays" `Quick
          test_fault_trace_roundtrip_and_replay;
        Alcotest.test_case "faulted schedule pinned" `Quick test_fault_schedule_pinned;
        Alcotest.test_case "chaos campaign (seed 1234)" `Slow test_chaos_campaign;
      ] );
  ]
