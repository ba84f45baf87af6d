module T = Ir.Types
module Sm = Support.Splitmix
module Sp = Serve.Protocol

type kind =
  | Round_trip
  | Stage_failure
  | Deadlock
  | Runtime_error
  | Result_divergence
  | Lint_unsound
  | Lint_spurious
  | Chaos_divergence
  | Spurious_yield
  | Race_unsound
  | Race_spurious
  | Serve_mismatch
  | Serve_chaos
  | Serve_persist
  | Repair_unsound
  | Repair_incomplete

let kind_name = function
  | Round_trip -> "round-trip"
  | Stage_failure -> "stage-failure"
  | Deadlock -> "deadlock"
  | Runtime_error -> "runtime-error"
  | Result_divergence -> "result-divergence"
  | Lint_unsound -> "lint-unsound"
  | Lint_spurious -> "lint-spurious"
  | Chaos_divergence -> "chaos-divergence"
  | Spurious_yield -> "spurious-yield"
  | Race_unsound -> "race-unsound"
  | Race_spurious -> "race-spurious"
  | Serve_mismatch -> "serve-mismatch"
  | Serve_chaos -> "serve-chaos"
  | Serve_persist -> "serve-persist"
  | Repair_unsound -> "repair-unsound"
  | Repair_incomplete -> "repair-incomplete"

type violation = { kind : kind; detail : string }

type verdict = Ok_run | Limit of string | Violation of violation

let pp_verdict ppf = function
  | Ok_run -> Format.pp_print_string ppf "ok"
  | Limit msg -> Format.fprintf ppf "limit (%s)" msg
  | Violation { kind; detail } -> Format.fprintf ppf "VIOLATION %s: %s" (kind_name kind) detail

let base_config =
  { Simt.Config.default with Simt.Config.n_warps = Gen.n_threads / 32; seed = 11 }

(* The input arrays are filled by global name, so the pattern depends
   only on the source program (the layout is fixed at lowering, before
   any mode-specific pass runs). The definition lives with the server so
   the wire protocol's [init=data] and this oracle share it exactly. *)
let init_memory = Serve.Server.data_init

(* Bit-exact memory snapshot: float cells compare by IEEE bit pattern
   (works for NaN payloads too), tagged so an int and a float holding the
   same bits cannot alias. *)
let snapshot mem =
  let n = Simt.Memsys.size mem in
  Array.map
    (function
      | T.I i -> (false, i)
      | T.F f -> (true, Int64.to_int (Int64.bits_of_float f)))
    (Simt.Memsys.dump mem ~base:0 ~len:n)

let first_diff a b =
  let rec go i =
    if i >= Array.length a || i >= Array.length b then None
    else if a.(i) <> b.(i) then Some i
    else go (i + 1)
  in
  if Array.length a <> Array.length b then Some (min (Array.length a) (Array.length b)) else go 0

let round_trip ast =
  let src = Front.Pretty.to_string ast in
  match Front.Parser.parse_string src with
  | reparsed ->
    if Front.Pretty.equal_program ast reparsed then None
    else Some { kind = Round_trip; detail = "re-parsed program differs structurally" }
  | exception Front.Parser.Parse_error (p, msg) ->
    Some
      { kind = Round_trip;
        detail = Format.asprintf "pretty output does not parse: %a: %s" Front.Ast.pp_pos p msg }
  | exception Front.Lexer.Lex_error (p, msg) ->
    Some
      { kind = Round_trip;
        detail = Format.asprintf "pretty output does not lex: %a: %s" Front.Ast.pp_pos p msg }

exception Stop of verdict

(* Stage health: every cell compiles through the shipping pipeline,
   with srlint's findings kept as data (lint = false) for the oracles
   to hold against the simulator, and Ir.Verifier observing the program
   after every stage Core.Compile reports. A failure names the stage
   whose output the verifier rejected ("verify:<stage>"), or the last
   stage that finished before a pass raised ("after:<stage>"; "lower"
   when lowering itself failed). *)
let compile_staged ast (options : Core.Compile.options) =
  let last = ref None in
  let fail stage msg = raise (Stop (Violation { kind = Stage_failure; detail = stage ^ ": " ^ msg })) in
  let check stage program =
    last := Some stage;
    match Ir.Verifier.check_program program with
    | [] -> ()
    | errors ->
      fail ("verify:" ^ stage)
        (String.concat "; " (List.map (Format.asprintf "%a" Ir.Verifier.pp_error) errors))
  in
  let raised msg = fail (match !last with None -> "lower" | Some s -> "after:" ^ s) msg in
  match Core.Compile.compile_ast ~check { options with lint = false } ast with
  | compiled -> compiled
  | exception Failure msg -> raised msg
  | exception Front.Lower.Lower_error (p, msg) ->
    raised (Format.asprintf "%a: %s" Front.Ast.pp_pos p msg)

let mode_name (c : Core.Compile.compiled) = Core.Compile.mode_name c.options.mode

(* Only parameterless kernels can run under the matrix (there is nothing
   to pass for the others); the generator emits exactly those. *)
let runnable_kernels (linear : Ir.Linear.t) =
  List.filter (fun (kf : Ir.Linear.finfo) -> kf.Ir.Linear.arity = 0) linear.Ir.Linear.kernels

(* Serve tier: the same program goes through the srserved engine — a
   cold pass (empty cache, every kernel's first sight is a miss) then a
   warm pass (the artifact is cached, every launch must hit) — and every
   response line must be byte-identical to one rebuilt from the one-shot
   Core.Compile + Core.Runner stages: same metrics, same memory digest,
   and cache counters proving the warm pass really served from cache.
   This catches anything the service layer could add on top of the
   pipeline it wraps: key collisions handing back the wrong artifact,
   artifacts mutated by a previous launch, counter nondeterminism,
   response misordering. *)
let serve_matrix ~max_issues ast (linear : Ir.Linear.t) =
  match runnable_kernels linear with
  | [] -> ()
  | kernels ->
    let source = Front.Pretty.to_string ast in
    let server = Serve.Server.create ~cache_capacity:8 ~max_issues () in
    let compiled =
      try Ok (Core.Compile.compile Core.Compile.speculative ~source) with exn -> Error exn
    in
    let config = { base_config with Simt.Config.max_issues } in
    (* Mirror of the server's counter discipline: the artifact is keyed
       by source + compile fields only, so the program's first request is
       the one miss and every later request (any kernel, either pass) a
       hit. Counters advance at cache-resolution time, before the launch
       — a launch failure still consumed its hit or miss. *)
    let hits = ref 0 and misses = ref 0 in
    let expected rid (kf : Ir.Linear.finfo) =
      let oneshot () =
        match compiled with
        | Error exn -> raise exn
        | Ok artifact ->
          let cache =
            if !misses = 0 then begin misses := 1; Sp.Miss end
            else begin incr hits; Sp.Hit end
          in
          let outcome =
            Core.Runner.launch ~config ~init:Serve.Server.data_init
              ~entry:kf.Ir.Linear.fname artifact ~args:[]
          in
          let m = outcome.Core.Runner.metrics in
          Sp.Ok_run
            {
              Sp.rid;
              cache;
              hits = !hits;
              misses = !misses;
              evictions = 0;
              cycles = m.Simt.Metrics.cycles;
              issues = m.Simt.Metrics.issues;
              active = m.Simt.Metrics.active_sum;
              finished = m.Simt.Metrics.threads_finished;
              digest = Simt.Memsys.digest outcome.Core.Runner.memory;
            }
      in
      match oneshot () with
      | resp -> resp
      | exception exn -> (
        match Core.Cli.classify exn with
        | Some outcome ->
          let kind, msg = Serve.Server.outcome_kind_and_message outcome in
          Sp.Error { rid; code = Core.Cli.exit_code outcome; kind; msg }
        | None -> raise exn)
    in
    let n = List.length kernels in
    List.iter
      (fun pass ->
        let reqs =
          List.mapi (fun i kf -> ((pass * n) + i, kf)) kernels
        in
        let actual =
          Serve.Server.submit server
            (List.map
               (fun (rid, (kf : Ir.Linear.finfo)) ->
                 Sp.Run
                   (Sp.make_request ~id:rid ~warps:base_config.Simt.Config.n_warps
                      ~seed:base_config.Simt.Config.seed ~entry:kf.Ir.Linear.fname
                      ~init:"data" ~source ()))
               reqs)
        in
        List.iter2
          (fun (rid, (kf : Ir.Linear.finfo)) got ->
            let got = Sp.print_response got and want = Sp.print_response (expected rid kf) in
            if not (String.equal got want) then
              raise
                (Stop
                   (Violation
                      {
                        kind = Serve_mismatch;
                        detail =
                          Printf.sprintf
                            "%s pass, kernel %s: served response differs from the one-shot \
                             pipeline\n  served:   %s\n  one-shot: %s"
                            (if pass = 0 then "cold" else "warm")
                            kf.Ir.Linear.fname got want;
                      })))
          reqs actual)
      [ 0; 1 ]

(* Chaos tier: a lint-clean program already proven mode- and
   schedule-independent by the main matrix must ALSO survive fault
   injection — scheduler perturbations, memory-latency spikes, spurious
   releases, forced stalls — with yield recovery on, and still produce
   memory bit-identical to the unfaulted PDOM baseline. Generated
   programs are schedule-independent by construction and spurious
   releases only shrink participation, so any divergence is a simulator
   bug; and a checker-clean program can never truly stall, so any yield
   the watchdog fires is a false stall detection ({!Spurious_yield}) —
   the runtime-side cross-validation of srlint. *)
let chaos_matrix ~max_issues ~chaos ~chaos_seed ~(baseline : Core.Compile.compiled)
    ~(specrecon : Core.Compile.compiled) =
  List.iteri
    (fun ki (kf : Ir.Linear.finfo) ->
      let run_baseline () =
        let config = { base_config with Simt.Config.max_issues } in
        Simt.Interp.run config baseline.decoded ~entry:kf.Ir.Linear.fname ~args:[]
          ~init_memory:(init_memory baseline.program)
      in
      let reference =
        try
          let r = run_baseline () in
          (snapshot r.Simt.Interp.memory, r.Simt.Interp.metrics.Simt.Metrics.threads_finished)
        with Simt.Interp.Runaway msg ->
          raise (Stop (Limit (Printf.sprintf "chaos baseline/%s: %s" kf.Ir.Linear.fname msg)))
      in
      for plan = 0 to chaos - 1 do
        let policies = Simt.Config.policies in
        let policy = List.nth policies (plan mod List.length policies) in
        let where =
          Printf.sprintf "chaos plan %d (%s) kernel %s" plan (Simt.Config.policy_name policy)
            kf.Ir.Linear.fname
        in
        let fault_seed =
          let rng = Sm.of_ints chaos_seed plan ki in
          Sm.int rng 0x3fffffff
        in
        let faults = Simt.Faults.create ~seed:fault_seed () in
        let config =
          { base_config with
            Simt.Config.policy;
            max_issues;
            yield_on_stall = true;
            yield_policy = Simt.Config.Oldest_arrival }
        in
        (* Re-execute under a replayed (sub)trace — the trace shrinker's
           predicate runner. *)
        let replay_run events =
          let f = Simt.Faults.replay events in
          match
            Simt.Interp.run ~faults:f config specrecon.decoded
              ~entry:kf.Ir.Linear.fname ~args:[]
              ~init_memory:(init_memory specrecon.program)
          with
          | r -> Some r
          | exception (Simt.Interp.Deadlock _ | Simt.Interp.Runtime_error _ | Simt.Interp.Runaway _)
            ->
            None
        in
        (* The minimal sub-trace still provoking [pred]: what the
           violation detail prints, so a repro starts from the fewest
           faults that matter (each candidate costs a simulation, hence
           the small budget). *)
        let minimal_trace faults pred =
          Shrink.shrink_trace ~budget:48 (Simt.Faults.events faults)
            ~still_failing:(fun evs ->
              match replay_run evs with Some r -> pred r | None -> false)
        in
        let result =
          try
            Simt.Interp.run ~faults config specrecon.decoded
              ~entry:kf.Ir.Linear.fname ~args:[]
              ~init_memory:(init_memory specrecon.program)
          with
          | Simt.Interp.Deadlock msg ->
            raise
              (Stop
                 (Violation
                    { kind = Chaos_divergence;
                      detail =
                        Printf.sprintf "%s: deadlock despite yield recovery: %s" where msg }))
          | Simt.Interp.Runtime_error msg ->
            raise
              (Stop
                 (Violation
                    { kind = Chaos_divergence;
                      detail = Printf.sprintf "%s: runtime error under faults: %s" where msg }))
          | Simt.Interp.Runaway msg -> raise (Stop (Limit (Printf.sprintf "%s: %s" where msg)))
        in
        let yields = result.Simt.Interp.metrics.Simt.Metrics.yields in
        if yields > 0 then
          raise
            (Stop
               (Violation
                  { kind = Spurious_yield;
                    detail =
                      Printf.sprintf
                        "%s: %d yield(s) on a checker-clean program (fault seed %d, minimal \
                         trace:\n\
                         %s)"
                        where yields fault_seed
                        (Simt.Faults.trace_to_string
                           (minimal_trace faults (fun r ->
                                r.Simt.Interp.metrics.Simt.Metrics.yields > 0))) }));
        let ref_snap, ref_finished = reference in
        let finished = result.Simt.Interp.metrics.Simt.Metrics.threads_finished in
        if finished <> ref_finished then
          raise
            (Stop
               (Violation
                  { kind = Chaos_divergence;
                    detail =
                      Printf.sprintf
                        "%s: finished %d threads, unfaulted baseline finished %d (fault seed \
                         %d)"
                        where finished ref_finished fault_seed }));
        match first_diff ref_snap (snapshot result.Simt.Interp.memory) with
        | None -> ()
        | Some addr ->
          raise
            (Stop
               (Violation
                  { kind = Chaos_divergence;
                    detail =
                      Printf.sprintf
                        "%s: memory differs from unfaulted baseline at address %d (fault seed \
                         %d, minimal trace:\n%s)"
                        where addr fault_seed
                        (Simt.Faults.trace_to_string
                           (minimal_trace faults (fun r ->
                                first_diff ref_snap (snapshot r.Simt.Interp.memory) <> None))) }))
      done)
    (runnable_kernels specrecon.linear)

let check ?(max_issues = 1_500_000) ?(chaos = 0) ?(chaos_seed = 0xc4a05) ast =
  match round_trip ast with
  | Some v -> Violation v
  | None -> (
    try
      let baseline = compile_staged ast Core.Compile.baseline in
      let specrecon = compile_staged ast Core.Compile.speculative in
      let staged = [ baseline; specrecon ] in
      (* Per-kernel reference row: every (mode, policy) cell must match
         the first run of the same kernel. *)
      let reference = Hashtbl.create 4 in
      (* The race differential: every matrix cell runs under the
         shadow-memory logger. A dynamic race on a mode whose static
         pass came back empty is a soundness hole (race-unsound, caught
         at the cell); a static finding on a program no cell of the
         whole matrix — both modes, all three schedulers — dynamically
         realizes is a false alarm (race-spurious, checked after the
         matrix). Race_safety.diff only relabels, so emptiness per mode
         is the same with or without the PDOM differential. *)
      let dynamic_race = ref false in
      List.iter
        (fun (s : Core.Compile.compiled) ->
          List.iter
            (fun policy ->
              List.iter
                (fun (kf : Ir.Linear.finfo) ->
                  let kname = kf.Ir.Linear.fname in
                  let where =
                    Printf.sprintf "%s/%s/%s" (mode_name s) (Simt.Config.policy_name policy) kname
                  in
                  let config = { base_config with Simt.Config.policy; max_issues } in
                  let race_log =
                    Simt.Race_log.create ~size:s.program.T.mem_size
                      ~n_warps:config.Simt.Config.n_warps ()
                  in
                  let result =
                    try
                      Simt.Interp.run ~race:race_log config s.decoded ~entry:kname ~args:[]
                        ~init_memory:(init_memory s.program)
                    with
                    | Simt.Interp.Deadlock msg ->
                      (* Any deadlock is a violation; one srlint failed
                         to predict is also a soundness hole in the
                         checker. *)
                      let kind, msg =
                        if s.lint_findings = [] then
                          (Lint_unsound, Printf.sprintf "simulator deadlocked but srlint was clean: %s" msg)
                        else (Deadlock, msg)
                      in
                      raise (Stop (Violation { kind; detail = Printf.sprintf "%s: %s" where msg }))
                    | Simt.Interp.Runtime_error msg ->
                      raise
                        (Stop
                           (Violation
                              { kind = Runtime_error; detail = Printf.sprintf "%s: %s" where msg }))
                    | Simt.Interp.Runaway msg ->
                      raise (Stop (Limit (Printf.sprintf "%s: %s" where msg)))
                  in
                  let snap = snapshot result.Simt.Interp.memory in
                  let finished = result.Simt.Interp.metrics.Simt.Metrics.threads_finished in
                  if Simt.Race_log.total race_log > 0 then begin
                    dynamic_race := true;
                    if s.race_findings = [] then
                      raise
                        (Stop
                           (Violation
                              { kind = Race_unsound;
                                detail =
                                  Printf.sprintf
                                    "%s: shadow logger observed %d race(s) but srrace was \
                                     clean; first: %s"
                                    where
                                    (Simt.Race_log.total race_log)
                                    (match Simt.Race_log.events race_log with
                                    | ev :: _ -> Format.asprintf "%a" Simt.Race_log.pp_event ev
                                    | [] -> "(no retained events)") }))
                  end;
                  match Hashtbl.find_opt reference kname with
                  | None -> Hashtbl.replace reference kname (where, snap, finished)
                  | Some (ref_where, ref_snap, ref_finished) ->
                    if finished <> ref_finished then
                      raise
                        (Stop
                           (Violation
                              { kind = Result_divergence;
                                detail =
                                  Printf.sprintf "%s finished %d threads, %s finished %d"
                                    ref_where ref_finished where finished }));
                    (match first_diff ref_snap snap with
                    | None -> ()
                    | Some addr ->
                      raise
                        (Stop
                           (Violation
                              { kind = Result_divergence;
                                detail =
                                  Printf.sprintf "memory differs between %s and %s at address %d"
                                    ref_where where addr }))))
                (runnable_kernels s.linear))
            Simt.Config.policies)
        staged;
      (* Precision side of the soundness oracle: the whole matrix
         completed without deadlock under every scheduler, so any
         remaining finding is a false alarm. *)
      match List.find_opt (fun (s : Core.Compile.compiled) -> s.lint_findings <> []) staged with
      | Some s ->
        Violation
          {
            kind = Lint_spurious;
            detail =
              Printf.sprintf "%s ran deadlock-free everywhere, yet: %s" (mode_name s)
                (Format.asprintf "%a" Analysis.Barrier_safety.pp_machine (List.hd s.lint_findings));
          }
      | None -> (
        (* Race precision: the whole matrix ran with the shadow logger
           armed — both modes, all three schedulers — and no cell
           realized a race, so a surviving static race finding is a
           false alarm. *)
        match
          if !dynamic_race then None
          else List.find_opt (fun (s : Core.Compile.compiled) -> s.race_findings <> []) staged
        with
        | Some s ->
          Violation
            {
              kind = Race_spurious;
              detail =
                Printf.sprintf "no cell of the matrix realized a race, yet %s: %s" (mode_name s)
                  (Format.asprintf "%a" Analysis.Race_safety.pp_machine (List.hd s.race_findings));
            }
        | None ->
          (* Serve tier: clean programs must come back from the batched
             service byte-identical to the one-shot pipeline, cold and
             warm. *)
          serve_matrix ~max_issues ast specrecon.linear;
          (* Only lint-clean programs reach the chaos tier, so the
             zero-yields contract applies unconditionally. *)
          if chaos > 0 then chaos_matrix ~max_issues ~chaos ~chaos_seed ~baseline ~specrecon;
          Ok_run)
    with Stop v -> v)

(* ------------------------------------------------------------------ *)
(* Repair tier                                                         *)
(* ------------------------------------------------------------------ *)

(* The repair oracles: manufacture misplaced variants of a clean
   speculative compilation with {!Misplace}, then hold
   Analysis.Barrier_repair to its contract on each flagged variant.

   - repair-incomplete: every finding set must produce an outcome — a
     repair or an explicit Unrepairable naming the blocking finding; a
     "repaired" program srlint still flags is the repair pass lying
     about its own acceptance condition.
   - repair-unsound: an accepted repair must also hold dynamically —
     verifier-clean, deadlock-free without yield under all three
     schedulers, and memory bit-identical to the unfaulted PDOM
     baseline. Generated programs are schedule-independent by
     construction, so any divergence is introduced by the edits. *)
let default_mut_seed = 0xf1c5

let check_repair ?(max_issues = 1_500_000) ?(variants = 3) ?(mut_seed = default_mut_seed)
    ?(id = 0) ast =
  match
    (compile_staged ast Core.Compile.baseline, compile_staged ast Core.Compile.speculative)
  with
  | exception Stop v -> v
  | baseline, specrecon when baseline.lint_findings = [] && specrecon.lint_findings = [] -> (
    let speculative =
      Core.Compile.speculative_meta ~applied:specrecon.applied
        ~interproc:specrecon.interproc_applied
    in
    (* Per-kernel PDOM reference images (first policy; the standard
       matrix already proves baseline schedule-independence). *)
    let reference =
      List.map
        (fun (kf : Ir.Linear.finfo) ->
          let config = { base_config with Simt.Config.max_issues } in
          let r =
            Simt.Interp.run config baseline.decoded ~entry:kf.Ir.Linear.fname
              ~args:[]
              ~init_memory:(init_memory baseline.program)
          in
          (kf.Ir.Linear.fname, snapshot r.Simt.Interp.memory))
        (runnable_kernels baseline.linear)
    in
    try
      for v = 0 to variants - 1 do
        let rng = Sm.of_ints mut_seed id v in
        match Misplace.mutate rng specrecon.program with
        | None -> ()
        | Some (mname, mutant) -> (
          match Analysis.Barrier_safety.check ~speculative mutant with
          | [] -> () (* benign misplacement; nothing for the repair pass to do *)
          | pre_findings -> (
            let where = Printf.sprintf "variant %d (%s)" v mname in
            match Analysis.Barrier_repair.repair ~speculative mutant with
            | Analysis.Barrier_repair.Clean ->
              raise
                (Stop
                   (Violation
                      {
                        kind = Repair_incomplete;
                        detail =
                          Printf.sprintf
                            "%s: repair claims the program is already clean, but srlint \
                             reports %d finding(s): %s"
                            where
                            (List.length pre_findings)
                            (Format.asprintf "%a" Analysis.Barrier_safety.pp_machine
                               (List.hd pre_findings));
                      }))
            | Analysis.Barrier_repair.Unrepairable { blocking = _; explored = _ } ->
              (* Acceptable outcome: the contract only requires the
                 blocking finding to be named, which the constructor
                 carries by type. *)
              ()
            | Analysis.Barrier_repair.Repaired { program = repaired; edits; _ } -> (
              let plan = Analysis.Barrier_repair.render_edits edits in
              (match Analysis.Barrier_safety.check ~speculative repaired with
              | [] -> ()
              | f :: _ ->
                raise
                  (Stop
                     (Violation
                        {
                          kind = Repair_unsound;
                          detail =
                            Printf.sprintf
                              "%s: repaired program is still flagged: %s\nplan:\n%s" where
                              (Format.asprintf "%a" Analysis.Barrier_safety.pp_machine f)
                              plan;
                        })));
              match Ir.Verifier.check_program repaired with
              | _ :: _ as errors ->
                raise
                  (Stop
                     (Violation
                        {
                          kind = Repair_unsound;
                          detail =
                            Printf.sprintf "%s: repaired program fails the verifier: %s" where
                              (String.concat "; "
                                 (List.map
                                    (Format.asprintf "%a" Ir.Verifier.pp_error)
                                    errors));
                        }))
              | [] ->
                let linear = Ir.Linear.linearize repaired in
                let decoded = Ir.Decoded.decode linear in
                List.iter
                  (fun policy ->
                    List.iter
                      (fun (kf : Ir.Linear.finfo) ->
                        let kname = kf.Ir.Linear.fname in
                        let cell =
                          Printf.sprintf "%s, %s/%s" where (Simt.Config.policy_name policy)
                            kname
                        in
                        let config =
                          { base_config with Simt.Config.policy; max_issues }
                        in
                        let result =
                          try
                            Simt.Interp.run config decoded ~entry:kname ~args:[]
                              ~init_memory:(init_memory repaired)
                          with
                          | Simt.Interp.Deadlock msg ->
                            raise
                              (Stop
                                 (Violation
                                    {
                                      kind = Repair_unsound;
                                      detail =
                                        Printf.sprintf
                                          "%s: accepted repair deadlocked: %s\nplan:\n%s"
                                          cell msg plan;
                                    }))
                          | Simt.Interp.Runtime_error msg ->
                            raise
                              (Stop
                                 (Violation
                                    {
                                      kind = Repair_unsound;
                                      detail =
                                        Printf.sprintf
                                          "%s: accepted repair raised a runtime error: \
                                           %s\nplan:\n%s"
                                          cell msg plan;
                                    }))
                          | Simt.Interp.Runaway msg ->
                            raise (Stop (Limit (Printf.sprintf "%s: %s" cell msg)))
                        in
                        match List.assoc_opt kname reference with
                        | None -> ()
                        | Some ref_snap -> (
                          match
                            first_diff ref_snap (snapshot result.Simt.Interp.memory)
                          with
                          | None -> ()
                          | Some addr ->
                            raise
                              (Stop
                                 (Violation
                                    {
                                      kind = Repair_unsound;
                                      detail =
                                        Printf.sprintf
                                          "%s: repaired memory differs from the PDOM \
                                           baseline at address %d\nplan:\n%s"
                                          cell addr plan;
                                    }))))
                      (runnable_kernels linear))
                  Simt.Config.policies)))
      done;
      Ok_run
    with Stop v -> v)
  | _, specrecon ->
    (* The unmutated program is itself flagged — the standard tier owns
       that contract (lint-spurious); skip it here. *)
    Limit
      (Printf.sprintf "repair tier skipped: unmutated program has %d finding(s)"
         (List.length specrecon.lint_findings))
