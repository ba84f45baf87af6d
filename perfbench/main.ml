(* The repository benchmark.

     main.exe --workload paper-eval|kernel-zoo|serve-mix --seed N
              --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics with tracing off; --trace 1
   makes the traced run and reports the per-layer metrics. Every metric
   is printed as "name value unit", and the last line of standard
   output is one JSON object with the keys correct, attempted, failed
   and metrics. README.md next to this file describes the workloads,
   the metrics, the seeds, the offered rate and the limits. *)

let workloads = [ "paper-eval"; "kernel-zoo"; "serve-mix" ]

(* Each workload's tail percentile: the highest that leaves at least ten
   samples beyond it in the smallest sample set a run takes. A batch
   pass repeats every cell, so the heaviest cells fill the top of the
   samples in blocks; paper-eval's heaviest cell is 1/23 of them, and
   its p98 lies inside that block (a p95 would lie on the edge between
   the two heaviest cells and measure the slowest outliers of the
   second). *)
let tail_percentile = function "paper-eval" -> 98.0 | "kernel-zoo" -> 99.5 | _ -> 95.0

(* Whole timed passes a batch run makes at least, so that each tail has
   ten samples beyond it. *)
let min_passes = function "paper-eval" -> 22 | _ -> 3

let run_dir = ".perfbench"
let m = Metric.m

(* ---- batch workloads ---- *)

let batch_end_to_end ~workload ~kind ~seed ~seconds =
  let setup_s, setup_raw_s, setup =
    Calib.repeat_setup ~discard:ignore (fun () -> Batch.setup ~workload:kind ~seed)
  in
  let r = Batch.measure setup ~seconds ~min_passes:(min_passes workload) in
  let p = tail_percentile workload in
  let field samples f = List.map f samples in
  let compile = field r.Batch.scaled (fun s -> s.Batch.compile_ms)
  and launch = field r.Batch.scaled (fun s -> s.Batch.launch_ms) in
  let latency samples = field samples (fun s -> s.Batch.compile_ms +. s.Batch.launch_ms) in
  let issues = Stats.sum (field r.Batch.scaled (fun s -> float_of_int s.Batch.issues)) in
  let speedup, eff = Batch.sim_summary setup r.Batch.sims in
  let n = List.length r.Batch.scaled in
  Printf.printf "%s: %d cells, %d timed samples in %.2f s; tail = p%g (%d samples beyond)\n" workload
    (Array.length setup.Batch.cells) n r.Batch.raw_s p (Stats.beyond ~p n);
  Printf.printf "host time, unscaled: setup %.3f s, %.2f kernels/s, latency p50 %.3f ms\n" setup_raw_s
    (float_of_int n /. r.Batch.raw_s) (Stats.median (latency r.Batch.raw));
  ( [ m "setup_s" "s" setup_s;
      m "peak_rss_mb" "MB" r.Batch.peak_rss_mb;
      m "kernels_per_s" "1/s" (float_of_int n /. r.Batch.scaled_s);
      m "latency_p50_ms" "ms" (Stats.median (latency r.Batch.scaled));
      m "latency_tail_ms" "ms" (Stats.percentile p (latency r.Batch.scaled));
      m "compile_ms_p50" "ms" (Stats.median compile);
      m "compile_ms_tail" "ms" (Stats.percentile p compile);
      m "launch_ms_p50" "ms" (Stats.median launch);
      m "launch_ms_tail" "ms" (Stats.percentile p launch);
      m "sim_issues_per_s" "1/s" (issues /. (Stats.sum launch /. 1000.0));
      m "sim_speedup_geomean" "x" speedup;
      m "simt_eff_mean" "ratio" eff ],
    r.Batch.attempted,
    r.Batch.failed,
    [] )

(* Two traced passes that must agree on every count, each after an
   untraced pass of the same ops for the tracing overhead. *)
let batch_traced ~workload ~kind ~seed =
  let setup = Batch.setup ~workload:kind ~seed in
  let n = Array.length setup.Batch.cells in
  let tr = Span.create () in
  let refs = ref [ Calib.measure () ] in
  let calibrated f =
    let x = f () in
    refs := Calib.measure () :: !refs;
    x
  in
  let u1 = calibrated (fun () -> Batch.untraced_pass_ms setup) in
  let f1, sims1 = calibrated (fun () -> Batch.traced_pass tr setup ~first_op:0) in
  let c1 = Span.take_counts tr in
  let u2 = calibrated (fun () -> Batch.untraced_pass_ms setup) in
  let f2, sims2 = calibrated (fun () -> Batch.traced_pass tr setup ~first_op:n) in
  let c2 = Span.take_counts tr in
  let untraced_ms = (u1 +. u2) /. 2.0 and traced_ms = Span.total_op_ms tr /. 2.0 in
  let scale = Calib.scale (Stats.median !refs) in
  let problems =
    Metric.mismatches Metric.deterministic_counts c1 c2
    @ (if Batch.sim_summary setup sims1 = Batch.sim_summary setup sims2 then []
       else [ "sim_speedup_geomean or simt_eff_mean differs between traced passes" ])
    @ List.map
        (fun (op, gap) -> Printf.sprintf "op %d: layer self times miss its duration by %g ms" op gap)
        (Span.unaccounted tr)
  in
  Printf.printf "%s traced: %d ops per pass; host time per pass untraced %.1f ms, traced %.1f ms; scale %.4f\n"
    workload n untraced_ms traced_ms scale;
  ( Metric.layers tr ~passes:2.0 ~scale ~count:c1 @ Serve_mix.unused_metrics
    @ Metric.trace tr ~passes:2.0 ~scale ~traced_ms ~untraced_ms,
    4 * n,
    f1 + f2,
    problems,
    [ ("", tr) ] )

let main ~workload ~seed ~seconds ~trace =
  Unix.putenv "SPECRECON_DOMAINS" "1";
  if not (Sys.file_exists run_dir) then Sys.mkdir run_dir 0o755;
  let kind = if workload = "paper-eval" then `Paper else `Zoo in
  let tail = tail_percentile workload in
  let metrics, attempted, failed, problems =
    match (workload, trace) with
    | "serve-mix", false -> Serve_mix.end_to_end ~seed ~seconds ~tail ~run_dir
    | _, false -> batch_end_to_end ~workload ~kind ~seed ~seconds
    | _, true ->
      let metrics, attempted, failed, problems, tracers =
        if workload = "serve-mix" then Serve_mix.traced ~seed ~seconds ~run_dir
        else batch_traced ~workload ~kind ~seed
      in
      List.iter
        (fun (tag, tr) -> Span.write tr (Printf.sprintf "%s/trace-%s-%d%s.jsonl" run_dir workload seed tag))
        tracers;
      (metrics, attempted, failed, problems)
  in
  List.iter (Printf.eprintf "perfbench: %s\n") problems;
  Metric.print_result ~correct:(failed = 0 && problems = []) ~attempted ~failed metrics

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let spec =
    [ ("--workload", Arg.Set_string workload, "W " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, "N input seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, "S seconds to measure (>= 1)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or the traced per-layer run") ]
  in
  let usage = "main.exe --workload W --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if not (List.mem !workload workloads && !seed >= 0 && !seconds >= 1 && (!trace = 0 || !trace = 1))
  then begin
    Arg.usage spec usage;
    exit 2
  end;
  main ~workload:!workload ~seed:!seed ~seconds:(float_of_int !seconds) ~trace:(!trace = 1)
