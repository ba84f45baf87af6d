(* Metric values, the per-layer metric set, and the result line. *)

type t = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Peak resident set of process [pid] ("self" for this one), in MB. *)
let peak_rss_mb pid =
  In_channel.with_open_text (Printf.sprintf "/proc/%s/status" pid) In_channel.input_lines
  |> List.find_map (fun line ->
         Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0))
  |> Option.value ~default:nan

(* Stages of the compile pipeline and the simulator: "<stage>_ms" is
   the self time of that stage's spans over one traced pass. *)
let stages =
  [ "front.parse"; "front.coarsen"; "front.lower"; "passes.auto_detect"; "passes.specrecon";
    "passes.interproc"; "passes.pdom_sync"; "passes.deconflict"; "passes.cleanup";
    "analysis.divergence"; "analysis.lint"; "analysis.race"; "analysis.race_pdom"; "analysis.repair";
    "ir.verify"; "ir.linearize"; "ir.decode"; "simt.run" ]

(* Work counted at the stage boundaries over one traced pass. *)
let counts =
  [ "front.ir_insts"; "passes.barriers_placed"; "passes.cleanup_removed"; "analysis.repair_explored";
    "analysis.lint_findings"; "analysis.race_findings"; "ir.linear_insts"; "simt.issues"; "simt.cycles";
    "simt.idle_cycles"; "simt.mem_transactions"; "simt.barrier_waits"; "simt.barrier_fires" ]

(* Counts that must repeat exactly from one traced pass to the next. *)
let deterministic_counts =
  counts @ [ "simt.active_lanes"; "simt.mem_cache_hits"; "simt.mem_cache_lookups" ]

(* The compile and simulator layers' metrics from [tr], which holds
   [passes] traced passes; [count] reads one pass's counts and [scale]
   rescales host times (see Calib). *)
let layers (tr : Span.t) ~passes ~scale ~(count : string -> float) =
  let self = Span.self_ms_by_name tr in
  let ms name = Option.value (Hashtbl.find_opt self name) ~default:0.0 *. scale /. passes in
  List.map (fun s -> m (s ^ "_ms") "ms" (ms s)) stages
  @ List.map (fun s -> m s "count" (count s)) counts
  @ [ m "simt.ns_per_issue" "ns" (ratio (ms "simt.run" *. 1e6) (count "simt.issues"));
      m "simt.minor_words_per_issue" "words" (ratio (count "simt.minor_words") (count "simt.issues"));
      m "simt.cache_hit_ratio" "ratio" (ratio (count "simt.mem_cache_hits") (count "simt.mem_cache_lookups"));
      m "simt.active_lanes_per_issue" "lanes" (ratio (count "simt.active_lanes") (count "simt.issues")) ]

(* The unattributed remainder (the root spans' self time) per pass, and
   the tracing overhead: traced over untraced time of the same ops. *)
let trace (tr : Span.t) ~passes ~scale ~traced_ms ~untraced_ms =
  let self = Span.self_ms_by_name tr in
  [ m "trace.unattributed_ms" "ms" (Option.value (Hashtbl.find_opt self "op") ~default:0.0 *. scale /. passes);
    m "trace.overhead_pct" "%" (100.0 *. (traced_ms -. untraced_ms) /. untraced_ms) ]

(* Every named count that differs between two passes, by name. *)
let mismatches names a b =
  List.filter_map
    (fun n ->
      let x = a n and y = b n in
      if x = y then None else Some (Printf.sprintf "count %s differs between traced passes: %.17g vs %.17g" n x y))
    names

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else failwith "non-finite metric value"

let print_result ~correct ~attempted ~failed metrics =
  List.iter (fun x -> Printf.printf "%-30s %.6g %s\n" x.name x.value x.unit_) metrics;
  Printf.printf "failed_frac %.6g (%d failed of %d attempted)\n"
    (ratio (float_of_int failed) (float_of_int attempted)) failed attempted;
  let fields =
    List.map
      (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value) x.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed (String.concat ", " fields)
