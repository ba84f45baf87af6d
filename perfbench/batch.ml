(* The two batch workloads: each operation compiles one cell (a source
   under one compile mode) with Core.Compile.compile and launches it
   with Core.Runner.launch, closed loop, one at a time.

   paper-eval  every Table-2 registry spec under the PDOM baseline and
               speculative reconvergence, plus automatic mode on the
               auto subjects, each on its own init and tweak_config.
               Simulation dominates; the seed only shuffles cell order.
   kernel-zoo  a stratified draw of the seed's Fuzz.Gen programs under
               all three modes (srlint and srrace on), a nested-if
               family at depths 8..64, and the test/corpus deadlock
               repros compiled without deconfliction and repaired.
               Compilation dominates.

   Every cell's output is checked against a reference made in set-up
   through the baseline pipeline on the same input. *)

module C = Core.Compile
module T = Ir.Types

type cell = {
  name : string;
  source : string;
  options : C.options;
  config : Simt.Config.t;
  init : T.program -> Simt.Memsys.t -> unit;
  args : T.value list;
  check : (T.program -> Simt.Memsys.t -> (unit, string) result) option;
  input : string; (* cells with one input share one PDOM-baseline reference *)
}

type reference = { digest : int; cycles : int }

(* What one launch produced; identical on every pass, or the run fails. *)
type sim = { issues : int; cycles : int; active : int; digest : int }

type setup = { cells : cell array; refs : (string, reference) Hashtbl.t }

let transformed c = match c.options.C.mode with C.Baseline -> false | _ -> true

(* ---- cells ---- *)

let shuffle ~seed a =
  let rng = Support.Splitmix.of_ints seed 0x5eed 3 in
  for i = Array.length a - 1 downto 1 do
    let j = Support.Splitmix.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let mode_name (o : C.options) =
  match o.C.mode with
  | C.Baseline -> "baseline"
  | C.Speculative _ -> "specrecon"
  | C.Automatic _ -> "auto"
  | C.No_sync -> "none"

let paper_cells () =
  let cell options (spec : Workloads.Spec.t) =
    {
      name = spec.name ^ "/" ^ mode_name options;
      source = spec.source;
      options = { options with C.coarsen = spec.coarsen };
      config = spec.tweak_config Simt.Config.default;
      init = spec.init;
      args = spec.args;
      check = Some spec.check;
      input = spec.name;
    }
  in
  List.concat_map (fun s -> [ cell C.baseline s; cell C.speculative s ]) Workloads.Registry.all
  @ List.map (cell C.automatic) Workloads.Registry.auto_subjects

(* Fuzz programs are drawn stratified: each band of a program's
   heaviest launch (the most simulated issues at one warp of its
   baseline, specrecon and auto builds) takes a fixed share of the
   programs, so every seed's draw has the same work profile and launch
   quantiles do not hang on a few heavy draws. The bands are the
   deciles of that count over 3000 programs of campaigns 101-110 up to
   p90, then p90-p92.5 and p92.5-p95 at a quarter of a decile's share
   each; the 5% above p95 are skipped, so that no single heavy launch
   sets a tail. *)
let bands = [| 126; 202; 296; 405; 548; 702; 960; 1354; 2232; 2642; 3415 |]
let shares = [| 4; 4; 4; 4; 4; 4; 4; 4; 4; 1; 1 |]

let zoo_programs = 285
let max_draws = 20_000

let nest_depths = [ 8; 16; 32; 48; 64 ]
let corpus_dir = "test/corpus"

(* [if (tid() < k)] nested [depth] deep: the shape on which srlint's
   cost grows fastest with nesting. *)
let nested_if ~depth =
  let b = Buffer.create (depth * 48) in
  Buffer.add_string b "global outi: int[64];\n\nkernel k() {\n  var x: int = tid();\n";
  for i = 1 to depth do
    Buffer.add_string b (Printf.sprintf "  if (tid() < %d) {\n    x = x + %d;\n" (3 + (i mod 29)) i)
  done;
  for _ = 1 to depth do
    Buffer.add_string b "  }\n"
  done;
  Buffer.add_string b "  outi[tid()] = x;\n}\n";
  Buffer.contents b

let corpus_sources () =
  if not (Sys.file_exists corpus_dir) then
    failwith (corpus_dir ^ " not found: run from the root of a checkout");
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".simt")
  |> List.sort compare
  |> List.map (fun f ->
         (Filename.chop_suffix f ".simt", In_channel.with_open_bin (Filename.concat corpus_dir f) In_channel.input_all))

let zoo_config = { Simt.Config.default with Simt.Config.n_warps = 1 }

let reference_of c =
  let compiled = C.compile { C.baseline with C.coarsen = c.options.C.coarsen } ~source:c.source in
  let o = Core.Runner.launch ~config:c.config ~init:c.init compiled ~args:c.args in
  ({ digest = Simt.Memsys.digest o.Core.Runner.memory; cycles = Core.Runner.cycles o },
   o.Core.Runner.metrics.Simt.Metrics.issues)

let zoo_cell ?(options = C.baseline) ?(suffix = mode_name options) name source =
  { name = name ^ "/" ^ suffix; source; options; config = zoo_config; init = Serve.Server.data_init;
    args = []; check = None; input = name }

let three name source =
  List.map (fun options -> zoo_cell ~options name source) [ C.baseline; C.speculative; C.automatic ]

(* The band of a program whose heaviest launch makes [issues] issues;
   [Array.length bands] above the last. *)
let band issues =
  let rec go k = if k = Array.length bands || issues < bands.(k) then k else go (k + 1) in
  go 0

(* The simulated issues of [c]'s source built with [options]. *)
let issues_of c options =
  let compiled = C.compile options ~source:c.source in
  (Core.Runner.launch ~config:c.config ~init:c.init compiled ~args:c.args).Core.Runner.metrics
    .Simt.Metrics.issues

(* [count] programs of the seed's campaign, stratified, each with its
   PDOM-baseline reference at one warp (the draw's own launch). Quotas
   split [count] by [shares], largest remainders first. The transformed
   builds are launched only when a band at or above the baseline's has
   room. *)
let draw ~seed ~count =
  let total = Array.fold_left ( + ) 0 shares in
  let quota = Array.map (fun w -> count * w / total) shares in
  let short = count - Array.fold_left ( + ) 0 quota in
  let by_remainder =
    List.sort (fun i j -> compare ((count * shares.(j)) mod total) ((count * shares.(i)) mod total))
      (List.init (Array.length shares) Fun.id)
  in
  List.iteri (fun rank i -> if rank < short then quota.(i) <- quota.(i) + 1) by_remainder;
  let wanted = ref count in
  let rec go id acc =
    if !wanted = 0 then List.rev acc
    else if id >= max_draws then failwith "fuzz draw: strata not filled"
    else
      let name = Printf.sprintf "fuzz-%d-%d" seed id in
      let source = Front.Pretty.to_string (Fuzz.Gen.generate ~seed id).Fuzz.Gen.ast in
      let c = zoo_cell name source in
      let r, issues = reference_of c in
      let rec room k = k < Array.length quota && (quota.(k) > 0 || room (k + 1)) in
      let k =
        if not (room (band issues)) then Array.length quota
        else band (List.fold_left (fun m o -> max m (issues_of c o)) issues [ C.speculative; C.automatic ])
      in
      if k < Array.length quota && quota.(k) > 0 then begin
        quota.(k) <- quota.(k) - 1;
        decr wanted;
        go (id + 1) ((name, source, r) :: acc)
      end
      else go (id + 1) acc
  in
  go 0 []

let zoo_cells ~seed refs =
  let nests =
    List.concat_map (fun depth -> three (Printf.sprintf "nest-%d" depth) (nested_if ~depth)) nest_depths
  in
  let repair =
    { C.speculative with
      C.deconflict = false;
      repair = C.Repair { dry_run = false; max_edits = Analysis.Barrier_repair.default_max_edits } }
  in
  let corpus =
    List.map (fun (name, source) -> zoo_cell ~options:repair ~suffix:"repair" name source) (corpus_sources ())
  in
  let fuzz =
    List.concat_map
      (fun (name, source, r) ->
        Hashtbl.replace refs name r;
        three name source)
      (draw ~seed ~count:zoo_programs)
  in
  fuzz @ nests @ corpus

(* ---- set-up: inputs plus their PDOM-baseline references ---- *)

let setup ~workload ~seed =
  let refs = Hashtbl.create 256 in
  let cells =
    match workload with
    | `Paper -> paper_cells ()
    | `Zoo -> zoo_cells ~seed refs
  in
  List.iter
    (fun c -> if not (Hashtbl.mem refs c.input) then Hashtbl.replace refs c.input (fst (reference_of c)))
    cells;
  { cells = shuffle ~seed (Array.of_list cells); refs }

(* ---- checking one launch ---- *)

let verify setup c program memory =
  let r = Hashtbl.find setup.refs c.input in
  let digest = Simt.Memsys.digest memory in
  if digest <> r.digest then
    Error (Printf.sprintf "%s: memory digest %d differs from the PDOM baseline's %d" c.name digest r.digest)
  else
    match c.check with
    | None -> Ok ()
    | Some check -> Result.map_error (fun e -> c.name ^ ": " ^ e) (check program memory)

let sim_of (m : Simt.Metrics.t) memory =
  { issues = m.Simt.Metrics.issues; cycles = m.cycles; active = m.active_sum; digest = Simt.Memsys.digest memory }

(* The simulated results of the transformed cells: speed-up over the
   PDOM baseline on the same input, and SIMT efficiency. *)
let sim_summary setup (sims : sim option array) =
  let speedups = ref [] and effs = ref [] in
  Array.iteri
    (fun i c ->
      match sims.(i) with
      | Some s when transformed c ->
        let r = Hashtbl.find setup.refs c.input in
        speedups := (float_of_int r.cycles /. float_of_int s.cycles) :: !speedups;
        effs := (float_of_int s.active /. float_of_int (s.issues * c.config.Simt.Config.warp_size)) :: !effs
      | _ -> ())
    setup.cells;
  (Stats.geomean !speedups, Stats.mean !effs)

(* ---- the untraced run ---- *)

type sample = { compile_ms : float; launch_ms : float; issues : int }

(* Timed samples and elapsed time, both as measured on the host and
   rescaled by the reference computation timed next to them (see
   Calib). *)
type measured = {
  raw : sample list;
  scaled : sample list;
  raw_s : float;
  scaled_s : float;
  attempted : int;
  failed : int;
  sims : sim option array; (* the warm-up pass's *)
  peak_rss_mb : float; (* after set-up and the warm-up pass *)
}

(* One untraced operation: compile and launch [c], then check it. *)
let run_cell setup c =
  let t0 = Span.now_ns () in
  let compiled = C.compile c.options ~source:c.source in
  let compile_ms = Span.ms_since t0 in
  let t1 = Span.now_ns () in
  let o = Core.Runner.launch ~config:c.config ~init:c.init compiled ~args:c.args in
  let launch_ms = Span.ms_since t1 in
  let m = o.Core.Runner.metrics in
  let sim = sim_of m o.Core.Runner.memory in
  ( { compile_ms; launch_ms; issues = m.Simt.Metrics.issues },
    sim,
    verify setup c compiled.C.program o.Core.Runner.memory )

let report_failure name e = Printf.eprintf "perfbench: %s failed: %s\n%!" name e

(* How often the reference computation is timed during a run. *)
let calib_every_ms = 250.0

(* A warm-up pass, then whole passes over the cells until [seconds]
   have elapsed and at least [min_passes] passes ran. The reference
   computation is timed every [calib_every_ms] (between two cells), and
   each sample is rescaled by the mean of the reference times just
   before and just after it. Every pass must reproduce the warm-up's
   simulated results exactly. *)
let measure setup ~seconds ~min_passes =
  let n = Array.length setup.cells in
  let sims = Array.make n None in
  let attempted = ref 0 and failed = ref 0 in
  let raw = ref [] and scaled = ref [] and raw_ms = ref 0.0 and scaled_ms = ref 0.0 in
  (* The samples since the last reference timing, and their host time. *)
  let segment = ref [] and segment_ms = ref 0.0 and before = ref 0.0 in
  let calibrate () =
    let after = Calib.measure () in
    let k = Calib.scale ((!before +. after) /. 2.0) in
    raw := !segment @ !raw;
    scaled :=
      List.map (fun s -> { s with compile_ms = s.compile_ms *. k; launch_ms = s.launch_ms *. k }) !segment
      @ !scaled;
    raw_ms := !raw_ms +. !segment_ms;
    scaled_ms := !scaled_ms +. (!segment_ms *. k);
    segment := [];
    segment_ms := 0.0;
    before := after
  in
  let pass ~timed =
    Array.iteri
      (fun i c ->
        incr attempted;
        let t0 = Span.now_ns () in
        (match run_cell setup c with
        | sample, sim, check ->
          let check =
            match (check, sims.(i)) with
            | Error e, _ -> Error e
            | Ok (), Some first when first <> sim -> Error "simulated results changed between passes"
            | Ok (), _ -> Ok ()
          in
          if sims.(i) = None then sims.(i) <- Some sim;
          (match check with
          | Ok () -> if timed then segment := sample :: !segment
          | Error e ->
            incr failed;
            report_failure c.name e)
        | exception e ->
          incr failed;
          report_failure c.name (Printexc.to_string e));
        if timed then begin
          segment_ms := !segment_ms +. Span.ms_since t0;
          if !segment_ms >= calib_every_ms then calibrate ()
        end)
      setup.cells
  in
  pass ~timed:false;
  (* Read here: later the run's own samples grow the heap, by more the
     more passes fit in the run. *)
  let peak_rss_mb = Metric.peak_rss_mb "self" in
  before := Calib.measure ();
  let t0 = Span.now_ns () and passes = ref 0 in
  while !passes < min_passes || Span.ms_since t0 < seconds *. 1000.0 do
    pass ~timed:true;
    incr passes
  done;
  calibrate ();
  { raw = !raw; scaled = !scaled; raw_s = !raw_ms /. 1000.0; scaled_s = !scaled_ms /. 1000.0;
    attempted = !attempted; failed = !failed; sims; peak_rss_mb }

(* ---- the traced run ---- *)

(* One traced pass over the cells, as ops [first_op ..]: the staged
   pipeline and launch under spans, then the stage-replication check
   and the output checks outside them. Returns the failures and the
   simulated results. *)
let traced_pass tr setup ~first_op =
  let sims = Array.make (Array.length setup.cells) None and failed = ref 0 in
  Array.iteri
    (fun i c ->
      match
        Span.op tr (first_op + i) (fun () ->
            let built = Staged.compile tr c.options ~source:c.source in
            (built, Staged.launch tr ~config:c.config ~init:c.init ~args:c.args built))
      with
      | built, r ->
        let memory = r.Simt.Interp.memory in
        sims.(i) <- Some (sim_of r.Simt.Interp.metrics memory);
        let check =
          match Staged.replicates built c.options ~source:c.source with
          | Error e -> Error (c.name ^ ": " ^ e)
          | Ok () -> verify setup c built.Staged.program memory
        in
        Result.iter_error
          (fun e ->
            incr failed;
            report_failure c.name e)
          check
      | exception e ->
        incr failed;
        report_failure c.name (Printexc.to_string e))
    setup.cells;
  (!failed, sims)

(* The same operations without spans, for the tracing overhead. *)
let untraced_pass_ms setup =
  Array.fold_left
    (fun acc c ->
      match run_cell setup c with
      | s, _, _ -> acc +. s.compile_ms +. s.launch_ms
      | exception _ -> acc)
    0.0 setup.cells
