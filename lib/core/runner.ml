type outcome = {
  compiled : Compile.compiled;
  metrics : Simt.Metrics.t;
  profile : Analysis.Profile.t;
  memory : Simt.Memsys.t;
  check : (unit, string) result;
}

let efficiency o = Simt.Metrics.simt_efficiency o.metrics
let cycles o = o.metrics.Simt.Metrics.cycles

(* The pure run stage: artifact in, outcome out. Everything the launch
   depends on is an argument, so a cached artifact and a fresh compile
   behave identically here (the srserved contract). *)
let launch ?(config = Simt.Config.default) ?(init = fun _ _ -> ()) ?faults ?race ?entry
    (compiled : Compile.compiled) ~args =
  let result =
    Simt.Interp.run ?faults ?race ?entry config compiled.Compile.decoded ~args
      ~init_memory:(fun mem -> init compiled.Compile.program mem)
  in
  {
    compiled;
    metrics = result.Simt.Interp.metrics;
    profile = result.Simt.Interp.profile;
    memory = result.Simt.Interp.memory;
    check = Ok ();
  }

let parse_arg s =
  match int_of_string_opt s with
  | Some i -> Ok (Ir.Types.I i)
  | None -> (
    match float_of_string_opt s with
    | Some f -> Ok (Ir.Types.F f)
    | None -> Error (Printf.sprintf "bad kernel argument %S (expected int or float)" s))

let run_spec ?(config = Simt.Config.default) ?faults options (spec : Workloads.Spec.t) =
  let config = spec.tweak_config config in
  let options =
    match options.Compile.coarsen with
    | Some _ -> options
    | None -> { options with Compile.coarsen = spec.coarsen }
  in
  let compiled = Compile.compile options ~source:spec.source in
  let outcome = launch ~config ?faults ~init:spec.init compiled ~args:spec.args in
  { outcome with check = spec.check compiled.Compile.program outcome.memory }

let run_source ?config ?init ?faults ?entry options ~source ~args =
  launch ?config ?init ?faults ?entry (Compile.compile options ~source) ~args

let speedup ~baseline ~optimized =
  let b = float_of_int baseline.metrics.Simt.Metrics.cycles in
  let o = float_of_int optimized.metrics.Simt.Metrics.cycles in
  if o = 0.0 then 0.0 else b /. o
