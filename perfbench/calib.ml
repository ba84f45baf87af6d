(* Host-speed calibration.

   The hosts this benchmark runs on change speed by up to 2x from one
   minute to the next (other tenants share the cores), which moves every
   wall-clock time by as much, whatever the code under test does. So
   each run times a fixed reference computation — owned by the
   benchmark, so no change to lib/ can speed it up — between its
   measurements, and reports host times rescaled to the speed at which
   the reference takes [nominal_ms]:

     reported_ms = measured_ms * (nominal_ms / reference_ms) ** slowdown_exponent

   where reference_ms is the reference's time measured next to the
   sample. The unscaled host times are printed beside the results.

   When the host slows, the program slows more than the reference: the
   reference is small, and the simulator and the compiler walk more
   memory and branch less predictably, so other tenants cost them more.
   Across five sets of runs spread over an hour on one host, with the
   reference's median time moving by up to 1.6x between sets, the
   program's host times moved as the reference's to the power
   1.23-1.51 (paper-eval 1.43, kernel-zoo 1.51, serve-mix 1.41 between
   the quietest and the busiest set). With a power of 1 the reported
   median latency (latency_p50_ms) still moved by 18-21% between those
   two sets; with 1.4, by 4% at most.

   The reference mixes what the program spends its time on: a dispatch
   loop over an int array (the simulator's issue loop), short-lived
   lists and a hashtable (the compiler's IR work), and float
   arithmetic. *)

let nominal_ms = 5.0
let code = Array.init 4096 (fun i -> (i * 7919) land 7)

(* One [part]-th of the reference computation. *)
let reference ?(part = 1) () =
  let regs = Array.make 8 1 and pc = ref 0 in
  for _ = 1 to 150_000 / part do
    let op = code.(!pc) in
    (match op with
    | 0 -> regs.(0) <- regs.(0) + regs.(1)
    | 1 -> regs.(1) <- regs.(1) lxor regs.(2)
    | 2 -> regs.(2) <- regs.(2) + 3
    | 3 -> regs.(3) <- regs.(3) * 5 land 0xffff
    | 4 -> regs.(4) <- regs.(op) + regs.(5)
    | 5 -> regs.(5) <- regs.(5) - 1
    | _ -> regs.(6) <- regs.(6) lor op);
    pc := (!pc + 1 + op) land 4095
  done;
  let h = Hashtbl.create 512 and acc = ref 0 in
  for i = 1 to 10_000 / part do
    Hashtbl.replace h (i land 1023) (List.init 6 (fun k -> k + i));
    match Hashtbl.find_opt h ((i * 31) land 1023) with
    | Some l -> acc := !acc + List.fold_left ( + ) 0 l
    | None -> ()
  done;
  let x = ref 0.5 in
  for i = 1 to 50_000 / part do
    x := Float.abs (sin (!x +. float_of_int i)) +. 0.5
  done;
  ignore (Sys.opaque_identity (regs, !acc, !x))

(* The reference's time now, from one run of a [part]-th of it (where
   only a short gap is free), and the median of three whole runs. *)
let once ?(part = 1) () =
  let t0 = Span.now_ns () in
  reference ~part ();
  Span.ms_since t0 *. float_of_int part

let measure () =
  let a = once () in
  let b = once () in
  let c = once () in
  Float.max (Float.min a b) (Float.min (Float.max a b) c)

(* See the top of this file. *)
let slowdown_exponent = 1.4

(* The factor that rescales host times measured while the reference
   took [reference_ms]. *)
let scale reference_ms = (nominal_ms /. reference_ms) ** slowdown_exponent

(* The reference's time near [t], from [(time, reference_ms)] samples:
   the median of the [near_samples] nearest to [t]. *)
let near_samples = 5

let near samples t =
  let distance (u, _) = Float.abs (u -. t) in
  List.sort (fun a b -> Float.compare (distance a) (distance b)) samples
  |> List.filteri (fun i _ -> i < near_samples)
  |> List.map snd |> Stats.median

(* Set-up runs this many times in a run; setup_s is the median. *)
let setup_repeats = 3

(* Runs [f] [setup_repeats] times with the reference timed before each
   run and after the last. Returns the median rescaled and host seconds
   of a run and the last run's result; earlier results go to [discard]
   before the next run starts. *)
let repeat_setup ~discard f =
  let before = ref (measure ()) and raw = ref [] and scaled = ref [] and last = ref None in
  for _ = 1 to setup_repeats do
    Option.iter discard !last;
    let t0 = Span.now_ns () in
    let x = f () in
    let s = Span.ms_since t0 /. 1000.0 in
    let after = measure () in
    raw := s :: !raw;
    scaled := (s *. scale ((!before +. after) /. 2.0)) :: !scaled;
    before := after;
    last := Some x
  done;
  (Stats.median !scaled, Stats.median !raw, Option.get !last)
