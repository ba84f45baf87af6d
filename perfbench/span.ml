(* In-memory span recorder for the traced run.

   Spans are recorded from the benchmark's own code around calls into
   each layer's public functions; nothing inside lib/ is instrumented.
   A span's name is "<layer>.<stage>" (the per-layer metric it feeds,
   minus the unit suffix); the root span of each operation is named
   "op". Spans of one operation share an op id, and each records the
   span that was open when it started as its parent. A span's self time
   is its duration minus the durations of its children; the root span's
   self time is the unattributed remainder of the operation. *)

type span = {
  mutable name : string;
  op : int;
  parent : int; (* index of the enclosing span, -1 for a root *)
  start_ns : int64;
  mutable stop_ns : int64;
}

type t = {
  mutable spans : span array;
  mutable n : int;
  mutable open_ : int list; (* innermost first *)
  mutable op : int;
  mutable counts : (string, float) Hashtbl.t;
}

let now_ns = Monotonic_clock.now
let ms_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e6

let create () =
  { spans = [||]; n = 0; open_ = []; op = -1; counts = Hashtbl.create 64 }

let push t s =
  if t.n = Array.length t.spans then begin
    let grown = Array.make (max 1024 (2 * t.n)) s in
    Array.blit t.spans 0 grown 0 t.n;
    t.spans <- grown
  end;
  t.spans.(t.n) <- s;
  t.n <- t.n + 1;
  t.n - 1

(* [with_span t name f] runs [f] inside a span named [name]; the span is
   closed whether [f] returns or raises. *)
let with_span t name f =
  let parent = match t.open_ with p :: _ -> p | [] -> -1 in
  let id = push t { name; op = t.op; parent; start_ns = now_ns (); stop_ns = 0L } in
  t.open_ <- id :: t.open_;
  let close () =
    t.spans.(id).stop_ns <- now_ns ();
    t.open_ <- List.tl t.open_
  in
  match f () with
  | v ->
    close ();
    v
  | exception e ->
    close ();
    raise e

(* [op t id f] runs one operation [id] under a root span "op". *)
let op t id f =
  t.op <- id;
  with_span t "op" f

(* The most recently closed span with this name in the current
   operation is renamed — used when the right name (a cache hit or a
   miss) is only known once the call returns. *)
let rename_last t ~from ~to_ =
  let rec go i =
    if i >= 0 then
      let s = t.spans.(i) in
      if s.op = t.op && String.equal s.name from then s.name <- to_ else go (i - 1)
  in
  go (t.n - 1)

let count t name v =
  Hashtbl.replace t.counts name (v +. Option.value (Hashtbl.find_opt t.counts name) ~default:0.0)

(* The counts recorded since the last call, as a lookup function;
   counting starts afresh. *)
let take_counts t =
  let counts = t.counts in
  t.counts <- Hashtbl.create 64;
  fun name -> Option.value (Hashtbl.find_opt counts name) ~default:0.0

let duration_ns s = Int64.to_float (Int64.sub s.stop_ns s.start_ns)

(* Self time of every span, in ns. *)
let self_ns t =
  let self = Array.init t.n (fun i -> duration_ns t.spans.(i)) in
  for i = 0 to t.n - 1 do
    let s = t.spans.(i) in
    if s.parent >= 0 then self.(s.parent) <- self.(s.parent) -. duration_ns s
  done;
  self

(* Total self time per span name, in ms; the "op" entry is the
   unattributed remainder. *)
let self_ms_by_name t =
  let self = self_ns t in
  let totals = Hashtbl.create 64 in
  for i = 0 to t.n - 1 do
    let name = t.spans.(i).name in
    let prev = Option.value (Hashtbl.find_opt totals name) ~default:0.0 in
    Hashtbl.replace totals name (prev +. (self.(i) /. 1e6))
  done;
  totals

(* Duration of every root span, in ms, keyed by op id. *)
let op_ms t =
  let ops = Hashtbl.create 256 in
  for i = 0 to t.n - 1 do
    let s = t.spans.(i) in
    if s.parent < 0 then Hashtbl.replace ops s.op (duration_ns s /. 1e6)
  done;
  ops

let total_op_ms t = Hashtbl.fold (fun _ ms acc -> acc +. ms) (op_ms t) 0.0

(* Checks that each operation's layer self times plus its unattributed
   remainder add up to the operation's duration. Returns the ops that do
   not, with the gap in ms. *)
let unaccounted t =
  let self = self_ns t in
  let sums = Hashtbl.create 256 in
  for i = 0 to t.n - 1 do
    let op = t.spans.(i).op in
    Hashtbl.replace sums op (self.(i) +. Option.value (Hashtbl.find_opt sums op) ~default:0.0)
  done;
  Hashtbl.fold
    (fun op total acc ->
      let sum_ms = Option.value (Hashtbl.find_opt sums op) ~default:0.0 /. 1e6 in
      let gap = Float.abs (sum_ms -. total) in
      if gap > 1e-6 *. Float.max 1.0 total then (op, gap) :: acc else acc)
    (op_ms t) []

let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      for i = 0 to t.n - 1 do
        let s = t.spans.(i) in
        Printf.fprintf oc
          "{\"id\":%d,\"name\":%S,\"op\":%d,\"parent\":%d,\"start_ns\":%Ld,\"end_ns\":%Ld}\n" i
          s.name s.op s.parent s.start_ns s.stop_ns
      done)
