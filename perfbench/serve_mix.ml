(* The serve-mix workload: the built srserved binary over --socket with
   --persist on, fed by one connection in an open loop.

   Requests are due at a fixed offered rate, whatever the server is
   doing, and each is timed from its due time, so a stall shows in the
   latency of every request queued behind it. 80% of the requests
   re-launch a hot set (8 programs of a fixed Fuzz.Gen campaign, each
   under the PDOM baseline and specrecon: 16 cache keys, the same for
   every seed, each sent equally often); 20% are fresh programs, drawn
   stratified like the zoo's (Batch.draw) from a second fixed campaign,
   each a cache miss that costs a compile, a cache commit and a persist
   write. The misses are the same programs for every seed, so that the
   miss tail is set by the code under test and not by which heavy
   programs a seed happens to draw; the seed sets the order of the mix,
   of the hot keys and of the fresh programs.

   Every ok response is checked against a reference computed in set-up
   through the one-shot Core.Compile / Core.Runner.launch path, so no
   check relies on the server's own cache. *)

module P = Serve.Protocol
module C = Core.Compile

let rate = 60.0 (* offered requests per second *)
let fresh_share = 0.2
let latency_limit_ms = 50.0
let hot_programs = 8
let hot_campaign = 2020
let fresh_campaign = 2021
let warps = 2
let trace_requests = 300

(* The generator has fallen behind, and the run is invalid, when more
   than 1% of requests went out later than one inter-arrival gap. *)
let lag_limit_ms = 1000.0 /. rate

let srserved = "_build/default/bin/srserved.exe"

type request = { req : P.request; key : string; hot : bool }

(* What a correct ok response carries, from the one-shot path. *)
type expected = { cycles : int; issues : int; active : int; finished : int; digest : int }

type setup = {
  stream : request array;
  refs : (string, expected) Hashtbl.t;
  server : server;
}

and server = { pid : int; socket : string; persist : string; client : Serve.Client.t }

(* ---- the request stream ---- *)

let options_of_mode = function
  | "baseline" -> C.baseline
  | "specrecon" -> C.speculative
  | mode -> invalid_arg ("serve-mix: mode " ^ mode)

let make id ~mode ~source ~hot =
  let req = P.make_request ~id ~mode ~warps ~init:"data" ~source () in
  { req; key = mode ^ "\n" ^ source; hot }

let hot_set =
  lazy
    (List.concat_map
       (fun i ->
         let source = Front.Pretty.to_string (Fuzz.Gen.generate ~seed:hot_campaign i).Fuzz.Gen.ast in
         List.map (fun mode -> (mode, source)) [ "baseline"; "specrecon" ])
       (List.init hot_programs Fun.id)
    |> Array.of_list)

(* Exactly [fresh_share] of [n] requests are fresh, and the hot keys
   are sent equally often (to within one), in a seeded order: seeds
   differ in order, not in the mix. *)
let stream ~seed ~n =
  let hot = Lazy.force hot_set in
  let fresh = int_of_float (Float.round (fresh_share *. float_of_int n)) in
  let is_fresh = Batch.shuffle ~seed (Array.init n (fun i -> i < fresh)) in
  let hot_order =
    Batch.shuffle ~seed:(seed + 1) (Array.init (n - fresh) (fun j -> hot.(j mod Array.length hot)))
  in
  let next_hot = ref 0 in
  let programs = Array.of_list (Batch.draw ~seed:fresh_campaign ~count:fresh) in
  let programs = ref (Array.to_list (Batch.shuffle ~seed:(seed + 2) programs)) in
  Array.init n (fun id ->
      if is_fresh.(id) then begin
        let name, program, _ = List.hd !programs in
        programs := List.tl !programs;
        (* The comment keeps every fresh source a distinct cache key. *)
        make id ~mode:"specrecon" ~source:(Printf.sprintf "// %s\n%s" name program) ~hot:false
      end
      else
        let mode, source = hot_order.(!next_hot) in
        incr next_hot;
        make id ~mode ~source ~hot:true)

let config =
  { Simt.Config.default with
    Simt.Config.n_warps = warps; seed = 11; max_issues = 1_500_000; fuel = 0 }

let references stream =
  let refs = Hashtbl.create 512 in
  Array.iter
    (fun r ->
      if not (Hashtbl.mem refs r.key) then begin
        let compiled = C.compile (options_of_mode r.req.P.mode) ~source:r.req.P.source in
        let o = Core.Runner.launch ~config ~init:Serve.Server.data_init compiled ~args:[] in
        let m = o.Core.Runner.metrics in
        Hashtbl.replace refs r.key
          { cycles = m.Simt.Metrics.cycles; issues = m.issues; active = m.active_sum;
            finished = m.threads_finished; digest = Simt.Memsys.digest o.Core.Runner.memory }
      end)
    stream;
  refs

(* ---- the server process ---- *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let spawned = ref 0

let start_server ~run_dir =
  incr spawned;
  let tag = Printf.sprintf "%d-%d" (Unix.getpid ()) !spawned in
  (* Relative paths: a checkout's absolute path may exceed the
     108-byte limit on Unix socket addresses. *)
  let socket = Filename.concat run_dir ("s" ^ tag ^ ".sock")
  and persist = Filename.concat run_dir ("persist-" ^ tag) in
  rm_rf persist;
  let env =
    Array.append [| "SPECRECON_DOMAINS=1" |]
      (Array.of_list
         (List.filter
            (fun v -> not (String.starts_with ~prefix:"SPECRECON_DOMAINS=" v))
            (Array.to_list (Unix.environment ()))))
  in
  let pid =
    Unix.create_process_env srserved
      [| srserved; "--socket"; socket; "--persist"; persist |]
      env Unix.stdin Unix.stderr Unix.stderr
  in
  match Serve.Client.connect socket with
  | client -> { pid; socket; persist; client }
  | exception e ->
    Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid);
    raise e

(* Drain and stop the server, waiting at most 10 s before killing it. *)
let stop_server s =
  (try ignore (Serve.Client.round_trip s.client [ "shutdown" ]) with _ -> ());
  Serve.Client.close s.client;
  let rec wait n =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when n > 0 ->
      Unix.sleepf 0.02;
      wait (n - 1)
    | 0, _ ->
      Unix.kill s.pid Sys.sigkill;
      ignore (Unix.waitpid [] s.pid)
    | _ -> ()
  in
  wait 500;
  rm_rf s.persist;
  if Sys.file_exists s.socket then Sys.remove s.socket

let persist_writes s =
  Array.fold_left
    (fun n f -> if Filename.check_suffix f ".art" then n + 1 else n)
    0 (Sys.readdir s.persist)

let setup ~seed ~n ~run_dir =
  let stream = stream ~seed ~n in
  let refs = references stream in
  { stream; refs; server = start_server ~run_dir }

(* ---- checking a response ---- *)

type answer = { cache : P.cache_status; issues : int; ok : bool }

let check setup i response =
  let r = setup.stream.(i) in
  match response with
  | P.Ok_run reply ->
    let e = Hashtbl.find setup.refs r.key in
    let ok =
      reply.P.cycles = e.cycles && reply.issues = e.issues && reply.active = e.active
      && reply.finished = e.finished && reply.digest = e.digest
    in
    if not ok then Printf.eprintf "perfbench: serve-mix request %d differs from its reference\n%!" i;
    Some { cache = reply.P.cache; issues = reply.issues; ok }
  | other ->
    Printf.eprintf "perfbench: serve-mix request %d: %s\n%!" i (P.print_response other);
    None

(* ---- the open loop ---- *)

let now_s () = Int64.to_float (Span.now_ns ()) /. 1e9

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

type timing = {
  due : float array;
  sent : float array;
  received : float array;
  responses : P.response option array;
  refs : (float * float) list; (* (time, reference ms) *)
}

(* The open loop times a [reference_part]-th of the reference
   computation (see Calib; about 1 ms) whenever nothing is in flight
   and the next request is due in more than [reference_gap_s]: a
   reference still running when a request falls due would delay it,
   and on a busy host a whole reference takes up to 15 ms. *)
let reference_part = 5
let reference_gap_s = 0.008

(* Sends requests [first, first + count) of the stream, request
   [first + i] at [i / rate] seconds after the start, reading responses
   whenever none is due, and timing the reference computation whenever
   srserved is idle long enough. Arrays are indexed by [i]; times are
   seconds from the start. *)
let open_loop setup ~first ~count =
  let fd = Serve.Client.fd setup.server.client in
  let lines =
    Array.map (fun r -> P.print_command (P.Run r.req) ^ "\n\n") (Array.sub setup.stream first count)
  in
  let due = Array.init count (fun i -> float_of_int i /. rate) in
  let sent = Array.make count nan and received = Array.make count nan in
  let responses = Array.make count None in
  let buf = Bytes.create 65536 and partial = Buffer.create 4096 in
  let t0 = now_s () in
  let next = ref 0 and got = ref 0 and refs = ref [] in
  let give_up = due.(count - 1) +. 60.0 in
  let take_lines t =
    let s = Buffer.contents partial in
    Buffer.clear partial;
    let rec go start =
      match String.index_from_opt s start '\n' with
      | None -> Buffer.add_string partial (String.sub s start (String.length s - start))
      | Some stop ->
        (match P.parse_response (String.sub s start (stop - start)) with
        | Ok resp ->
          let rid =
            match resp with
            | P.Ok_run r -> r.P.rid
            | P.Error { rid; _ } | P.Overloaded { rid; _ } | P.Deadline { rid; _ } -> rid
            | P.Stats_reply { rid; _ } -> rid
            | P.Bye -> -1
          in
          let i = rid - first in
          if i >= 0 && i < count && responses.(i) = None then begin
            responses.(i) <- Some resp;
            received.(i) <- t;
            incr got
          end
        | Error e -> failwith ("serve-mix: unparsable response: " ^ e));
        go (stop + 1)
    in
    go 0
  in
  while !got < count && now_s () -. t0 < give_up do
    while !next < count && due.(!next) <= now_s () -. t0 do
      (* Timed as the send starts: the write wakes srserved, which may
         run before this process records anything. *)
      sent.(!next) <- now_s () -. t0;
      write_all fd lines.(!next) 0;
      incr next
    done;
    if !got = !next && !next < count && due.(!next) -. (now_s () -. t0) > reference_gap_s then begin
      let at = now_s () -. t0 in
      refs := (at, Calib.once ~part:reference_part ()) :: !refs
    end;
    let wait = if !next < count then Float.max 0.0 (due.(!next) -. (now_s () -. t0)) else 0.5 in
    match Unix.select [ fd ] [] [] wait with
    | [], _, _ -> ()
    | _ ->
      let k = Unix.read fd buf 0 (Bytes.length buf) in
      if k = 0 then failwith "serve-mix: server closed the connection";
      Buffer.add_subbytes partial buf 0 k;
      take_lines (now_s () -. t0)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  { due; sent; received; responses; refs = !refs }

let ms x = x *. 1000.0

let lag_ms t = Array.to_list (Array.mapi (fun i s -> ms (s -. t.due.(i))) t.sent)

let fell_behind lag_p99 =
  if lag_p99 > lag_limit_ms then
    [ Printf.sprintf "serve-mix run invalid: generator lag p99 %.3f ms exceeds %.1f ms" lag_p99 lag_limit_ms ]
  else []

(* ---- the end-to-end run ---- *)

(* Simulated results of the hot set, from the server's own answers:
   baseline over specrecon cycles per hot program, and the SIMT
   efficiency of its specrecon build. *)
let hot_summary setup (responses : P.response option array) =
  let first = Hashtbl.create 16 in
  Array.iteri
    (fun i resp ->
      match resp with
      | Some (P.Ok_run reply) when setup.stream.(i).hot && not (Hashtbl.mem first setup.stream.(i).key) ->
        Hashtbl.replace first setup.stream.(i).key reply
      | _ -> ())
    responses;
  let speedups = ref [] and effs = ref [] in
  Array.iter
    (fun (mode, source) ->
      if mode = "specrecon" then
        match
          (Hashtbl.find_opt first ("baseline\n" ^ source), Hashtbl.find_opt first ("specrecon\n" ^ source))
        with
        | Some b, Some s ->
          speedups := (float_of_int b.P.cycles /. float_of_int s.P.cycles) :: !speedups;
          effs := (float_of_int s.P.active /. float_of_int (s.P.issues * 32)) :: !effs
        | _ -> ())
    (Lazy.force hot_set);
  (Stats.geomean !speedups, Stats.mean !effs)

(* The end-to-end run sends the stream in open-loop segments of this
   length, with the reference computation timed between two segments as
   well as inside them. Each latency is rescaled by the reference
   timings nearest to its due time (see Calib): srserved and this
   process share one CPU (see run.sh), so they time that CPU's speed
   at the moment. Goodput and the generator's lag are reported as
   measured. *)
let segment_s = 2.0

let end_to_end ~seed ~seconds ~tail ~run_dir =
  let n = int_of_float (rate *. seconds) in
  let setup_s, setup_raw_s, setup =
    Calib.repeat_setup ~discard:(fun s -> stop_server s.server) (fun () -> setup ~seed ~n ~run_dir)
  in
  let seg = int_of_float (rate *. segment_s) in
  let segments, rss =
    Fun.protect
      ~finally:(fun () -> stop_server setup.server)
      (fun () ->
        let before = ref (Calib.measure ()) in
        let segments =
          List.init ((n + seg - 1) / seg) (fun k ->
              let first = k * seg in
              let t = open_loop setup ~first ~count:(min seg (n - first)) in
              let after = Calib.measure () in
              let last = Array.fold_left Float.max 0.0 t.received in
              let samples = (0.0, !before) :: (last, after) :: t.refs in
              before := after;
              (first, t, fun i -> Calib.scale (Calib.near samples t.due.(i))))
        in
        (* Read before the drain: the server's peak resident set. *)
        (segments, Metric.peak_rss_mb (string_of_int setup.server.pid)))
  in
  let responses = Array.make n None in
  let all = ref [] and raw = ref [] and hits = ref [] and misses = ref [] and lag = ref [] in
  let good = ref 0 and failed = ref 0 and hit_rates = ref [] and window = ref 0.0 and sending = ref 0.0 in
  List.iter
    (fun (first, t, scale) ->
      Array.iteri
        (fun i resp ->
          responses.(first + i) <- resp;
          lag := ms (t.sent.(i) -. t.due.(i)) :: !lag;
          let latency = ms (t.received.(i) -. t.due.(i)) and scale = scale i in
          match Option.bind resp (check setup (first + i)) with
          | Some a when a.ok ->
            raw := latency :: !raw;
            all := (latency *. scale) :: !all;
            if latency <= latency_limit_ms then incr good;
            (match a.cache with
            | P.Hit ->
              hits := (latency *. scale) :: !hits;
              hit_rates := (float_of_int a.issues /. (latency *. scale /. 1000.0)) :: !hit_rates
            | P.Miss -> misses := (latency *. scale) :: !misses)
          | _ -> incr failed)
        t.responses;
      (* Goodput counts over each segment's time from its first due
         time to its last response. *)
      window := !window +. Array.fold_left Float.max 0.0 t.received;
      sending := !sending +. Array.fold_left Float.max 0.0 t.sent +. (1.0 /. rate))
    segments;
  let lag_p99 = Stats.percentile 99.0 !lag in
  Printf.printf
    "serve-mix: offered %.1f rps, achieved %.1f rps; generator lag p50 %.3f ms p99 %.3f ms max \
     %.3f ms; %d hits, %d misses; tail = p%g (%d miss samples beyond)\n"
    rate (float_of_int n /. !sending) (Stats.median !lag) lag_p99 (List.fold_left Float.max 0.0 !lag)
    (List.length !hits) (List.length !misses) tail (Stats.beyond ~p:tail (List.length !misses));
  Printf.printf "host time, unscaled: setup %.3f s, latency p50 %.3f ms\n" setup_raw_s (Stats.median !raw);
  let problems = fell_behind lag_p99 in
  let speedup, eff = hot_summary setup responses in
  let all = !all and hits = !hits and misses = !misses in
  let m = Metric.m in
  ( [ m "setup_s" "s" setup_s;
      m "peak_rss_mb" "MB" rss;
      m "kernels_per_s" "1/s" (float_of_int !good /. !window);
      m "latency_p50_ms" "ms" (Stats.median all);
      m "latency_tail_ms" "ms" (Stats.percentile tail all);
      m "compile_ms_p50" "ms" (Stats.median misses);
      m "compile_ms_tail" "ms" (Stats.percentile tail misses);
      m "launch_ms_p50" "ms" (Stats.median hits);
      m "launch_ms_tail" "ms" (Stats.percentile tail hits);
      m "sim_issues_per_s" "1/s" (Stats.median !hit_rates);
      m "sim_speedup_geomean" "x" speedup;
      m "simt_eff_mean" "ratio" eff ],
    n,
    !failed,
    problems )

(* ---- the traced run ---- *)

(* The serve layer's per-layer metrics as the batch workloads report
   them: 0, as they never run the serve layer. *)
let unused_metrics =
  List.map
    (fun (name, unit_) -> Metric.m name unit_ 0.0)
    [ ("serve.submit_hit_ms", "ms"); ("serve.submit_miss_ms", "ms"); ("serve.transport_ms", "ms");
      ("serve.cache_hit_ratio", "ratio"); ("serve.persist_writes", "count");
      ("serve.generator_lag_ms", "ms"); ("serve.achieved_rps", "1/s") ]

(* One closed-loop pass over the first [n] requests against a fresh
   in-process engine and a fresh srserved: each op submits the request
   in process (span serve.submit_hit or serve.submit_miss), then sends
   it over the socket (span serve.rpc). Untraced when [tr] is [None].
   Returns the op times, the failures, the in-process hits and misses
   and the persist writes of srserved. *)
let closed_pass setup ~n ~run_dir ~tr ~first_op =
  let server = start_server ~run_dir in
  let persist = Filename.concat run_dir (Printf.sprintf "persist-%d-inproc" (Unix.getpid ())) in
  rm_rf persist;
  let engine = Serve.Server.create ~persist_dir:persist () in
  let span name f = match tr with Some t -> Span.with_span t name f | None -> f () in
  let op_ms = ref 0.0 and failed = ref 0 in
  let one i =
    let cmd = P.Run setup.stream.(i).req in
    let submitted = span "serve.submit" (fun () -> List.hd (Serve.Server.submit engine [ cmd ])) in
    (match (tr, submitted) with
    | Some t, P.Ok_run { P.cache; _ } ->
      Span.rename_last t ~from:"serve.submit"
        ~to_:(if cache = P.Hit then "serve.submit_hit" else "serve.submit_miss")
    | _ -> ());
    let line = span "serve.rpc" (fun () -> Serve.Client.rpc server.client (P.print_command cmd)) in
    (submitted, line)
  in
  Fun.protect
    ~finally:(fun () ->
      stop_server server;
      rm_rf persist)
    (fun () ->
      for i = 0 to n - 1 do
        let t0 = Span.now_ns () in
        let submitted, line =
          match tr with Some t -> Span.op t (first_op + i) (fun () -> one i) | None -> one i
        in
        op_ms := !op_ms +. Span.ms_since t0;
        let remote = match P.parse_response line with Ok r -> r | Error e -> failwith e in
        match (check setup i submitted, check setup i remote) with
        | Some a, Some b when a.ok && b.ok -> ()
        | _ -> incr failed
      done;
      ( !op_ms,
        !failed,
        Serve.Server.cache_hits engine,
        Serve.Server.cache_misses engine,
        persist_writes server ))

(* The compile and simulator layers' share of the traced requests,
   replayed in process stage by stage (see Staged) as srserved runs
   them: a key compiles on its first sight (a miss), every request
   launches. The first build of each key must replicate
   Core.Compile.compile, and every launch must match its reference.
   Returns the failures. *)
let replay tr setup ~n ~first_op =
  let built = Hashtbl.create 64 and failed = ref 0 in
  for i = 0 to n - 1 do
    let r = setup.stream.(i) in
    let options = options_of_mode r.req.P.mode and source = r.req.P.source in
    let fresh = not (Hashtbl.mem built r.key) in
    match
      Span.op tr (first_op + i) (fun () ->
          let b =
            match Hashtbl.find_opt built r.key with
            | Some b -> b
            | None -> Staged.compile tr options ~source
          in
          (b, Staged.launch tr ~config ~init:Serve.Server.data_init ~args:[] b))
    with
    | b, result ->
      Hashtbl.replace built r.key b;
      let e = Hashtbl.find setup.refs r.key and m = result.Simt.Interp.metrics in
      let replicated = (not fresh) || Staged.replicates b options ~source = Ok () in
      if not (replicated && m.Simt.Metrics.cycles = e.cycles && m.issues = e.issues
              && m.active_sum = e.active && m.threads_finished = e.finished
              && Simt.Memsys.digest result.Simt.Interp.memory = e.digest)
      then begin
        incr failed;
        Printf.eprintf "perfbench: serve-mix replay of request %d differs from its reference\n%!" i
      end
    | exception e ->
      incr failed;
      Printf.eprintf "perfbench: serve-mix replay of request %d: %s\n%!" i (Printexc.to_string e)
  done;
  !failed

(* An open-loop phase over the trace requests for the generator's lag
   and the achieved rate; two traced closed-loop passes that must agree
   on every count, each after an untraced pass of the same ops for the
   tracing overhead; then two replays of the compile and simulator
   layers, which must agree on every count too. *)
let traced ~seed ~seconds ~run_dir =
  let n = min trace_requests (int_of_float (rate *. seconds)) in
  let setup = setup ~seed ~n ~run_dir in
  let t =
    Fun.protect ~finally:(fun () -> stop_server setup.server) (fun () -> open_loop setup ~first:0 ~count:n)
  in
  let open_failed =
    List.length
      (List.filter
         (fun i -> match Option.bind t.responses.(i) (check setup i) with Some a -> not a.ok | None -> true)
         (List.init n Fun.id))
  in
  let lag_p99 = Stats.percentile 99.0 (lag_ms t) in
  let achieved = float_of_int (n - 1) /. Array.fold_left Float.max 0.0 t.sent in
  let tr = Span.create () in
  let refs = ref [ Calib.measure () ] in
  let pass ~tr ~first_op =
    let r = closed_pass setup ~n ~run_dir ~tr ~first_op in
    refs := Calib.measure () :: !refs;
    r
  in
  let u1, f0, _, _, _ = pass ~tr:None ~first_op:0 in
  let _, f1, h1, m1, w1 = pass ~tr:(Some tr) ~first_op:0 in
  let u2, f3, _, _, _ = pass ~tr:None ~first_op:0 in
  let _, f2, h2, m2, w2 = pass ~tr:(Some tr) ~first_op:n in
  let layers = Span.create () in
  let f4 = replay layers setup ~n ~first_op:0 in
  let c1 = Span.take_counts layers in
  let f5 = replay layers setup ~n ~first_op:n in
  let c2 = Span.take_counts layers in
  let untraced_ms = (u1 +. u2) /. 2.0 and traced_ms = Span.total_op_ms tr /. 2.0 in
  let scale = Calib.scale (Stats.median !refs) in
  let self = Span.self_ms_by_name tr in
  let ms name = Option.value (Hashtbl.find_opt self name) ~default:0.0 *. scale /. 2.0 in
  let problems =
    List.filter_map
      (fun (name, a, b) ->
        if a = b then None
        else Some (Printf.sprintf "count %s differs between traced passes: %d vs %d" name a b))
      [ ("serve.cache_hits", h1, h2); ("serve.cache_misses", m1, m2); ("serve.persist_writes", w1, w2) ]
    @ Metric.mismatches Metric.deterministic_counts c1 c2
    @ List.map
        (fun (op, gap) -> Printf.sprintf "op %d: layer self times miss its duration by %g ms" op gap)
        (Span.unaccounted tr @ Span.unaccounted layers)
    @ fell_behind lag_p99
  in
  Printf.printf
    "serve-mix traced: %d requests; offered %.1f rps, achieved %.1f rps, generator lag p99 %.3f ms; \
     host time per pass untraced %.1f ms, traced %.1f ms; scale %.4f\n"
    n rate achieved lag_p99 untraced_ms traced_ms scale;
  let m = Metric.m in
  ( Metric.layers layers ~passes:2.0 ~scale ~count:c1
    @ [ m "serve.submit_hit_ms" "ms" (ms "serve.submit_hit");
        m "serve.submit_miss_ms" "ms" (ms "serve.submit_miss");
        m "serve.transport_ms" "ms" (ms "serve.rpc" -. ms "serve.submit_hit" -. ms "serve.submit_miss");
        m "serve.cache_hit_ratio" "ratio" (Metric.ratio (float_of_int h1) (float_of_int (h1 + m1)));
        m "serve.persist_writes" "count" (float_of_int w1);
        m "serve.generator_lag_ms" "ms" lag_p99;
        m "serve.achieved_rps" "1/s" achieved ]
    @ Metric.trace tr ~passes:2.0 ~scale ~traced_ms ~untraced_ms,
    7 * n,
    open_failed + f0 + f1 + f2 + f3 + f4 + f5,
    problems,
    [ ("", tr); ("-layers", layers) ] )
