module Mask = Support.Mask
module L = Ir.Linear
module D = Ir.Decoded
module T = Ir.Types

exception Deadlock of string
exception Runtime_error of string
exception Runaway of string
exception Deadline_exceeded of string

type yield_event = {
  at_cycle : int;
  warp : int;
  slot : int;
  released : int list;
  abandoned : int list;
}

type result = {
  metrics : Metrics.t;
  memory : Memsys.t;
  profile : Analysis.Profile.t;
  yield_log : yield_event list;
}

type issue_event = {
  at_cycle : int;
  warp : int;
  pc : int;
  active : int list;
  where : L.location;
}

(* An unboxed register file: register [r] holds [I ri.(r)] when
   [rk.[r] = k_int] and [F rf.(r)] when [rk.[r] = k_float], so a write
   stores a payload and a kind byte and never boxes a [T.value]. The
   immediate pool is split into the same shape once per run. *)
type regs = { ri : int array; rf : float array; rk : Bytes.t }

let k_int = '\000'
let k_float = '\001'

let new_regs n = { ri = Array.make n 0; rf = Array.make n 0.0; rk = Bytes.make n k_int }

(* The helpers below are module-local and closed so that ocamlopt inlines
   them into the issue loop: dune's dev profile compiles with -opaque,
   which blocks inlining of any Support.Mask or Valops function. *)

let[@inline] set_int r d n =
  r.ri.(d) <- n;
  Bytes.set r.rk d k_int

let[@inline] set_float r d x =
  r.rf.(d) <- x;
  Bytes.set r.rk d k_float

let[@inline] set_value r d = function T.I n -> set_int r d n | T.F x -> set_float r d x

(* Encoded-operand reads (see Ir.Decoded): bit 0 picks the current
   register file or the immediate pool, the rest is the index. *)
let[@inline] home cur pool e = if e land 1 = 0 then cur else pool
let[@inline] kind cur pool e = Bytes.get (home cur pool e).rk (e lsr 1)
let[@inline] ival cur pool e = (home cur pool e).ri.(e lsr 1)
let[@inline] fval cur pool e = (home cur pool e).rf.(e lsr 1)

(* Boxed read, for the paths that need a [T.value]: stores and the
   Valops fallback. *)
let value cur pool e =
  if kind cur pool e = k_int then T.I (ival cur pool e) else T.F (fval cur pool e)

let[@inline] copy cur pool e dst d =
  if kind cur pool e = k_int then set_int dst d (ival cur pool e)
  else set_float dst d (fval cur pool e)

(* An int operand (address, randint bound); a float raises Valops's
   type error. *)
let[@inline] int_operand cur pool e =
  if kind cur pool e = k_int then ival cur pool e else Valops.to_int (value cur pool e)

let[@inline] truthy cur pool e =
  if kind cur pool e = k_int then ival cur pool e <> 0 else fval cur pool e <> 0.0

(* Lane peel: the index of the lowest set bit of a non-zero mask is the
   SWAR popcount of the bits below it. *)
let[@inline] popcount m =
  let m = m - ((m lsr 1) land 0x1555555555555555) in
  let m = (m land 0x3333333333333333) + ((m lsr 2) land 0x3333333333333333) in
  let m = (m + (m lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  let m = m + (m lsr 8) in
  let m = m + (m lsr 16) in
  let m = m + (m lsr 32) in
  m land 0x7F

let[@inline] lowest_lane bits = popcount ((bits land -bits) - 1)

(* Operation classes of the bin/un lane loop: the operand kind an
   operation takes on its fast path and the kind it produces. Any other
   operand kind goes to Valops, the single source of semantics (type
   errors included); the arms below mirror its cases. *)
let c_int = 0 (* int -> int; integer comparisons give 0/1 *)
let c_float = 1 (* float -> float *)
let c_fcmp = 2 (* float -> 0/1 *)
let c_itof = 3
let c_ftoi = 4

let bin_class : T.binop -> int = function
  | Add | Sub | Mul | Div | Rem | Min | Max | Land | Lor | Lxor | Shl | Shr | Eq | Ne | Lt | Le
  | Gt | Ge ->
    c_int
  | Fadd | Fsub | Fmul | Fdiv | Fmin | Fmax -> c_float
  | Feq | Fne | Flt | Fle | Fgt | Fge -> c_fcmp

let un_class : T.unop -> int = function
  | Neg | Not | Bnot -> c_int
  | Fneg | Sqrt | Exp | Log | Sin | Cos | Fabs -> c_float
  | Itof -> c_itof
  | Ftoi -> c_ftoi

let[@inline] b2i b = if b then 1 else 0

(* Native [/] and [mod] raise Division_by_zero exactly as Valops does. *)
let[@inline] int_binop (o : T.binop) (x : int) y =
  match o with
  | Add -> x + y
  | Sub -> x - y
  | Mul -> x * y
  | Div -> x / y
  | Rem -> x mod y
  | Min -> if x <= y then x else y
  | Max -> if x >= y then x else y
  | Land -> x land y
  | Lor -> x lor y
  | Lxor -> x lxor y
  | Shl -> x lsl y
  | Shr -> x asr y
  | Eq -> b2i (x = y)
  | Ne -> b2i (x <> y)
  | Lt -> b2i (x < y)
  | Le -> b2i (x <= y)
  | Gt -> b2i (x > y)
  | Ge -> b2i (x >= y)
  | _ -> assert false

let[@inline] float_binop (o : T.binop) (x : float) y =
  match o with
  | Fadd -> x +. y
  | Fsub -> x -. y
  | Fmul -> x *. y
  | Fdiv -> x /. y
  | Fmin -> Float.min x y
  | Fmax -> Float.max x y
  | _ -> assert false

let[@inline] float_cmp (o : T.binop) (x : float) y =
  match o with
  | Feq -> b2i (x = y)
  | Fne -> b2i (x <> y)
  | Flt -> b2i (x < y)
  | Fle -> b2i (x <= y)
  | Fgt -> b2i (x > y)
  | Fge -> b2i (x >= y)
  | _ -> assert false

let[@inline] int_unop (o : T.unop) x =
  match o with Neg -> -x | Not -> b2i (x = 0) | Bnot -> lnot x | _ -> assert false

let[@inline] float_unop (o : T.unop) x =
  match o with
  | Fneg -> -.x
  | Sqrt -> sqrt x
  | Exp -> exp x
  | Log -> log x
  | Sin -> sin x
  | Cos -> cos x
  | Fabs -> Float.abs x
  | _ -> assert false

(* [ret_reg] is the caller register receiving the return value, -1 for
   none — decoded form, no option box. *)
type frame = { fregs : regs; ret_pc : int; ret_reg : int }

type thread = {
  lane : int;
  tid : int;
  rng : Support.Splitmix.t;
  mutable frames : frame list; (* head = current frame *)
  (* Cache of the head frame's register file, so the issue path reads
     registers with one load instead of a list match per operand.
     Invariant: [regs == (List.hd frames).fregs]; updated on call and
     return, the only places the frame stack changes. *)
  mutable regs : regs;
  (* Convergence-group identity: the index of this thread's group slot in
     its warp's group table. Threads co-issue only when they share a
     group; groups split whenever members head to different places
     (divergent branch outcomes, barrier blocking) and merge ONLY when a
     convergence barrier fires. This models Volta behaviour faithfully:
     diverged threads do not spontaneously reconverge just because their
     PCs happen to coincide — reconvergence requires a barrier, which is
     exactly why compilers insert them. A finished thread belongs to no
     group. *)
  mutable group : int;
}

(* Group status, kept in [gstat]. *)
let st_ready = 0
let st_blocked = 1

type warp = {
  wid : int;
  threads : thread array;
  barriers : Barrier_unit.t;
  mutable rr_pc : int; (* last pc issued by the Round_robin policy *)
  (* Live convergence groups as a packed table: slots [0, n_groups) hold
     disjoint non-empty lane masks covering every unfinished thread, and
     the group's pc, status and ready cycle. A group's members always
     transition together, so these are per group, not per lane; any
     divergent transition (branch, return, barrier block) re-partitions
     the group by destination. Maintained incrementally on split/merge,
     so the issue path never rebuilds the partition. *)
  gmask : Mask.t array;
  gpc : int array;
  gready : int array;
  gstat : int array;
  mutable n_groups : int;
  (* Cached min [gready] over Ready groups (max_int if none), so an idle
     cycle advances time in O(warps) instead of O(warps × groups).
     [ready_stale] marks the cache dirty after any group mutation. *)
  mutable ready_min : int;
  mutable ready_stale : bool;
}

(* The one write of an issue that moves its whole group together. *)
let[@inline] advance w s pc ready =
  w.gpc.(s) <- pc;
  w.gready.(s) <- ready

let run ?tracer ?faults ?race ?entry (config : Config.t) (dprog : D.t) ~args ~init_memory =
  Config.validate config;
  let lprog = dprog.D.linear in
  let entry_info =
    match entry with
    | None -> lprog.kernel
    | Some name -> (
      match List.find_opt (fun (f : L.finfo) -> String.equal f.fname name) lprog.funcs with
      | Some f -> f
      | None -> invalid_arg (Printf.sprintf "Interp.run: no function named %s" name))
  in
  if List.length args <> entry_info.arity then
    invalid_arg
      (Printf.sprintf "Interp.run: kernel %s expects %d args, got %d" entry_info.fname
         entry_info.arity (List.length args));
  let lat = config.latencies in
  let memory = Memsys.create config.memory ~size:(max lprog.mem_size 1) in
  List.iter
    (fun (base, size) ->
      for addr = base to base + size - 1 do
        Memsys.write memory addr (T.F 0.0)
      done)
    lprog.float_regions;
  init_memory memory;
  let metrics = Metrics.create ~warp_size:config.warp_size in
  let profile = Analysis.Profile.empty () in
  let yield_log = ref [] in
  (* The decoded descriptor columns, hoisted so each issue pays array
     loads, never record-field walks. *)
  let dcode = dprog.D.op in
  let da = dprog.D.a and db = dprog.D.b and dc = dprog.D.c in
  let bops = dprog.D.bop and uops = dprog.D.uop in
  let calls = dprog.D.calls in
  let pool = new_regs (max (Array.length dprog.D.vals) 1) in
  Array.iteri (set_value pool) dprog.D.vals;
  (* Static issue latencies, resolved per slot from the decode-time
     latency class — the hot path never re-classifies an opcode. Memory
     slots keep a placeholder; their cost is dynamic (coalescing). *)
  let lat_tbl =
    Array.map
      (fun cls ->
        if cls = D.lc_alu then lat.alu
        else if cls = D.lc_float then lat.float_op
        else if cls = D.lc_special then lat.special
        else if cls = D.lc_branch then lat.branch
        else if cls = D.lc_barrier then lat.barrier
        else if cls = D.lc_call then lat.call
        else if cls = D.lc_rand then lat.rand
        else 0)
      dprog.D.lclass
  in
  (* Per-block lane counts, keyed by the decode-time block slots; folded
     into [profile] once at the end of the run so the hot loop pays one
     int-array bump instead of a hashtable update per block entry. *)
  let bslot = dprog.D.bslot in
  let prof_counts = Array.make (max (Array.length dprog.D.bfunc) 1) 0 in
  let make_thread wid lane =
    let regs = new_regs (max entry_info.n_regs 1) in
    List.iteri (set_value regs) args;
    {
      lane;
      tid = (wid * config.warp_size) + lane;
      rng = Support.Splitmix.of_ints config.seed wid lane;
      frames = [ { fregs = regs; ret_pc = -1; ret_reg = -1 } ];
      regs;
      group = 0;
    }
  in
  let warps =
    Array.init config.n_warps (fun wid ->
        let w =
          {
            wid;
            threads = Array.init config.warp_size (make_thread wid);
            barriers =
              Barrier_unit.create ~n_barriers:lprog.n_barriers ~warp_size:config.warp_size;
            rr_pc = -1;
            gmask = Array.make config.warp_size Mask.empty;
            gpc = Array.make config.warp_size entry_info.entry_pc;
            gready = Array.make config.warp_size 0;
            gstat = Array.make config.warp_size st_ready;
            n_groups = 1;
            ready_min = 0;
            ready_stale = true;
          }
        in
        w.gmask.(0) <- Mask.full config.warp_size;
        w)
  in
  let n_threads = config.n_warps * config.warp_size in
  let cycle = ref 0 in
  let last_warp = ref (config.n_warps - 1) in
  (* Per-run scratch: simulation within one [run] is single-threaded, so
     one set of buffers serves every warp without re-allocation. *)
  let addr_buf = Array.make config.warp_size 0 in
  let dest = Array.make config.warp_size 0 in
  let part_pc = Array.make config.warp_size 0 in
  let part_mask = Array.make config.warp_size 0 in
  let cand = Array.make config.warp_size 0 in
  let lane_pc w lane = w.gpc.(w.threads.(lane).group) in
  let context w th pc = Printf.sprintf "warp %d lane %d tid %d pc %d" w.wid th.lane th.tid pc in
  let mem_cost w cost =
    match faults with
    | Some f ->
      (* Channel order is part of the replay contract: the spike stream
         draws before the io-delay stream on every access. *)
      let spike = Faults.mem_spike f ~warp:w.wid in
      let jitter = Faults.io_delay f ~warp:w.wid in
      cost + spike + jitter
    | None -> cost
  in
  (* ---- incremental group-table maintenance ---- *)
  (* Point every lane of [m] at slot [s]. *)
  let claim w s m =
    let bits = ref (Mask.bits m) in
    while !bits <> 0 do
      w.threads.(lowest_lane !bits).group <- s;
      bits := !bits land (!bits - 1)
    done
  in
  let detach w th =
    let s = th.group in
    let m = Mask.remove th.lane w.gmask.(s) in
    w.gmask.(s) <- m;
    if Mask.is_empty m then begin
      (* free the slot by moving the last one down *)
      let last = w.n_groups - 1 in
      if s <> last then begin
        w.gmask.(s) <- w.gmask.(last);
        w.gpc.(s) <- w.gpc.(last);
        w.gready.(s) <- w.gready.(last);
        w.gstat.(s) <- w.gstat.(last);
        claim w s w.gmask.(s)
      end;
      w.n_groups <- last
    end
  in
  (* A fresh Ready-or-Blocked slot at [pc] holding [m]. *)
  let new_group w m pc stat ready =
    let n = w.n_groups in
    w.gmask.(n) <- m;
    w.gpc.(n) <- pc;
    w.gstat.(n) <- stat;
    w.gready.(n) <- ready;
    w.n_groups <- n + 1;
    claim w n m
  in
  (* Two-way divergence: the lanes [m], a strict non-empty subset of slot
     [s], leave for a fresh group; [s] keeps the rest. *)
  let split w s m pc stat ready =
    w.gmask.(s) <- Mask.diff w.gmask.(s) m;
    new_group w m pc stat ready
  in
  (* Threads that moved together may have landed in different places;
     re-partition them into fresh Ready groups by destination pc, read
     from [dest.(lane)]. *)
  let regroup w moved ready =
    w.ready_stale <- true;
    let k = ref 0 in
    let bits = ref (Mask.bits moved) in
    while !bits <> 0 do
      let lane = lowest_lane !bits in
      detach w w.threads.(lane);
      let j = ref 0 in
      while !j < !k && part_pc.(!j) <> dest.(lane) do incr j done;
      if !j = !k then begin
        part_pc.(!k) <- dest.(lane);
        part_mask.(!k) <- 0;
        incr k
      end;
      part_mask.(!j) <- part_mask.(!j) lor (1 lsl lane);
      bits := !bits land (!bits - 1)
    done;
    for j = 0 to !k - 1 do
      new_group w (Mask.of_bits part_mask.(j)) part_pc.(j) st_ready ready
    done
  in
  (* Wake a set of lanes released from a barrier: the shared tail of an
     organic fire, a yield-recovery release and a fault-injected spurious
     release. Only organic fires count as [barrier_fires]. *)
  let apply_release w released =
    let bits = ref (Mask.bits released) in
    while !bits <> 0 do
      let lane = lowest_lane !bits in
      dest.(lane) <- lane_pc w lane + 1;
      bits := !bits land (!bits - 1)
    done;
    (* The release is the one place where diverged threads reconverge:
       everyone released at the same point joins one fresh group. *)
    regroup w released (!cycle + lat.barrier)
  in
  (* Release every lane the barrier fire condition allows. Organic fires
     (and only they) advance the warp's race-logger interval: a forced
     release is lost synchronization, so it must not separate accesses
     in the race model. *)
  let release_fired w b =
    let released = Barrier_unit.fired w.barriers b in
    if not (Mask.is_empty released) then begin
      metrics.barrier_fires <- metrics.barrier_fires + 1;
      (match race with Some rl -> Race_log.bump rl ~warp:w.wid | None -> ());
      apply_release w released
    end
  in
  let finish_thread w th =
    w.ready_stale <- true;
    detach w th;
    metrics.threads_finished <- metrics.threads_finished + 1;
    let affected = Barrier_unit.withdraw_lane w.barriers th.lane in
    List.iter (release_fired w) affected
  in
  (* ---- stall handling: yield recovery or deadlock diagnosis ---- *)
  let waiting_slots w =
    let acc = ref [] in
    for b = lprog.n_barriers - 1 downto 0 do
      if not (Mask.is_empty (Barrier_unit.waiting w.barriers b)) then acc := b :: !acc
    done;
    !acc
  in
  (* A warp whose every live group is Blocked can never progress again:
     barrier state is warp-local, so no other warp can release it. *)
  let warp_stalled w =
    w.n_groups > 0
    &&
    let ok = ref true in
    for s = 0 to w.n_groups - 1 do
      if w.gstat.(s) <> st_blocked then ok := false
    done;
    !ok
  in
  (* The dynamic waits-for relation among this warp's barriers: barrier
     [c] waits for [b] when a lane [c] still expects (a participant not
     yet arrived) is itself blocked on [b]. A cycle in this relation is
     the concrete deadlock witness — the runtime counterpart of the
     static cycle srlint reports. *)
  let waits_for_cycle w =
    let succ c =
      let expected =
        Mask.diff (Barrier_unit.participants w.barriers c) (Barrier_unit.waiting w.barriers c)
      in
      Mask.fold
        (fun lane acc ->
          match Barrier_unit.blocked_anywhere w.barriers lane with
          | Some b -> ( match acc with Some b' when b' <= b -> acc | _ -> Some b)
          | None -> acc)
        expected None
    in
    let rec drop_until c = function
      | [] -> []
      | x :: rest -> if x = c then x :: rest else drop_until c rest
    in
    let rec walk seen c =
      if List.mem c seen then Some (drop_until c (List.rev seen))
      else match succ c with None -> None | Some b -> walk (c :: seen) b
    in
    List.find_map (fun s -> walk [] s) (waiting_slots w)
  in
  let lanes_str m = "{" ^ String.concat "," (List.map string_of_int (Mask.to_list m)) ^ "}" in
  let sites_str w m =
    let sites =
      Mask.fold
        (fun lane acc ->
          let loc = lprog.locs.(lane_pc w lane) in
          let s = Printf.sprintf "%s/bb%d" loc.L.in_func loc.L.in_block in
          if List.mem s acc then acc else acc @ [ s ])
        m []
    in
    String.concat "," sites
  in
  let deadlock_report w =
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      (Printf.sprintf
         "all live threads of warp %d blocked on convergence barriers (conflicting \
          barriers?)\n"
         w.wid);
    (match waits_for_cycle w with
    | Some cycle_slots ->
      let names = List.map (fun b -> Printf.sprintf "b%d" b) cycle_slots in
      Buffer.add_string buf
        (Printf.sprintf "waits-for cycle: %s -> %s\n"
           (String.concat " -> " names)
           (List.hd names));
      List.iter
        (fun b ->
          let waiting = Barrier_unit.waiting w.barriers b in
          let expected = Mask.diff (Barrier_unit.participants w.barriers b) waiting in
          Buffer.add_string buf
            (Printf.sprintf "  b%d: lanes %s blocked at %s; still expects lanes %s (%s)\n" b
               (lanes_str waiting) (sites_str w waiting) (lanes_str expected)
               (sites_str w expected)))
        cycle_slots
    | None -> ());
    Buffer.add_string buf (Format.asprintf "%a" Barrier_unit.pp w.barriers);
    Buffer.add_string buf
      "hint: deconfliction (the compiler default) prevents this; yield recovery (srrun \
       --yield) trades lost convergence for forward progress\n";
    Buffer.contents buf
  in
  (* Every live group of [w] is blocked: release a victim barrier chosen
     by the configured policy (Volta-style forward progress) or report
     the deadlock with its waits-for cycle. *)
  let recover_or_deadlock w =
    let slots = waiting_slots w in
    if slots = [] then
      raise
        (Deadlock
           (Printf.sprintf "warp %d: all groups blocked but no barrier has waiters" w.wid));
    if not config.yield_on_stall then raise (Deadlock (deadlock_report w));
    let victim =
      match config.yield_policy with
      | Config.Lowest_slot -> List.hd slots
      | Config.Oldest_arrival ->
        (* [slots] ascends, so keeping the incumbent on ties breaks
           toward the lowest slot id. *)
        List.fold_left
          (fun best b ->
            let a =
              match Barrier_unit.oldest_arrival w.barriers b with
              | Some a -> a
              | None -> max_int
            in
            match best with Some (ba, _) when ba <= a -> best | _ -> Some (a, b))
          None slots
        |> Option.get |> snd
      | Config.Most_waiters ->
        List.fold_left
          (fun best b ->
            let n = Mask.count (Barrier_unit.waiting w.barriers b) in
            let a =
              match Barrier_unit.oldest_arrival w.barriers b with
              | Some a -> a
              | None -> max_int
            in
            match best with
            | Some (bn, ba, _) when bn > n || (bn = n && ba <= a) -> best
            | _ -> Some (n, a, b))
          None slots
        |> Option.get
        |> fun (_, _, b) -> b
    in
    match Barrier_unit.force_release w.barriers victim with
    | None -> assert false (* victim came from waiting_slots *)
    | Some released ->
      let abandoned = Barrier_unit.participants w.barriers victim in
      metrics.yields <- metrics.yields + 1;
      metrics.yield_released <- metrics.yield_released + Mask.count released;
      metrics.yield_abandoned <- metrics.yield_abandoned + Mask.count abandoned;
      yield_log :=
        {
          at_cycle = !cycle;
          warp = w.wid;
          slot = victim;
          released = Mask.to_list released;
          abandoned = Mask.to_list abandoned;
        }
        :: !yield_log;
      apply_release w released
  in
  (* Blocking and thread exit are the only transitions that can leave a
     warp with every live group blocked — the barrier and exit arms of
     [execute] check right here, so a doomed warp is caught at the
     faulting instruction while other warps keep running. *)
  let watchdog w = if warp_stalled w then recover_or_deadlock w in
  (* The lanes of a load or store gather their addresses into
     [addr_buf], in lane order; returns how many. *)
  let gather threads x active =
    let n = ref 0 in
    let bits = ref active in
    while !bits <> 0 do
      addr_buf.(!n) <- int_operand threads.(lowest_lane !bits).regs pool x;
      incr n;
      bits := !bits land (!bits - 1)
    done;
    !n
  in
  let log_race w pc active on_access =
    match race with
    | None -> ()
    | Some rl ->
      let i = ref 0 in
      let bits = ref active in
      while !bits <> 0 do
        let th = w.threads.(lowest_lane !bits) in
        on_access rl ~warp:w.wid ~tid:th.tid ~pc ~addr:addr_buf.(!i);
        incr i;
        bits := !bits land (!bits - 1)
      done
  in
  (* Execute one issued group: slot [s] of [w], all of whose lanes
     ([active], as bits) sit at [pc].

     This is the threaded-code dispatch the decode stage exists for: one
     dense integer match over the opcode column (a flat jump table — the
     literal values mirror Ir.Decoded's op_* table), operands read
     through the encoded-int scheme from unboxed register files, and
     every lane walk an open-coded peel over the mask bits — no ADT
     match, no closure per issue, no name resolution. A group moves as
     one, so an arm that sends every lane to the same place writes the
     slot's pc and ready cycle once; the divergent arms (br, wait, ret,
     exit) split or re-partition the slot. Loads/stores keep the
     two-pass gather/commit shape because the coalescing cost must be
     known before lanes can be advanced. *)
  let execute w s pc active =
    w.ready_stale <- true;
    let threads = w.threads in
    let next = pc + 1 and ready = !cycle + lat_tbl.(pc) in
    match dcode.(pc) with
    | 0 (* bin *) ->
      let d = da.(pc) and x = db.(pc) and y = dc.(pc) in
      let o = bops.(pc) in
      let cls = bin_class o in
      let bits = ref active in
      while !bits <> 0 do
        let r = threads.(lowest_lane !bits).regs in
        let kx = kind r pool x and ky = kind r pool y in
        if cls = c_int && kx = k_int && ky = k_int then
          set_int r d (int_binop o (ival r pool x) (ival r pool y))
        else if cls = c_float && kx = k_float && ky = k_float then
          set_float r d (float_binop o (fval r pool x) (fval r pool y))
        else if cls = c_fcmp && kx = k_float && ky = k_float then
          set_int r d (float_cmp o (fval r pool x) (fval r pool y))
        else set_value r d (Valops.binop o (value r pool x) (value r pool y));
        bits := !bits land (!bits - 1)
      done;
      advance w s next ready
    | 1 (* un *) ->
      let d = da.(pc) and x = db.(pc) in
      let o = uops.(pc) in
      let cls = un_class o in
      let bits = ref active in
      while !bits <> 0 do
        let r = threads.(lowest_lane !bits).regs in
        let kx = kind r pool x in
        if kx = k_int && cls = c_int then set_int r d (int_unop o (ival r pool x))
        else if kx = k_float && cls = c_float then set_float r d (float_unop o (fval r pool x))
        else if kx = k_int && cls = c_itof then set_float r d (float_of_int (ival r pool x))
        else if kx = k_float && cls = c_ftoi then set_int r d (int_of_float (fval r pool x))
        else set_value r d (Valops.unop o (value r pool x));
        bits := !bits land (!bits - 1)
      done;
      advance w s next ready
    | 2 (* mov *) ->
      let d = da.(pc) and x = db.(pc) in
      let bits = ref active in
      while !bits <> 0 do
        let r = threads.(lowest_lane !bits).regs in
        copy r pool x r d;
        bits := !bits land (!bits - 1)
      done;
      advance w s next ready
    | 3 | 4 (* load / store *) ->
      metrics.mem_accesses <- metrics.mem_accesses + 1;
      let load = dcode.(pc) = 3 in
      let n = gather threads (if load then db.(pc) else da.(pc)) active in
      let cost = mem_cost w (Memsys.access_costn memory ~addrs:addr_buf ~n) in
      (* Lane order resolves write conflicts: the highest lane wins,
         matching CUDA's unspecified-but-single-winner semantics
         deterministically. Memory holds boxed values, so a store
         allocates one per lane. *)
      let i = ref 0 in
      let bits = ref active in
      while !bits <> 0 do
        let r = threads.(lowest_lane !bits).regs in
        if load then set_value r da.(pc) (Memsys.read memory addr_buf.(!i))
        else Memsys.write memory addr_buf.(!i) (value r pool db.(pc));
        incr i;
        bits := !bits land (!bits - 1)
      done;
      advance w s next (!cycle + cost);
      log_race w pc active (if load then Race_log.on_read else Race_log.on_write)
    | 5 | 6 | 7 | 15 (* tid / lane / nthreads / arrived *) ->
      let op = dcode.(pc) and d = da.(pc) in
      (* No lane mutates barrier state here, so the arrival count is
         uniform across the group — materialize it once. *)
      let v = if op = 15 then Barrier_unit.arrived w.barriers db.(pc) else n_threads in
      let bits = ref active in
      while !bits <> 0 do
        let th = threads.(lowest_lane !bits) in
        set_int th.regs d (if op = 5 then th.tid else if op = 6 then th.lane else v);
        bits := !bits land (!bits - 1)
      done;
      advance w s next ready
    | 8 (* rand *) ->
      let d = da.(pc) in
      let bits = ref active in
      while !bits <> 0 do
        let th = threads.(lowest_lane !bits) in
        set_float th.regs d (Support.Splitmix.float th.rng);
        bits := !bits land (!bits - 1)
      done;
      advance w s next ready
    | 9 (* randint *) ->
      let d = da.(pc) and x = db.(pc) in
      let bits = ref active in
      while !bits <> 0 do
        let th = threads.(lowest_lane !bits) in
        let bound = int_operand th.regs pool x in
        if bound <= 0 then
          raise
            (Runtime_error
               (Printf.sprintf "randint bound %d not positive (%s)" bound (context w th pc)));
        set_int th.regs d (Support.Splitmix.int th.rng bound);
        bits := !bits land (!bits - 1)
      done;
      advance w s next ready
    | 10 | 11 (* join / rejoin *) ->
      metrics.barrier_joins <- metrics.barrier_joins + 1;
      let b = da.(pc) in
      let bits = ref active in
      while !bits <> 0 do
        Barrier_unit.join w.barriers b (lowest_lane !bits);
        bits := !bits land (!bits - 1)
      done;
      advance w s next ready
    | 12 | 13 (* wait / wait.th *) ->
      (* participants block where they stand, the rest pass on *)
      metrics.barrier_waits <- metrics.barrier_waits + 1;
      let b = da.(pc) and threshold = if dcode.(pc) = 13 then db.(pc) else -1 in
      let blk =
        Mask.bits (Barrier_unit.block w.barriers b (Mask.of_bits active) ~now:!cycle ~threshold)
      in
      if blk = active then w.gstat.(s) <- st_blocked
      else begin
        if blk <> 0 then split w s (Mask.of_bits blk) pc st_blocked ready;
        advance w s next ready
      end;
      release_fired w b;
      watchdog w
    | 14 (* cancel *) ->
      metrics.barrier_cancels <- metrics.barrier_cancels + 1;
      let b = da.(pc) in
      let bits = ref active in
      while !bits <> 0 do
        Barrier_unit.cancel w.barriers b (lowest_lane !bits);
        bits := !bits land (!bits - 1)
      done;
      (* before the release, which may move slot [s] *)
      advance w s next ready;
      release_fired w b
    | 16 (* call *) ->
      let ci = calls.(da.(pc)) in
      let cargs = ci.D.cargs in
      let bits = ref active in
      while !bits <> 0 do
        let th = threads.(lowest_lane !bits) in
        let regs = new_regs ci.D.cn_regs in
        (* Arguments read the caller frame: fill the callee registers
           before swinging regs over. *)
        for i = 0 to Array.length cargs - 1 do
          copy th.regs pool cargs.(i) regs i
        done;
        th.frames <- { fregs = regs; ret_pc = next; ret_reg = ci.D.cret } :: th.frames;
        th.regs <- regs;
        bits := !bits land (!bits - 1)
      done;
      advance w s ci.D.centry ready
    | 17 (* ret *) ->
      let x = da.(pc) in
      let bits = ref active in
      while !bits <> 0 do
        let lane = lowest_lane !bits in
        let th = threads.(lane) in
        (match th.frames with
        | { ret_pc; ret_reg; _ } :: (top :: _ as rest) ->
          (* The return operand reads the callee frame; copy before the
             pop. A ret with no operand writes I 0 into a declared
             return register (the seed semantics). *)
          if ret_reg >= 0 then
            if x >= 0 then copy th.regs pool x top.fregs ret_reg else set_int top.fregs ret_reg 0;
          th.frames <- rest;
          th.regs <- top.fregs;
          dest.(lane) <- ret_pc
        | _ -> raise (Runtime_error (Printf.sprintf "ret outside call (%s)" (context w th pc))));
        bits := !bits land (!bits - 1)
      done;
      (* returns to different call sites split the group *)
      regroup w (Mask.of_bits active) ready
    | 18 (* br *) ->
      let x = da.(pc) and target = db.(pc) in
      let taken = ref 0 in
      let bits = ref active in
      while !bits <> 0 do
        let lane = lowest_lane !bits in
        if truthy threads.(lane).regs pool x then taken := !taken lor (1 lsl lane);
        bits := !bits land (!bits - 1)
      done;
      (* a divergent outcome splits the convergence group *)
      if !taken <> 0 && !taken <> active && target <> next then
        split w s (Mask.of_bits !taken) target st_ready ready;
      advance w s (if !taken = active then target else next) ready
    | 19 (* jump *) -> advance w s da.(pc) ready
    | 20 (* exit *) ->
      let bits = ref active in
      while !bits <> 0 do
        finish_thread w threads.(lowest_lane !bits);
        bits := !bits land (!bits - 1)
      done;
      if metrics.threads_finished < n_threads then watchdog w
    | _ -> assert false
  in
  (* Pick the next (warp, slot) to issue, rotating over warps.
     Candidates are convergence groups, read straight off the warp's
     group table; a group is issuable when it is Ready and its ready
     cycle has passed. Candidates are ordered by (pc, lexicographic lane
     list) — the order the schedule-sensitive policies are defined
     against. *)
  let sel_slot = ref 0 and sel_warp = ref 0 in
  let select_group w =
    let gpc = w.gpc and gmask = w.gmask in
    let now = !cycle in
    let k = ref 0 in
    for s = 0 to w.n_groups - 1 do
      if w.gstat.(s) = st_ready && w.gready.(s) <= now then begin
        (* insertion sort as the candidates arrive *)
        let pc = gpc.(s) in
        let j = ref (!k - 1) in
        while
          !j >= 0
          &&
          let c = cand.(!j) in
          gpc.(c) > pc || (gpc.(c) = pc && Mask.compare_lex gmask.(c) gmask.(s) > 0)
        do
          cand.(!j + 1) <- cand.(!j);
          decr j
        done;
        cand.(!j + 1) <- s;
        incr k
      end
    done;
    let k = !k in
    if k = 0 then false
    else begin
      let chosen =
        match config.policy with
        | Config.Lowest_pc -> 0
        | Config.Most_threads ->
          let best = ref 0 in
          let best_n = ref (popcount (Mask.bits gmask.(cand.(0)))) in
          for i = 1 to k - 1 do
            let n = popcount (Mask.bits gmask.(cand.(i))) in
            if n > !best_n then begin
              best := i;
              best_n := n
            end
          done;
          !best
        | Config.Round_robin ->
          let found = ref 0 in
          (try
             for i = 0 to k - 1 do
               if gpc.(cand.(i)) > w.rr_pc then begin
                 found := i;
                 raise Exit
               end
             done
           with Exit -> ());
          (* rr_pc is Round_robin state only: the other policies must
             not touch it, or a policy change would perturb schedules it
             never influences. *)
          w.rr_pc <- gpc.(cand.(!found));
          !found
      in
      (* Chaos scheduler: the injector may override a multi-candidate
         pick with any other legal candidate. *)
      let chosen =
        match faults with
        | Some f when k >= 2 -> Faults.pick f ~warp:w.wid ~k ~chosen
        | _ -> chosen
      in
      sel_slot := cand.(chosen);
      true
    end
  in
  (* Allocation-free issue pick: [select_group]/[find_issue] report their
     choice through these cells instead of boxing an option per issue. *)
  let find_issue () =
    let found = ref false in
    let i = ref 1 in
    while (not !found) && !i <= config.n_warps do
      let wid = (!last_warp + !i) mod config.n_warps in
      if select_group warps.(wid) then begin
        last_warp := wid;
        sel_warp := wid;
        found := true
      end;
      incr i
    done;
    !found
  in
  (* Once per issue the injector may disturb the issuing warp: fire a
     spurious release (a barrier with waiters releases early, with
     threshold-fire semantics) or push every ready group's wake-up back. *)
  let disturb w =
    match faults with
    | None -> ()
    | Some f -> (
      match Faults.disturb f ~warp:w.wid ~waiting_slots:(waiting_slots w) with
      | None -> ()
      | Some (Faults.D_release b) -> (
        match Barrier_unit.force_release w.barriers b with
        | Some released -> apply_release w released
        | None -> ())
      | Some (Faults.D_stall n) ->
        for s = 0 to w.n_groups - 1 do
          if w.gstat.(s) = st_ready then w.gready.(s) <- max w.gready.(s) !cycle + n
        done;
        w.ready_stale <- true)
  in
  let running = ref true in
  while !running do
    if find_issue () then begin
      let w = warps.(!sel_warp) in
      let s = !sel_slot in
      let pc = w.gpc.(s) and active = Mask.bits w.gmask.(s) in
      let n_active = popcount active in
      metrics.issues <- metrics.issues + 1;
      if metrics.issues > config.max_issues then
        raise (Runaway (Printf.sprintf "issue budget %d exhausted" config.max_issues));
      if config.fuel > 0 && metrics.issues > config.fuel then
        raise (Deadline_exceeded (Printf.sprintf "fuel %d exhausted" config.fuel));
      metrics.active_sum <- metrics.active_sum + n_active;
      (match tracer with
      | Some observe ->
        observe
          { at_cycle = !cycle; warp = w.wid; pc; active = Mask.to_list (Mask.of_bits active);
            where = lprog.locs.(pc) }
      | None -> ());
      let b = bslot.(pc) in
      if b >= 0 then prof_counts.(b) <- prof_counts.(b) + n_active;
      (try execute w s pc active with
      | Valops.Type_error msg ->
        raise (Runtime_error (Printf.sprintf "type error at pc %d (warp %d): %s" pc w.wid msg))
      | Division_by_zero ->
        raise (Runtime_error (Printf.sprintf "division by zero at pc %d (warp %d)" pc w.wid))
      | Invalid_argument msg ->
        raise (Runtime_error (Printf.sprintf "fault at pc %d (warp %d): %s" pc w.wid msg)));
      disturb w;
      incr cycle
    end
    else
      (* Nothing issuable this cycle: advance time to the next ready
         group, finish, or handle an all-blocked stall. The cache makes
         the common all-warps-stalled step O(warps). *)
      if metrics.threads_finished >= n_threads then running := false
      else begin
        let next = ref max_int in
        for wi = 0 to config.n_warps - 1 do
          let w = warps.(wi) in
          if w.ready_stale then begin
            let m = ref max_int in
            for s = 0 to w.n_groups - 1 do
              if w.gstat.(s) = st_ready && w.gready.(s) < !m then m := w.gready.(s)
            done;
            w.ready_min <- !m;
            w.ready_stale <- false
          end;
          if w.ready_min < !next then next := w.ready_min
        done;
        if !next < max_int then cycle := max !next (!cycle + 1)
        else begin
          (* Backstop only: the in-execute watchdog catches a doomed warp
             at its blocking instruction, so reaching here means every
             warp with live threads stalled some other way. *)
          let stalled = ref None in
          Array.iter (fun w -> if !stalled = None && warp_stalled w then stalled := Some w) warps;
          match !stalled with
          | Some w -> recover_or_deadlock w
          | None -> raise (Deadlock "machine idle with no runnable or blocked group")
        end
      end
  done;
  metrics.cycles <- !cycle;
  Array.iteri
    (fun s c ->
      if c > 0 then
        Analysis.Profile.record profile ~func:dprog.D.bfunc.(s) ~block:dprog.D.bblock.(s)
          ~count:c)
    prof_counts;
  (match faults with
  | Some f -> metrics.faults_injected <- List.length (Faults.events f)
  | None -> ());
  { metrics; memory; profile; yield_log = List.rev !yield_log }
