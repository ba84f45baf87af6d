open Sets

type point = { block : int; index : int }

module Set_lattice = struct
  type t = Int_set.t

  let bottom = Int_set.empty
  let equal = Int_set.equal
  let join = Int_set.union
end

module Solver = Dataflow.Make (Set_lattice)

(* Effect of one instruction on the joined-barrier state (forward).
   [call_waits callee] is the set of barriers whose wait sits at
   [callee]'s entry (§4.4 interprocedural propagation): in the caller the
   call itself is the wait event, so it clears membership like a [Wait]
   would. Barriers the caller never joined are unaffected. *)
let joined_step ~call_waits state inst =
  match inst with
  | Ir.Types.Join b | Ir.Types.Rejoin b -> Int_set.add b state
  | Ir.Types.Wait b | Ir.Types.Wait_threshold (b, _) | Ir.Types.Cancel b -> Int_set.remove b state
  | Ir.Types.Call { callee; _ } -> Int_set.diff state (call_waits callee)
  | Ir.Types.Bin _ | Ir.Types.Un _ | Ir.Types.Mov _ | Ir.Types.Load _ | Ir.Types.Store _
  | Ir.Types.Tid _ | Ir.Types.Lane _ | Ir.Types.Nthreads _ | Ir.Types.Rand _
  | Ir.Types.Randint _ | Ir.Types.Arrived _ -> state

(* Effect of one instruction on the live-barrier state (backward: the
   state *before* the instruction given the state after it). *)
let live_step ~call_waits state inst =
  match inst with
  | Ir.Types.Wait b | Ir.Types.Wait_threshold (b, _) -> Int_set.add b state
  | Ir.Types.Join b | Ir.Types.Rejoin b -> Int_set.remove b state
  | Ir.Types.Call { callee; _ } -> Int_set.union state (call_waits callee)
  | Ir.Types.Cancel _ | Ir.Types.Bin _ | Ir.Types.Un _ | Ir.Types.Mov _ | Ir.Types.Load _
  | Ir.Types.Store _ | Ir.Types.Tid _ | Ir.Types.Lane _ | Ir.Types.Nthreads _ | Ir.Types.Rand _
  | Ir.Types.Randint _ | Ir.Types.Arrived _ -> state

type t = {
  func : Ir.Types.func;
  call_waits : string -> Int_set.t;
  joined : Solver.result;
  live : Solver.result Lazy.t; (* solved on the first [live_*] read *)
}

let no_call_waits _ = Int_set.empty

let run ?(call_waits = no_call_waits) (func : Ir.Types.func) =
  let g = Cfg.of_func func in
  let joined =
    Solver.solve g Dataflow.Forward ~boundary:Int_set.empty ~transfer:(fun id state ->
        List.fold_left (joined_step ~call_waits) state (Ir.Types.block func id).insts)
  in
  let live =
    lazy
      (Solver.solve g Dataflow.Backward ~boundary:Int_set.empty ~transfer:(fun id state ->
           List.fold_left (live_step ~call_waits) state
             (List.rev (Ir.Types.block func id).insts)))
  in
  { func; call_waits; joined; live }

let joined_in t id = Solver.before t.joined id
let joined_out t id = Solver.after t.joined id
let live_in t id = Solver.before (Lazy.force t.live) id
let live_out t id = Solver.after (Lazy.force t.live) id

let joined_at t { block; index } =
  let insts = (Ir.Types.block t.func block).insts in
  let rec replay state i = function
    | [] -> state
    | inst :: rest ->
      if i >= index then state
      else replay (joined_step ~call_waits:t.call_waits state inst) (i + 1) rest
  in
  replay (joined_in t block) 0 insts

let live_at t { block; index } =
  (* Replay backward from the block's live-out down to the point. *)
  let suffix = List.filteri (fun i _ -> i >= index) (Ir.Types.block t.func block).insts in
  List.fold_left (live_step ~call_waits:t.call_waits) (live_out t block) (List.rev suffix)

let joined_points t barrier =
  let points = ref [] in
  Ir.Types.iter_blocks t.func (fun b ->
      for index = 0 to List.length b.insts do
        let pt = { block = b.id; index } in
        if Int_set.mem barrier (joined_at t pt) then points := pt :: !points
      done);
  List.rev !points

(* Every barrier's {!joined_points} range as a bitset over the points
   numbered in [iter_blocks] order, from one forward replay per block. *)
let joined_ranges t =
  let n_points = ref 0 in
  Ir.Types.iter_blocks t.func (fun b -> n_points := !n_points + List.length b.insts + 1);
  let ranges = Hashtbl.create 16 in
  let range b =
    match Hashtbl.find_opt ranges b with
    | Some r -> r
    | None ->
      let r = Bitset.create !n_points in
      Hashtbl.replace ranges b r;
      r
  in
  let point = ref 0 in
  let mark state =
    Int_set.iter (fun b -> Bitset.add (range b) !point) state;
    incr point
  in
  Ir.Types.iter_blocks t.func (fun b ->
      mark
        (List.fold_left
           (fun state inst ->
             mark state;
             joined_step ~call_waits:t.call_waits state inst)
           (joined_in t b.id) b.insts));
  Hashtbl.fold (fun b r acc -> (b, r) :: acc) ranges []
  |> List.sort (fun (x, _) (y, _) -> compare x y)

let conflicts t =
  (* §4.3: "a barrier live range extends from the moment threads join the
     barrier until the barrier is cleared either by waiting or exiting" —
     i.e. the joined range (Equation 1, with the effects of already
     inserted Cancel/Rejoin primitives), which is what Figure 5's interval
     arrows depict. A barrier never joined has an empty range and
     conflicts with nothing. *)
  let rec pairs = function
    | [] -> []
    | (b1, r1) :: rest ->
      List.filter_map
        (fun (b2, r2) ->
          let overlap = not (Bitset.disjoint r1 r2) in
          let inclusive = Bitset.subset r1 r2 || Bitset.subset r2 r1 in
          if overlap && not inclusive then Some (b1, b2) else None)
        rest
      @ pairs rest
  in
  pairs (joined_ranges t)

let pp ppf t =
  Ir.Types.iter_blocks t.func (fun b ->
      Format.fprintf ppf "bb%d: joined_in=%a joined_out=%a live_in=%a live_out=%a@." b.id
        pp_int_set (joined_in t b.id) pp_int_set (joined_out t b.id) pp_int_set (live_in t b.id)
        pp_int_set (live_out t b.id))
