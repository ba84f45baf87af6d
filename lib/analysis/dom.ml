type t = {
  root : int;
  idom_tbl : (int, int) Hashtbl.t; (* node -> immediate dominator; root maps to itself *)
  rpo_index : (int, int) Hashtbl.t;
}

(* Cooper, Harvey & Kennedy, "A Simple, Fast Dominance Algorithm". *)
let compute g =
  let order = Cfg.rpo g in
  let rpo_index = Hashtbl.create 16 in
  List.iteri (fun i id -> Hashtbl.replace rpo_index id i) order;
  let idom_tbl = Hashtbl.create 16 in
  let root = Cfg.entry g in
  Hashtbl.replace idom_tbl root root;
  let intersect a b =
    let rec walk a b =
      if a = b then a
      else
        let ia = Hashtbl.find rpo_index a and ib = Hashtbl.find rpo_index b in
        if ia > ib then walk (Hashtbl.find idom_tbl a) b else walk a (Hashtbl.find idom_tbl b)
    in
    walk a b
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun id ->
        if id <> root then begin
          let processed_preds =
            List.filter (fun p -> Hashtbl.mem idom_tbl p) (Cfg.preds g id)
          in
          match processed_preds with
          | [] -> ()
          | first :: rest ->
            let new_idom = List.fold_left intersect first rest in
            if Hashtbl.find_opt idom_tbl id <> Some new_idom then begin
              Hashtbl.replace idom_tbl id new_idom;
              changed := true
            end
        end)
      order
  done;
  { root; idom_tbl; rpo_index }

let idom t id =
  if id = t.root then None
  else Hashtbl.find_opt t.idom_tbl id

let rec dominates t a b =
  if a = b then true
  else
    match idom t b with
    | None -> false
    | Some parent -> dominates t a parent

let strictly_dominates t a b = a <> b && dominates t a b

let children t id =
  Hashtbl.fold (fun node parent acc -> if parent = id && node <> id then node :: acc else acc)
    t.idom_tbl []
  |> List.sort compare

(* Cooper et al. dominance-frontier computation, once for the whole
   graph: a join point with several predecessors is in the frontier of
   every dominator of a predecessor up to (but excluding) the join's
   immediate dominator. While one join is walked, it is the only node
   added anywhere, so a repeat shows at the head of the runner's list. *)
let frontiers t g =
  let df : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun join ->
      let preds = Cfg.preds g join in
      if List.length preds >= 2 then begin
        let stop = Hashtbl.find_opt t.idom_tbl join in
        List.iter
          (fun pred ->
            if Hashtbl.mem t.idom_tbl pred then begin
              let rec runner node =
                if Some node <> stop then begin
                  (match Hashtbl.find_opt df node with
                  | Some (j :: _) when j = join -> ()
                  | Some l -> Hashtbl.replace df node (join :: l)
                  | None -> Hashtbl.replace df node [ join ]);
                  match idom t node with
                  | Some parent when parent <> node -> runner parent
                  | Some _ | None -> ()
                end
              in
              runner pred
            end)
          preds
      end)
    (Cfg.nodes g);
  Hashtbl.filter_map_inplace (fun _ l -> Some (List.sort compare l)) df;
  fun id -> Option.value (Hashtbl.find_opt df id) ~default:[]

let common_ancestor t a b =
  if not (Hashtbl.mem t.idom_tbl a) then
    invalid_arg (Printf.sprintf "Dom.common_ancestor: node %d unreachable" a);
  if not (Hashtbl.mem t.idom_tbl b) then
    invalid_arg (Printf.sprintf "Dom.common_ancestor: node %d unreachable" b);
  let rec walk a b =
    if a = b then a
    else
      let ia = Hashtbl.find t.rpo_index a and ib = Hashtbl.find t.rpo_index b in
      if ia > ib then walk (Hashtbl.find t.idom_tbl a) b else walk a (Hashtbl.find t.idom_tbl b)
  in
  walk a b

module Post = struct
  type pt = { tree : t; rgraph : Cfg.t }

  let compute g =
    let rgraph = Cfg.reverse g in
    { tree = compute rgraph; rgraph }

  let ipdom pt id = idom pt.tree id
  let postdominates pt a b = dominates pt.tree a b
  let tree pt = pt.tree
  let graph pt = pt.rgraph
end
