(* Summary statistics over samples. Percentiles are nearest-rank: the
   p-th percentile of n sorted samples is the ceil(p/100 * n)-th
   smallest, so exactly [beyond ~p n] samples lie above it. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let rank p n = max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1))

let percentile p xs =
  match sorted xs with
  | [||] -> invalid_arg "Stats.percentile: no samples"
  | a -> a.(rank p (Array.length a))

let median xs =
  match sorted xs with
  | [||] -> invalid_arg "Stats.median: no samples"
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Samples strictly above the nearest-rank p-th percentile of [n]. *)
let beyond ~p n = n - 1 - rank p n

let mean = function
  | [] -> invalid_arg "Stats.mean: no samples"
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean xs = exp (mean (List.map log xs))
let sum = List.fold_left ( +. ) 0.0
