(* Shared set/map instantiations over small integer ids (blocks,
   registers, barriers). *)

module Int_set = Set.Make (Int)
module Int_map = Map.Make (Int)

let pp_int_set ppf s =
  Format.fprintf ppf "{%s}"
    (String.concat ", " (List.map string_of_int (Int_set.elements s)))

module Bitset = struct
  type t = int array

  let word_bits = Sys.int_size

  let create n = Array.make ((n + word_bits - 1) / word_bits) 0
  let copy = Array.copy
  let clear s = Array.fill s 0 (Array.length s) 0

  let mem s i = s.(i / word_bits) land (1 lsl (i mod word_bits)) <> 0
  let add s i = s.(i / word_bits) <- s.(i / word_bits) lor (1 lsl (i mod word_bits))
  let remove s i = s.(i / word_bits) <- s.(i / word_bits) land lnot (1 lsl (i mod word_bits))

  let union_into ~into s =
    for k = 0 to Array.length s - 1 do
      into.(k) <- into.(k) lor s.(k)
    done

  let for_all_words p a b =
    let rec go k = k = Array.length a || (p a.(k) b.(k) && go (k + 1)) in
    go 0

  let equal a b = for_all_words Int.equal a b
  let disjoint a b = for_all_words (fun x y -> x land y = 0) a b
  let subset a b = for_all_words (fun x y -> x land lnot y = 0) a b

  let iter f s =
    Array.iteri
      (fun k w ->
        let rec bits w i =
          if w <> 0 then begin
            if w land 1 <> 0 then f i;
            bits (w lsr 1) (i + 1)
          end
        in
        bits w (k * word_bits))
      s
end
