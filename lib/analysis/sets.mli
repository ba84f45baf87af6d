(** Shared set/map instantiations over small integer ids (blocks,
    registers, barriers). *)

module Int_set : Set.S with type elt = int
module Int_map : Map.S with type key = int

(** Renders as [{1, 2, 3}]. *)
val pp_int_set : Format.formatter -> Int_set.t -> unit

(** Mutable fixed-width bitsets over [0, n), one machine word per
    {!Sys.int_size} members. Binary operations require both operands to
    come from [create] with the same [n]. *)
module Bitset : sig
  type t

  (** [create n] — the empty set over [0, n). *)
  val create : int -> t

  val copy : t -> t

  (** Removes every member. *)
  val clear : t -> unit

  val mem : t -> int -> bool
  val add : t -> int -> unit
  val remove : t -> int -> unit

  (** [union_into ~into s] adds every member of [s] to [into]. *)
  val union_into : into:t -> t -> unit

  val equal : t -> t -> bool
  val disjoint : t -> t -> bool

  (** [subset a b] — is every member of [a] in [b]? *)
  val subset : t -> t -> bool

  (** Members in increasing order. *)
  val iter : (int -> unit) -> t -> unit
end
