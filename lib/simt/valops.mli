(** Arithmetic on runtime values.

    Operations are strictly typed at runtime: integer ops require [I],
    float ops require [F]. The front end's type checker guarantees this
    for lowered programs; hand-built IR that violates it fails fast here. *)

exception Type_error of string

(** [binop op a b].
    @raise Type_error on operand kind mismatch.
    @raise Division_by_zero for integer [Div]/[Rem] by zero. *)
val binop : Ir.Types.binop -> Ir.Types.value -> Ir.Types.value -> Ir.Types.value

(** [unop op a]. @raise Type_error on operand kind mismatch. *)
val unop : Ir.Types.unop -> Ir.Types.value -> Ir.Types.value

(** [truthy v] — branch interpretation: [I 0] is false, any other value
    (including floats) is true iff nonzero. *)
val truthy : Ir.Types.value -> bool

(** [to_int v] / [to_float v] — strict projections.
    @raise Type_error on mismatch. *)
val to_int : Ir.Types.value -> int

val to_float : Ir.Types.value -> float
