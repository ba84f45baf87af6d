(** Pre-decoded threaded code: the interpreter's execution unit.

    {!Linear.t} is still a tree of boxed ADTs — every issue of the
    interpreter's hot loop used to pattern-match [Linear.linst] and then
    [Types.inst], and match each [Types.operand] per lane. [decode]
    lowers a linearized program {e once}, at compile time, into a flat
    struct-of-arrays form:

    - one small {e opcode int} per slot ({!op_bin} .. {!op_exit}), so the
      issue loop dispatches through a single dense jump table;
    - up to three {e integer fields} per slot ([a]/[b]/[c]): destination
      registers, encoded operands, barrier slots, thresholds and branch
      targets — all resolved to absolute indices at decode time;
    - a {e latency class} per slot, so static issue latencies become one
      table lookup instead of an [is_float_op]/[is_special_unop] walk;
    - side tables for the rare big payloads: the immediate-value pool
      [vals], the per-slot binop/unop sub-opcodes, and the call
      descriptors (callee entry pc, frame size, flattened argument
      operands, return register).

    The interpreter ({!Simt.Interp.run}) matches on the opcode column in
    one jump table whose literal arms mirror the [op_*] values below; a
    [bin] or [un] slot runs one lane loop that dispatches on its
    sub-opcode's class (int to int, float to float, float to bool), with
    {!Simt.Valops} as the fallback on an operand-kind mismatch. It
    splits [vals] into unboxed int and float columns once per run, so
    this type stays a plain, marshal-safe compile artifact.

    The result is immutable after [decode] and references its source
    {!Linear.t} only for metadata (locations, function table, memory
    layout) — never on the per-issue path. It is also the natural
    cacheable compile artifact: a content-addressed compile cache
    (ROADMAP's [srserved]) can key on the source digest and hand every
    subsequent launch the same decoded program.

    {2 Operand encoding}

    An encoded operand is a non-negative int: bit 0 tags the kind, the
    remaining bits are an index. [(r lsl 1)] reads virtual register [r]
    of the current frame; [((i lsl 1) lor 1)] reads slot [i] of the
    [vals] immediate pool. Fields that hold an {e optional} operand
    (a [ret] value) use [-1] for "none". *)

(** {2 Opcodes}

    Dense, starting at 0, so an integer [match] in the interpreter
    compiles to a flat jump table. [Join] and [Rejoin] keep distinct
    opcodes (their provenance matters to dumps and tests) but share
    semantics. *)

val op_bin : int (* 0   a=dst  b=src1  c=src2  (+ bop table) *)

val op_un : int (* 1   a=dst  b=src            (+ uop table) *)

val op_mov : int (* 2   a=dst  b=src *)

val op_load : int (* 3   a=dst  b=addr *)

val op_store : int (* 4   a=addr b=value *)

val op_tid : int (* 5   a=dst *)

val op_lane : int (* 6   a=dst *)

val op_nthreads : int (* 7   a=dst *)

val op_rand : int (* 8   a=dst *)

val op_randint : int (* 9   a=dst  b=bound *)

val op_join : int (* 10  a=slot *)

val op_rejoin : int (* 11  a=slot *)

val op_wait : int (* 12  a=slot *)

val op_wait_threshold : int (* 13  a=slot  b=threshold *)

val op_cancel : int (* 14  a=slot *)

val op_arrived : int (* 15  a=dst  b=slot *)

val op_call : int (* 16  a=index into [calls] *)

val op_ret : int (* 17  a=encoded operand or -1 *)

val op_br : int (* 18  a=cond  b=absolute target pc *)

val op_jump : int (* 19  a=absolute target pc *)

val op_exit : int (* 20 *)

val n_opcodes : int

val opcode_name : int -> string

(** {2 Latency classes}

    Which {!Simt.Config.latencies} field a slot's static issue latency
    comes from. Memory ops carry {!lc_mem}: their cost is dynamic
    (coalescing), the class is informational. *)

val lc_alu : int

val lc_float : int

val lc_special : int

val lc_branch : int

val lc_barrier : int

val lc_call : int

val lc_rand : int

val lc_mem : int

(** One [Lcall] site, fully resolved: [centry] is the callee's absolute
    entry pc, [cn_regs] the callee frame size (already [max 1]),
    [cargs] the encoded argument operands in order, [cret] the caller
    register receiving the return value ([-1] for none). [ccallee] is
    kept for dumps only. *)
type call = {
  centry : int;
  cn_regs : int;
  cargs : int array;
  cret : int;
  ccallee : string;
}

type t = {
  linear : Linear.t;  (** provenance: locations, functions, memory layout *)
  op : int array;  (** opcode per slot *)
  a : int array;  (** field 1 (see opcode table) *)
  b : int array;  (** field 2 *)
  c : int array;  (** field 3 *)
  lclass : int array;  (** latency class per slot *)
  bop : Types.binop array;  (** sub-opcode for {!op_bin} slots *)
  uop : Types.unop array;  (** sub-opcode for {!op_un} slots *)
  vals : Types.value array;  (** immediate pool *)
  calls : call array;  (** call descriptors, indexed by field [a] *)
  bslot : int array;
      (** per-pc profile slot: [-1] unless the pc starts a basic block,
          else an index into [bfunc]/[bblock] — the interpreter
          accumulates per-block lane counts in a flat array keyed by
          these slots *)
  bfunc : string array;  (** slot -> enclosing function name *)
  bblock : int array;  (** slot -> basic-block id *)
}

(** Encoded-operand accessors (tests, dumps). *)

val enc_is_imm : int -> bool

val enc_index : int -> int

(** [decode linear] lowers a linearized program. Total for every program
    {!Linear.linearize} can produce.
    @raise Invalid_argument on a raw [Call] instruction (the linearizer
    never emits one). *)
val decode : Linear.t -> t

(** Human-readable listing of the descriptor array — opcode, decoded
    fields, resolved targets, immediate-pool contents — so decode bugs
    are diagnosable without running the interpreter ([srcc
    --emit-decoded]). *)
val pp : Format.formatter -> t -> unit
