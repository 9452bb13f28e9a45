(** The running resolvent of a resolution chain.

    {!Kernel.chain} folds a learned clause's source list left to right,
    and {!Kernel.final_chain} resolves the final conflict down to the
    empty clause; both keep their running resolvent here.  It is wide
    (tens to hundreds of literals) while each operand adds a handful.
    The accumulator keeps it as a 2-bit phase mark per variable (bit 1:
    positive phase present, bit 2: negative) plus a stack of the
    variables it has touched, so a step reads only the new operand: one
    walk finds the crosswise variables, a second marks the operand's
    literals in and counts the merges.  Neither walk depends on the
    operand's literal order, so nothing is sorted on the way: the
    resolvent is written out in one walk of the touched stack.

    Operands are read in place from a clause-store arena region, without
    a call per literal; the literal encoding is {!Sat.Lit}'s
    ([var * 2 + sign]).  An operand is duplicate-free, in any order but
    one: its last literal is over its largest variable, which sizes the
    marks.  Clauses the store holds keep that order, and {!blit} writes
    it.  An accumulator is single-owner state: a kernel keeps two, one
    for {!Kernel.chain} and one for {!Kernel.final_chain}, whose [miss]
    may itself chain. *)

type arena = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t

(** [create ()] is an empty accumulator.  Its marks start small and
    grow to the largest variable an operand names, so its size follows
    the clauses resolved, not a header's declared variable count. *)
val create : unit -> t

(** [start t arena off n] resets the accumulator (whatever an earlier,
    possibly failed, chain left in it) and seeds it with the [n]
    literals of the operand at [arena.{off ..}]. *)
val start : t -> arena -> int -> int -> unit

(** [step t ~context ~c1_id ~c2_id arena off n] resolves the running
    resolvent with the operand of [n] literals at [arena.{off ..}] and
    returns the pivot.  The side condition is the paper's: exactly one
    variable in opposite phases.  The clash walk counts a clashing
    literal when its variable differs from the last one it counted, so
    the count is 1 exactly when one variable clashes, however the
    operand orders its literals: a second clashing variable always adds
    to it.
    @raise Diagnostics.Check_failed with [No_clash] ([c1] the running
    resolvent and [c2] the operand, both sorted) or [Multiple_clash]
    (variables ascending), leaving the running resolvent unchanged. *)
val step :
  t ->
  context:string ->
  c1_id:int ->
  c2_id:int ->
  arena ->
  int ->
  int ->
  Sat.Lit.var

(** [length t] is the running resolvent's literal count. *)
val length : t -> int

(** [merges t] counts the literals the successful {!step}s since
    {!create} found in both operands (the pivot's excluded) and so
    emitted once. *)
val merges : t -> int

(** [mem t v] holds when the running resolvent has a literal over
    variable [v], in either phase: one mark read, for any int [v].
    {!Kernel.final_chain} walks the level-0 records down from the last
    and takes the first variable [mem] finds as its pivot. *)
val mem : t -> Sat.Lit.var -> bool

(** [blit t dst off] writes the running resolvent into
    [dst.{off .. off + length t - 1}], in one walk of the touched stack
    that also drops the variables resolved away from it, and returns
    [length t].  The order is the variables' first touch, except that
    the largest variable's literal is swapped to the end, where {!start}
    and {!step} look for it; nothing is sorted.
    @raise Invalid_argument when [dst] is too small. *)
val blit : t -> arena -> int -> int

(** [sort a n] sorts [a.(0 .. n-1)] ascending in place: the one int sort
    of the proof core, monomorphic (no comparison closure) and
    O(n log n) in the worst case. *)
val sort : int array -> int -> unit
