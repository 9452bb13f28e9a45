(** The level-0 assignment recorded by the solver's third trace
    modification (§3.1): for every variable assigned at decision level 0,
    its value, its antecedent clause, and its chronological position.
    This is the data Proposition 3's empty-clause construction consumes:
    resolving in reverse chronological order guarantees no variable is
    chosen twice and the chain terminates within [n] steps. *)

type t

(** [create ()] is an empty record set. *)
val create : unit -> t

(** [add t ~var ~value ~ante] registers the next chronological record;
    its order is the number of records before it.
    @raise Diagnostics.Check_failed with [Level0_duplicate_var] if [var]
    was already recorded. *)
val add : t -> var:Sat.Lit.var -> value:bool -> ante:int -> unit

val count : t -> int
val mem : t -> Sat.Lit.var -> bool

(** [var_at t i] is the variable of the record with order [i]: walking
    [i] from [count t - 1] down to [0] visits the records in reverse
    chronological order without a lookup per variable.
    @raise Invalid_argument unless [0 <= i < count t]. *)
val var_at : t -> int -> Sat.Lit.var

(** [value t v] / [ante t v] / [order t v].
    @raise Diagnostics.Check_failed with [Level0_var_unrecorded] when [v]
    has no record. *)
val value : t -> Sat.Lit.var -> bool
val ante : t -> Sat.Lit.var -> int
val order : t -> Sat.Lit.var -> int

(** [lit_false t l] holds when [l] evaluates to false under the recorded
    values; unrecorded variables are not false. *)
val lit_false : t -> Sat.Lit.t -> bool

(** [check_antecedent t ~var built] verifies that clause [built] really was
    the unit clause that implied [var] (the paper's antecedent check):
    it must contain the literal of [var] with the recorded value, and
    every other literal must be over an earlier-recorded variable and be
    falsified.  Returns the reason string on failure. *)
val check_antecedent : t -> var:Sat.Lit.var -> Sat.Clause.t -> string option
