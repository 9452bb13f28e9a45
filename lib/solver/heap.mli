(** Binary max-heap over variables keyed by a score array, with an index
    side-array so that [decrease]/[increase] after an activity bump is
    O(log n).  This is the decision-variable order used by the VSIDS
    heuristic. *)

type t

(** [create n ~score] covers variables [1 .. n]; [score.(v)] is read at
    comparison time, so bumping activities requires notifying the heap via
    [update].  [score] must have at least [n + 1] slots. *)
val create : int -> score:float array -> t

val size : t -> int
val is_empty : t -> bool
val mem : t -> int -> bool

(** [insert h v] adds variable [v]; no-op if already present. *)
val insert : t -> int -> unit

(** [pop_max h] removes and returns the variable with the highest score.
    @raise Not_found when empty. *)
val pop_max : t -> int

(** [update h v] restores heap order after [score.(v)] changed; no-op when
    [v] is not in the heap. *)
val update : t -> int -> unit
