(** Tables keyed by clause id, with no hashing on the common path.

    A table answers exactly as an [(int, 'a) Hashtbl.t] under [replace]
    (one binding per id) does, for every int.  Ids [1 .. capacity - 1]
    live in a dense array: a lookup is one bounds test and one array
    read.  Every other id (zero, negative, or past the dense part) lives
    in an overflow [Hashtbl].

    The dense part grows with the input, never with an id's value.
    Tables share a {!range}, the largest id their dense parts may reach;
    its owner widens it as it reads records.  A table grows to cover an
    id only when the id is within the range, so its dense part has at
    most the range's limit plus one slots (one word and one byte each).
    The proof kernel ([Proof.Kernel.id_range]) and the DAG analysis
    ([Analysis.Dag]) both start their range at [num_original] and widen
    it by 2 per learned record they read, so their id tables take
    O(num_original + records read) memory whatever ids the records name,
    and a solver's sequential ids never reach the overflow.

    Single-writer: concurrent readers are safe only while no one
    writes. *)

type range

(** [range limit] lets dense parts cover ids [1 .. limit]. *)
val range : int -> range

(** [widen r k] raises [r]'s limit by [k]. *)
val widen : range -> int -> unit

type 'a t

(** [create r] is an empty table whose dense part is bounded by [r]. *)
val create : range -> 'a t

val replace : 'a t -> int -> 'a -> unit

(** @raise Not_found when [id] is unbound. *)
val find : 'a t -> int -> 'a

val find_opt : 'a t -> int -> 'a option
val mem : 'a t -> int -> bool

(** [remove t id] drops [id]'s binding; a no-op when it has none. *)
val remove : 'a t -> int -> unit

(** [keys t] is every bound id, ascending. *)
val keys : 'a t -> int list

(** {2 Introspection (tests)} *)

(** [capacity t] is the dense part's slot count, at most the range's
    limit plus one. *)
val capacity : 'a t -> int

(** [overflow_stores ()] counts the bindings any table has stored in its
    overflow since the program started. *)
val overflow_stores : unit -> int
