(** Arena-backed clause store shared by every checker.

    Clauses live as packed, duplicate-free literal runs inside one
    growable [Bigarray] integer region and are addressed by integer
    handles, so the hot resolution path touches a single flat buffer
    instead of per-clause heap arrays.  Each clause carries a reference
    count; releasing the last reference returns its slot to a size-binned
    freelist for reuse.

    The store is also the checkers' one simulated-memory account, the
    paper's Table 2 memory measure: every allocation is charged at the
    historical checker rate of [literals + 3] words per clause, and a
    checker charges what else it holds (trace residency, resolve-source
    lists) with {!charge}/{!credit}.  The account keeps the peak and,
    under a limit, raises {!Out_of_memory_simulated} — the paper's
    starred memory-out rows.  Separately, the store tracks live/peak
    clause counts and arena-resident words for the report. *)

type t

(** A clause handle: the clause's offset in the arena.  Valid until the
    last reference is released. *)
type handle = int

(** Raised (debug mode only) when a clause-level accessor or {!retain}
    touches a handle whose last reference was already released. *)
exception Use_after_free of handle

(** Raised (debug mode only) when {!release} is called on a dead handle —
    the slot may already belong to the freelist or to a new clause. *)
exception Refcount_underflow of handle

(** Raised when a charge would push the simulated account past its
    limit: [wanted] is the total the charge asked for. *)
exception Out_of_memory_simulated of { limit_words : int; wanted : int }

(** [set_debug true] arms the lifetime guards above on every store.  Off
    by default: the checks cost one flag read per clause operation on the
    resolution hot path.  The test suite runs with them armed. *)
val set_debug : bool -> unit

val debug_enabled : unit -> bool

(** [create ?mem_limit ?reserve ()] is an empty store whose simulated
    account holds at most [mem_limit] words (default: unlimited).
    [reserve] (words, default 8 Mi) sizes the arena's up-front virtual
    reservation: pages are only committed as the bump pointer reaches
    them, and if the reservation itself does not fit (tight [ulimit -v])
    it halves until it does, after which the old doubling grower covers
    any overflow.  A store that stays within its reservation never
    relocates, so growth (a full copy of the arena) stays a cold path.
    @raise Invalid_argument when [mem_limit < 1]. *)
val create : ?mem_limit:int -> ?reserve:int -> unit -> t

(** {2 The simulated account} *)

(** [charge db words] adds [words] to the account.
    @raise Out_of_memory_simulated past the limit, leaving the account
    unchanged. *)
val charge : t -> int -> unit

(** [credit db words] takes [words] off the account, never below zero. *)
val credit : t -> int -> unit

(** [mem_words db] / [peak_mem_words db]: words currently / maximally
    charged — the report's [peak_mem_words]. *)
val mem_words : t -> int
val peak_mem_words : t -> int

(** [reserved_words db] is the arena's current capacity in words (also
    exported as the [arena.reserved_bytes] gauge, at 8 bytes per word).
    Distinct from {!live_words}/{!peak_words}, which keep their
    historical meaning of clause-resident words — the reservation is
    address space, not clause payload, and is never double-counted. *)
val reserved_words : t -> int

(** [alloc db lits] stores [lits] sorted and duplicate-free, with an
    initial reference count of 1, and charges the account.
    @raise Out_of_memory_simulated past the limit, leaving the store
    unchanged. *)
val alloc : t -> Sat.Lit.t array -> handle

(** [alloc_slot db n] is {!alloc} of a clause of [n] literals that the
    caller writes itself, at {!arena} indices [offset h ..] read after
    this call (it may relocate the arena): duplicate-free, with the
    largest variable's literal last ({!Resolvent.blit} writes a chain's
    resolvent so).  No other order is required: the store never sorts
    what it keeps. *)
val alloc_slot : t -> int -> handle

(** [size db h] is the clause's literal count. *)
val size : t -> handle -> int

(** [lit db h i] is the [i]-th literal in the order the clause is
    stored. *)
val lit : t -> handle -> int -> Sat.Lit.t

(** [lits db h] copies the clause out as a literal array, sorted: the
    order every report, diagnostic and conversion shows. *)
val lits : t -> handle -> Sat.Lit.t array

(** {2 In-place operand access}

    The resolution loops ({!Kernel.chain}, {!Resolvent.step}) read a
    clause straight from the arena region, without a call: clause [h]
    holds [arena.{h}] literals ({!size} without its debug guard) at
    [arena] indices [offset h ..], that is [h + header_words ..].  An
    allocation (an original stored on first use, say) may grow the arena
    and relocate it, so read {!arena} after the operand's last lookup. *)

type arena = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

val arena : t -> arena
val header_words : int
val offset : handle -> int

(** [rebook db ~prev n] / [unbook db n] account for the clauses of a
    resolution chain that are never written to the arena, its
    intermediate resolvents.  [rebook] charges one of [n] literals and
    counts it live and resident exactly as {!alloc} would
    ([Out_of_memory_simulated] included, leaving the store unchanged),
    then takes the one of [prev] literals it replaces back off ([prev <
    0]: none) as that clause's last {!release} would; [unbook] takes the
    last one off. *)
val rebook : t -> prev:int -> int -> unit
val unbook : t -> int -> unit

(** [retain db h] adds a reference. *)
val retain : t -> handle -> unit

(** [release db h] drops a reference; at zero the clause's words are
    credited back to the account and the slot is recycled. *)
val release : t -> handle -> unit

val refcount : t -> handle -> int

(** Counters threaded into {!Report}. *)

val live_clauses : t -> int
val peak_live_clauses : t -> int
val clauses_allocated : t -> int

(** [live_words db] / [peak_words db]: words currently / maximally
    resident in the arena (headers included, freelist slack excluded). *)
val live_words : t -> int
val peak_words : t -> int
