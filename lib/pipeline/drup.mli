(** Conversion of resolve-source traces into DRUP derivations.

    The paper's trace records the {e sources} of every learned clause; a
    DRUP file records the {e literals} of every learned clause and lets
    the checker re-derive them by reverse unit propagation
    ({!Checker.Rup}).  Rebuilding each learned clause from its sources —
    exactly what the breadth-first checker does — and writing the
    literals out therefore converts one proof format into the other,
    connecting this paper's format to what drat-trim consumes today. *)

(** [of_trace f source] is the DRUP derivation: every learned clause's
    literals in trace order, terminated by the empty clause.  The trace
    is validated as it is converted. *)
val of_trace :
  Sat.Cnf.t ->
  Trace.Reader.source ->
  (Sat.Clause.t list, Proof.Diagnostics.failure) result

(** [to_string derivation] renders standard DRUP text: one clause per
    line, DIMACS literals, 0-terminated (the final "0" line is the empty
    clause). *)
val to_string : Sat.Clause.t list -> string

(** [parse s] reads DRUP text back (used by tests and the CLI).
    @raise Failure on malformed input. *)
val parse : string -> Sat.Clause.t list
