(** Plain-text table rendering for the experiment reports — each bench
    prints rows shaped like the paper's Tables 1–3. *)

type align = Left | Right

(** [render ~headers ?align rows] lays out a column-aligned table with a
    header rule.  Missing cells render empty; [align] defaults to [Right]
    for every column (numeric tables). *)
val render : headers:string list -> ?align:align list -> string list list -> string

(** Number formatting helpers used across the tables. *)
val fmt_float : ?decimals:int -> float -> string
val fmt_pct : float -> string

(** [print t] writes a rendered table to stdout followed by a newline. *)
val print : string -> unit
