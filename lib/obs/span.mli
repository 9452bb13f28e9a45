(** Monotonic-clock spans and the Chrome trace-event exporter.

    A span brackets one phase of work (solve, a checker pass, an
    encoder flush) with enter/leave timestamps from
    {!Ctl}'s monotone clock.  Completed spans accumulate in a
    process-wide timeline and export as a JSON array of Chrome
    "complete" ([ph = "X"]) events, which loads directly in
    [chrome://tracing] and Perfetto.

    Span naming convention (see DESIGN.md "Observability"):
    [<subsystem>.<phase>], with the category carrying the variant — e.g.
    [check.pass_one] with category [bf] vs [df].  The exporter sorts by
    start timestamp, so timelines are stable and the CI monotonicity
    check holds.

    When telemetry is off, {!enter} returns a static dummy and {!scope}
    tail-calls its body: one branch, no allocation. *)

type span

(** [enter ?cat name] opens a span.  Returns a no-op token when
    telemetry is off. *)
val enter : ?cat:string -> string -> span

(** [leave s] closes the span and records the event.  No-op on the dummy
    token. *)
val leave : span -> unit

(** [scope ?cat name f] runs [f ()] inside a span; the span is
    recorded even when [f] raises. *)
val scope : ?cat:string -> string -> (unit -> 'a) -> 'a

(** [count ()] is the number of recorded events. *)
val count : unit -> int

(** [reset ()] drops every recorded event. *)
val reset : unit -> unit

(** [to_trace_json ()] renders the timeline as a Chrome trace-event JSON
    array, one event per line, sorted by start timestamp, each with the
    stable field order [name, cat, ph, ts, dur, pid, tid].
    Timestamps and durations are microseconds. *)
val to_trace_json : unit -> string

(** [aggregate ()] is per-(name, cat) totals [(name, cat, count,
    total_us)] sorted by name — the summary the run profile embeds. *)
val aggregate : unit -> (string * string * int * float) list
