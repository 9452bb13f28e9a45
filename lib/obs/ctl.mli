(** The telemetry master switch and the shared span/sample clock.

    Everything in [Obs] is built around one invariant: when telemetry is
    disabled (the default), every instrumentation site in the codebase
    reduces to a single mutable-bool load and a predictable branch — the
    static no-op backend.  Instrumented code is expected to guard its
    recording with [if Ctl.on () then ...]; [on] is small enough that the
    compiler inlines it cross-module, so the disabled path allocates
    nothing and calls nothing.  The [bench overhead] probe pins this.

    The clock is wall time relative to [enable] (or process start),
    clamped to be non-decreasing so exported span timestamps are monotone
    even if the system clock steps backwards. *)

(** [on ()] is whether telemetry is currently recording. *)
val on : unit -> bool

(** [enable ()] turns recording on and re-bases the clock at now. *)
val enable : unit -> unit

(** [disable ()] turns recording off.  Recorded data stays readable. *)
val disable : unit -> unit

(** [now_s ()] is seconds since the clock base, non-decreasing. *)
val now_s : unit -> float

(** [now_us ()] is microseconds since the clock base, non-decreasing —
    the unit Chrome trace events use. *)
val now_us : unit -> float

(** [time f] runs [f ()] and returns its result with the elapsed seconds
    on this clock — the one clock for phase and bench timings.  The
    interval must not straddle {!enable}, which re-bases the clock. *)
val time : (unit -> 'a) -> 'a * float
