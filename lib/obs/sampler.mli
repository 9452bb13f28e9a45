(** Periodic progress sampling: a time-series of the global registry's
    live values, driven by cheap ticks from instrumented hot paths.

    Long-running phases call {!tick} at natural unit-of-work boundaries
    (a solver conflict, a checked chain, a streamed trace event).  A tick
    is a counter bump; only every 64th tick reads the clock, and a sample
    is taken when the configured interval has elapsed.  Each sample
    snapshots every counter and gauge in {!Metrics.global} — live
    clauses, arena bytes, encoder buffer occupancy — plus a derived
    [solver.conflicts_per_s] rate, and optionally prints a one-line
    heartbeat to stderr.

    Sampling state is unsynchronised by design: a lost or duplicated
    sample only perturbs the time-series, never the checked artifacts.
    With no interval configured, {!tick} is a no-op beyond its counter
    bump. *)

(** [configure ~interval ~heartbeat ()] arms the sampler: a sample is
    taken roughly every [interval] seconds (non-positive disables);
    [heartbeat] additionally prints each sample to stderr. *)
val configure : interval:float -> heartbeat:bool -> unit -> unit

(** [disarm ()] stops sampling and clears the configuration (recorded
    samples are kept until {!reset}). *)
val disarm : unit -> unit

(** [tick ()] notes one unit of work.  Call only under [Ctl.on ()]. *)
val tick : unit -> unit

(** [sample_now ()] forces a sample, bypassing the interval check. *)
val sample_now : unit -> unit

(** {2 Stall watchdog}

    Liveness, defined as tick advancement: a real-interval timer
    ([setitimer]/[SIGALRM]) polls the tick counter, and [strikes]
    consecutive polls with no new ticks count as a stall — a heartbeat
    line goes to stderr and [on_stall] runs (the CLI dumps the
    {!Journal} there).  The watchdog fires once per stall episode;
    resumed progress re-arms it.  This is the liveness primitive the
    future [rescheck serve] daemon reuses per job. *)

(** [arm_watchdog ?strikes ~interval ~on_stall ()] starts the watchdog
    polling every [interval] seconds (non-positive is a no-op);
    [strikes] defaults to 2. *)
val arm_watchdog :
  ?strikes:int -> interval:float -> on_stall:(unit -> unit) -> unit -> unit

val disarm_watchdog : unit -> unit

(** [poll ()] is one watchdog inspection — exactly what the timer signal
    runs.  Exposed so tests can drive stall detection deterministically
    without timers or sleeps. *)
val poll : unit -> unit

(** [stalls ()] is how many stall episodes have fired since process
    start. *)
val stalls : unit -> int

(** [samples ()] is the recorded time-series, oldest first. *)
val samples : unit -> (float * (string * float) list) list

val reset : unit -> unit

(** [to_json ()] renders the series as
    [[{"t":seconds,"values":{...}},...]]. *)
val to_json : unit -> string
