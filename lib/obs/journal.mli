(** The flight recorder: a bounded ring buffer of structured
    per-subsystem events, kept cheap enough to compile into every build.

    Where {!Metrics} aggregates (how many restarts?) and {!Span} times
    (how long did pass two take?), the journal remembers {e what
    happened, in order}: the last N notable events — solver restarts and
    learned-DB reductions, checker window spills and reloads, parser
    slow-path bails, arena reservation fallbacks and growth — so a
    refusal, a stall or a crash can explain itself instead of leaving a
    bare exit code.

    The discipline mirrors {!Ctl}: when the journal is disarmed (the
    default), every recording site reduces to one mutable-bool load and
    a predictable branch — sites guard with [if Journal.on () then
    Journal.record ...], and [bench overhead] models the disabled-guard
    cost next to the metrics guard.  Recording takes no lock by design:
    a lost entry only perturbs the flight record, never a checked
    artifact.

    Dumps are {e deterministic}: an entry is a sequence number, a
    subsystem, an event name and integer arguments — no wall-clock
    timestamps — so the same run produces a byte-identical journal,
    which is what lets tests and CI diff dumps across runs.  Triggers:
    the [--journal[=N]] flag dumps at process exit, [SIGUSR1] dumps
    immediately to stderr, the {!Sampler} watchdog dumps on a detected
    stall, and a positioned refusal embeds the tail in its
    [rescheck-refusal/1] report. *)

type entry = {
  seq : int;  (** 0-based position in the whole recording, pre-wrap *)
  sub : string;  (** subsystem, e.g. ["solver"], ["window"], ["arena"] *)
  event : string;  (** event name within the subsystem, e.g. ["restart"] *)
  args : (string * int) list;  (** small integer payload, field order kept *)
}

(** [on ()] is whether the journal is currently recording.  The guard
    every instrumentation site uses; small enough to inline. *)
val on : unit -> bool

(** [arm ?capacity ()] starts recording into a fresh ring of [capacity]
    entries (default 1024, clamped to at least 1).  Re-arming resets the
    ring and the sequence counter. *)
val arm : ?capacity:int -> unit -> unit

(** [disarm ()] stops recording; the recorded entries stay readable
    until the next [arm]. *)
val disarm : unit -> unit

(** [record ~sub event args] appends one entry, overwriting the oldest
    when the ring is full.  Call only under [on ()]. *)
val record : sub:string -> string -> (string * int) list -> unit

(** [recorded ()] is the total number of entries ever recorded since the
    last [arm] — entries beyond the capacity have been overwritten, so
    [recorded () - List.length (entries ())] is the number lost to
    wraparound. *)
val recorded : unit -> int

val capacity : unit -> int

(** [entries ()] is the ring's current contents, oldest first. *)
val entries : unit -> entry list

(** [reset ()] clears the ring and sequence counter without changing
    the armed state. *)
val reset : unit -> unit

(** [to_json ()] renders the flight record deterministically:
    [{"schema":"rescheck-journal/1","capacity":N,"recorded":N,
      "dropped":N,"entries":[{"seq":..,"sub":..,"event":..,
      "args":{..}},...]}]. *)
val to_json : unit -> string

(** [dump oc] writes [to_json ()] followed by a newline. *)
val dump : out_channel -> unit

(** [install_sigusr1 ()] installs a [SIGUSR1] handler that dumps the
    journal to stderr — live introspection of a wedged or long run.
    Best-effort: platforms without the signal are a no-op. *)
val install_sigusr1 : unit -> unit
