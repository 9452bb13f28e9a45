(** The metrics registry: named counters, gauges and log-scale
    histograms.

    Handles are obtained once (typically at module initialisation — the
    registry exists whether or not telemetry is recording) and updated
    directly, so the hot path never touches the name table.  Updates are
    unsynchronised: a metric handle must have a single writer at a time.

    Instrumentation sites are expected to guard updates with
    [Ctl.on ()]; the update functions themselves do not check, so tests
    can drive the registry directly. *)

type t

(** {2 Metric handles} *)

type counter
type gauge
type histogram

module Counter : sig
  (** Monotone event counts. *)

  val incr : counter -> int -> unit
  val get : counter -> int
end

module Gauge : sig
  (** Instantaneous levels; [max] tracks the high-water mark across all
      [set]s since the last reset. *)

  val set : gauge -> float -> unit
  val get : gauge -> float
  val max_value : gauge -> float
end

module Histogram : sig
  (** Log-scale (base-2) bucketed distributions of non-negative integer
      observations: bucket [0] holds values [<= 0] and bucket [k >= 1]
      holds values in [[2^(k-1), 2^k)]. *)

  val observe : histogram -> int -> unit
  val count : histogram -> int
  val sum : histogram -> float

  (** [bucket_index v] is the bucket [observe] files [v] under. *)
  val bucket_index : int -> int

  (** [buckets h] is the non-empty buckets as [(index, count)] pairs in
      index order. *)
  val buckets : histogram -> (int * int) list
end

(** {2 Registries} *)

val create : unit -> t

(** The process-wide registry every instrumented subsystem records
    into.  One registry per run profile. *)
val global : t

(** [counter t name] is the counter registered under [name], created on
    first use.  @raise Invalid_argument if [name] is already registered
    as a different metric kind.  Same contract for [gauge] and
    [histogram]. *)
val counter : t -> string -> counter

val gauge : t -> string -> gauge
val histogram : t -> string -> histogram

(** [reset t] zeroes every registered metric.  Handles stay valid — the
    name table is kept, only values are cleared — so module-cached
    handles survive a reset between runs. *)
val reset : t -> unit

(** {2 Export} *)

(** [snapshot t] is every metric's current scalar value — counters as
    their count, gauges as their level — sorted by name.  Histograms
    contribute ["<name>.count"].  This feeds the progress sampler. *)
val snapshot : t -> (string * float) list

(** [to_json t] renders the registry sorted by name, with stable field
    order:
    [{"counters":{...},"gauges":{"n":{"value":v,"max":m}},
      "histograms":{"n":{"count":c,"sum":s,"buckets":[[k,n],...]}}}] *)
val to_json : t -> string

(** [to_prom t] renders the registry in the Prometheus text exposition
    format, sorted by name.  Metric names are prefixed with [rescheck_]
    and separators folded to underscores; gauges export a companion
    [<name>_max] high-water series; log2 histograms become cumulative
    [le]-bucketed Prometheus histograms. *)
val to_prom : t -> string

(** JSON helpers shared by the other [Obs] exporters: [json_escape] is a
    string-body escaper, [json_float] prints integral values exactly and
    everything else as [%.6g]. *)
val json_escape : string -> string

val json_float : float -> string
