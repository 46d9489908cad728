(** Observability: counters, histograms, hierarchical span timers, bounded
    event tracing and a structured decision journal.

    A process-wide registry of named probes with text and JSON exporters.
    Everything is safe to use from {!Domain} pool workers: counter and
    histogram updates are single atomic operations, span bookkeeping takes a
    mutex only on span entry/exit (never inside the timed region), and trace
    and journal events go to a private per-domain buffer with no locking at
    all.

    {b Disabled is free.} The whole subsystem sits behind one global state
    word with three independent bits — metrics ({!enable}), event tracing
    ({!Trace.enable}) and the decision journal ({!Journal.start}) — off by
    default. A disabled probe is a single atomic load and a predictable
    branch — a few nanoseconds — so probes may sit in hot loops. Probes
    never influence the computation they observe: enabling or disabling
    observability cannot change any result bit.

    {b Reset vs. journal.} {!reset} clears {e recorded data} — counters,
    histograms, the span tree, trace buffers, buffered journal events and
    the runtime sampler's baselines — but does not close an open journal:
    the destination file and producing command set by {!Journal.start}
    survive, and only {!Journal.finish} writes the file. A [reset] between
    [start] and [finish] therefore yields a journal that covers just the
    post-reset window.

    {b Clock caveat.} All timing uses {!now}, which is wall-clock time
    ([Unix.gettimeofday]) — the container has no monotonic-clock dependency.
    Wall time can step (NTP, suspend), so every consumer of the clock in
    this library clamps computed durations to [>= 0]; absolute timestamps
    may still jump and are only "monotonic-ish". Instrumented code should
    call {!now} rather than reading its own clock, so a future switch to a
    monotonic source is one-line.

    {b Probe naming convention} (see DESIGN.md §9): lowercase
    [subsystem.metric] with dots as separators, e.g. [fsim.patterns],
    [engine.cut_size], [pool.domain3.busy_us]. Spans use the same style
    ([fsim.batch], [engine.pass], [bench.table6]). Counter names ending in
    [_us] hold microseconds. *)

val enabled : unit -> bool
(** Whether the metrics bit (counters, histograms, span tree) is on. *)

val enable : unit -> unit
(** Switch metrics collection on. Independent of {!Trace.enable} and
    {!Journal.start}. *)

val disable : unit -> unit
(** Switch metrics collection off. Recorded data is kept (see {!reset}). *)

val reset : unit -> unit
(** Zero every counter and histogram, drop the recorded span tree, discard
    all trace and journal buffers and re-arm the runtime sampler's GC/RSS
    baselines ({!Runtime.reset}). Registered probe definitions survive
    (names stay in the registry), and an open journal stays open — see the
    header note on reset vs. journal. *)

val now : unit -> float
(** Wall-clock seconds — the single clock behind span timing, trace events
    and pool busy accounting, exposed so instrumented code does not need
    its own timing dependency. {b Not monotonic}: see the clock caveat
    above; clamp any duration computed from two reads to [>= 0]. *)

module Counter : sig
  type t

  val make : ?help:string -> string -> t
  (** Register (or retrieve — [make] is idempotent per name) a monotonic
      counter. Typically called once at module initialisation. *)

  val incr : t -> unit
  (** Add one. A single atomic increment when metrics are on; a single
      atomic load when off. *)

  val add : t -> int -> unit
  (** Add [n] (callers pass [n >= 0]; counters are monotonic). *)

  val value : t -> int
  (** Current value. Reads are always live, even with metrics off. *)

  val name : t -> string
  (** The registered probe name, e.g. ["fsim.patterns"]. *)
end

module Histogram : sig
  type t

  val make : ?help:string -> string -> t
  (** Register (or retrieve) a histogram with power-of-two buckets:
      bucket 0 counts observations [v <= 0], bucket [i >= 1] counts
      [2{^i-1} <= v < 2{^i}]. *)

  val observe : t -> int -> unit
  (** Record one observation (bucketed by power of two; also tracks count,
      sum, min and max). One atomic load when metrics are off. *)

  val count : t -> int
  (** Number of observations recorded. *)

  val sum : t -> int
  (** Sum of all observed values. *)
end

module Trace : sig
  (** Event-level timeline: who ran what, on which domain, when.

      Every participating domain owns a private fixed-capacity buffer of
      events; emission is append-only with no locking, so tracing never
      blocks a worker. A full buffer {e drops} further events (counted in
      {!stats}) instead of growing or overwriting — memory is bounded by
      [capacity () * live domains] regardless of circuit size.

      Events follow the Chrome trace-event model: [B]/[E] begin/end pairs
      (fed automatically by {!Span.with_}), [i] instants (explicit probes)
      and [X] complete events with a duration (pool chunk execution).
      {b Balance guarantee:} a [B] also reserves buffer space for its [E],
      and a dropped [B] suppresses its matching [E], so the exported stream
      always has balanced begin/end pairs per (tid, name) — even under
      overflow. *)

  val enabled : unit -> bool
  (** Whether the tracing bit is on. *)

  val enable : unit -> unit
  (** Switch event collection on. Tracing is independent of the metrics
      bit: {!Span.with_} emits events whenever tracing is on, and records
      the aggregate span tree whenever metrics are on. *)

  val disable : unit -> unit
  (** Switch event collection off. Buffered events are kept for export. *)

  val set_capacity : int -> unit
  (** Per-domain buffer capacity in events (default 65536, clamped to
      [>= 16]). Affects buffers created afterwards — call it before
      {!enable} (or after {!reset}) from the orchestrating domain. *)

  val capacity : unit -> int
  (** The capacity newly created per-domain buffers will get. *)

  val instant : ?cat:string -> string -> unit
  (** Record an [i] (instant) event on the calling domain's timeline.
      [cat] defaults to ["sft"]. One atomic load when tracing is off. *)

  val complete : ?cat:string -> string -> ts:float -> dur:float -> unit
  (** Record an [X] (complete) event: a slice that started at [ts] (a raw
      {!now} reading) and lasted [dur] seconds (clamped to [>= 0]). *)

  type summary = { rings : int; recorded : int; dropped : int }

  val stats : unit -> summary
  (** Buffer totals across all domains that emitted events since the last
      {!reset}. [dropped > 0] means the capacity was too small for the run
      (raise it with {!set_capacity}); results are unaffected either way. *)

  val reset : unit -> unit
  (** Discard every buffer. Also performed by {!Obs.reset}. *)

  val to_json_value : unit -> Obs_json.t
  (** The recorded timeline as a Chrome trace-event JSON array (the "JSON
      array format" accepted by Perfetto / chrome://tracing): one object
      per event with [name], [cat], [ph] (["B"|"E"|"i"|"X"]), [ts]
      (microseconds, relative to process start, clamped [>= 0]), [pid] 1
      and the owning domain id as [tid]; [X] events carry [dur]
      (microseconds). Each domain's stream is prefixed with an [M]
      (metadata) [thread_name] event and, when events were dropped,
      suffixed with a [trace.dropped] instant whose [args.count] is the
      drop count.

      Call after parallel work has quiesced (pools shut down / joined):
      buffers are read without synchronisation. *)

  val to_json : unit -> string
  (** {!to_json_value} rendered compactly on one line. *)

  val write_file : string -> unit
  (** Write {!to_json} (plus a trailing newline) to a file — the CLI's
      [--trace-out FILE]. *)
end

module Journal : sig
  (** Append-only structured decision journal (DESIGN.md §16).

      Records {e typed decision events} — splice accepts and rollbacks,
      identification verdicts with their cache source, PODEM aborts and SAT
      escalation outcomes, redundancy proofs, CEC verdicts, span closes,
      runtime samples — so a finished run can be analysed offline with
      [sft report]. Same buffering contract as {!Trace}: each domain
      appends to a private bounded buffer (no locks on the emit path; a
      full buffer counts drops instead of blocking or growing), and
      {!finish} — the single writer — merges every buffer in global
      sequence order and streams the run out as JSONL.

      {b File format} (one compact {!Obs_json} object per line):
      a [journal_begin] header carrying [journal_version], the producing
      command and the absolute open timestamp; then one line per event with
      [ev] (the kind), [seq] (global emission order across domains), [ts]
      (seconds since the header timestamp, clamped [>= 0]), [dom] (emitting
      domain id) and the event's own fields; then a [journal_end] footer
      with event/drop totals, wall seconds and a snapshot of every
      registered counter. *)

  val enabled : unit -> bool
  (** Whether the journal bit is on ({!start} called, {!finish} not yet).
      Call sites building non-trivial field lists should gate on this so a
      disabled probe stays one atomic load. *)

  val start : ?capacity:int -> cmd:string -> string -> unit
  (** [start ~cmd path] opens a journal destined for [path], tagging the
      header with the producing command [cmd] (e.g. ["optimize"]). Drops
      any events buffered since the previous journal and resets the global
      sequence counter. [capacity] overrides the per-domain buffer capacity
      (default 65536, clamped to [>= 16]) for buffers created afterwards.
      Nothing is written until {!finish}. *)

  val emit : string -> (string * Obs_json.t) list -> unit
  (** [emit kind fields] appends one event to the calling domain's buffer,
      stamping it with the next global sequence id and the current {!now}.
      No-op (one atomic load) when the journal is off; never blocks. *)

  val set_capacity : int -> unit
  (** Per-domain buffer capacity in events (default 65536, clamped to
      [>= 16]); the sticky form of {!start}'s [capacity]. Affects buffers
      created afterwards. *)

  val capacity : unit -> int
  (** The capacity newly created per-domain buffers will get. *)

  type summary = { buffers : int; recorded : int; dropped : int }

  val stats : unit -> summary
  (** Buffer totals for the currently buffered (unwritten) events.
      [dropped > 0] means per-domain capacity was too small for the run. *)

  val finish : unit -> summary
  (** Close the journal: switch the bit off, merge all buffers in sequence
      order, write the JSONL file (header, events, footer) and return what
      was written. Returns zeros without touching the filesystem if no
      journal was open. Call after parallel work has quiesced, as with
      {!Trace.to_json_value}. *)

  val reset : unit -> unit
  (** Discard buffered events (the open journal, if any, stays open). Also
      performed by {!Obs.reset}. *)
end

module Runtime : sig
  (** Low-rate process-health sampler: GC churn, peak RSS and pool busy
      time.

      Each sample reads [Gc.quick_stat] {e on the main domain only} (GC
      statistics are domain-local in OCaml 5), computes deltas against the
      previous sample, and publishes them twice: as monotonic [runtime.*]
      counters in the metrics export ([runtime.samples], [runtime.minor_words],
      [runtime.major_words], [runtime.compactions], [runtime.maxrss_kb] —
      the latter kept at the peak by adding differences) and, when a
      journal is open, as a [runtime_sample] journal event additionally
      carrying the innermost open span, the live heap size and a snapshot
      of the per-domain [pool.domainN.*] busy counters. Peak RSS comes from
      [/proc/self/status] ([VmHWM]), reported as 0 where unavailable. *)

  val sample : unit -> unit
  (** Take one sample now (main domain, metrics or journal on; otherwise a
      no-op). Call at run boundaries to anchor the baselines / flush the
      final deltas. *)

  val maybe_sample : unit -> unit
  (** Rate-limited {!sample}: does nothing unless the configured interval
      has elapsed since the previous sample. Cheap enough for hot exits —
      one atomic load when both metrics and journal are off, and
      {!Span.with_} calls it on every span close while journaling. *)

  val set_interval : float -> unit
  (** Minimum seconds between {!maybe_sample} samples (default 0.25,
      clamped to [>= 0.01]). *)

  val samples : unit -> int
  (** Samples taken since the last {!reset}. *)

  val reset : unit -> unit
  (** Forget the sampler's baselines and sample count, so the next sample
      re-anchors against current GC/RSS readings instead of reporting a
      cross-reset delta. Also performed by {!Obs.reset}. *)
end

module Span : sig
  val with_ : string -> (unit -> 'a) -> 'a
  (** [with_ name f] times [f ()] and accounts it to the trace-tree node
      [name] under the innermost enclosing span of the {e current domain}
      (pool workers therefore root their spans at the top level). Wall
      clock and call count accumulate across calls; reentrant and
      exception-safe; durations are clamped to [>= 0] (wall clock). When
      {!Trace.enabled}, entry and exit additionally emit [B]/[E] events on
      the calling domain's timeline. When the whole subsystem is disabled
      this is exactly [f ()]. *)

  type info = {
    name : string;
    calls : int;
    wall : float;  (** total wall-clock seconds across [calls] *)
    children : info list;
  }

  val snapshot : unit -> info list
  (** Consistent copy of the recorded span forest (creation order). *)
end

module Export : sig
  val counters : unit -> (string * int) list
  (** Registered counters in creation order. *)

  val to_json_value : unit -> Obs_json.t
  (** The full registry as JSON. Schema (version 1, see DESIGN.md §9):
      {v
      { "schema_version": 1,
        "enabled": <bool>,
        "counters": { "<name>": <int>, ... },
        "histograms": { "<name>": { "count", "sum", "min", "max",
                                    "buckets": [ {"pow2": i, "count": n} ] } },
        "trace": [ { "name", "calls", "wall_seconds", "children": [...] } ] }
      v} *)

  val to_json : unit -> string
  (** [to_json_value] rendered compactly on one line. *)

  val to_text : unit -> string
  (** Human-readable dump: counters, histograms, then the span tree. *)

  val trace_text : unit -> string
  (** Just the span tree, indented two spaces per level. *)

  val write_file : string -> unit
  (** Write [to_json ()] (plus a trailing newline) to a file. *)

  (** Where [--metrics SINK] sends the registry at the end of a run. *)
  type sink =
    | Text  (** {!to_text} on stdout *)
    | Json  (** {!to_json} on stdout *)
    | File of string  (** {!write_file} to this path *)

  val sink_of_string : string -> sink
  (** ["text"] and ["json"] name the stdout sinks; any other string is a
      file path. *)

  (** The observability flags of a front end ([sft] and the bench
      harness): [--metrics SINK], [--trace] and [--trace-out FILE]. *)
  type request = {
    metrics : sink option;
    trace : bool;  (** print the span tree on stderr *)
    trace_out : string option;  (** Chrome trace-event file (§11) *)
  }

  val start : request -> unit
  (** Switch on what [request] needs: metrics collection ({!Obs.enable})
      for [metrics] or [trace], event tracing ({!Trace.enable}) for
      [trace_out]. *)

  val finish : prog:string -> request -> unit
  (** The end-of-run export, in this order:
      - with [trace], print the span tree ({!trace_text}) on stderr,
        unless [metrics] is [Some Text], whose dump already ends with it;
      - with [trace_out], write the trace file ({!Trace.write_file}) and,
        when events were dropped, warn on stderr with a [prog:] prefix;
      - emit [metrics] to its sink.

      @raise Sys_error when the trace or metrics file cannot be written. *)
end
