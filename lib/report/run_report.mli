(** Loading and rendering {!Obs.Journal} run journals — the [sft report]
    back end.

    A journal (DESIGN.md §16) is JSONL: a [journal_begin] header, one line
    per decision event, and a [journal_end] footer with counter totals.
    {!load} parses one file into an aggregate {!t}: per-phase wall time
    from [span] events, GC/RSS movement from [runtime_sample] events, the
    decision funnel, cache-effectiveness and SAT-escalation tallies.
    Truncated journals (crashed run, no footer) still load — [truncated]
    is set and footer-derived fields fall back to zero.

    {b Decision funnel.} [candidates] is every cut enumerated by the
    engine (counter [engine.candidates]); [identified] the subset whose
    function was identified as a comparison function (counter
    [engine.realised]); [verified] the replacements that reached the
    splice-and-verify step ([splice_accept] + [splice_rollback] events);
    [committed] those that survived it ([splice_accept] events). A
    well-formed optimize journal satisfies
    [committed <= verified <= identified <= candidates]; {!funnel_ok}
    checks exactly that (vacuously true for journals of runs that never
    enumerate cuts, e.g. [atpg]). *)

type funnel = {
  candidates : int;
  identified : int;
  verified : int;
  committed : int;
}

type phase = { ph_name : string; ph_calls : int; ph_wall : float }
(** One aggregated span name: close count and summed duration. *)

type t
(** One loaded journal. *)

val load : string -> (t, string) result
(** [load path] parses the journal at [path]. [Error] when the file is
    unreadable, does not start with a [journal_begin] header, or carries a
    [journal_version] this reader does not understand. A parse failure
    {e after} the header marks the run [truncated] instead of failing. *)

val path : t -> string
(** The file the journal was loaded from. *)

val cmd : t -> string
(** The producing command recorded in the header (e.g. ["optimize"]). *)

val events : t -> int
(** Event lines actually read (header/footer excluded). *)

val dropped : t -> int
(** Events dropped at record time (footer value; 0 when truncated). *)

val truncated : t -> bool
(** True when the journal has no parseable [journal_end] footer. *)

val wall_s : t -> float
(** Footer wall seconds; when truncated, the highest event timestamp. *)

val funnel : t -> funnel
(** The run's decision funnel (see header comment). *)

val funnel_ok : t -> bool
(** [committed <= verified <= identified <= candidates], with the
    counter-derived stages skipped when the journal is truncated (their
    source is the footer). *)

val phases : t -> phase list
(** Aggregated [span] events, heaviest first. *)

val render : t -> string
(** Human-readable report: header, phase table, runtime/GC summary,
    decision funnel, identification-source and SAT-escalation tables —
    sections with no data are omitted. *)

val to_json_value : t list -> Obs_json.t
(** All loaded runs as one JSON document:
    [{"report_version": 3, "funnel_ok": <all runs>, "runs": [...]}].
    The top-level [funnel_ok] is the conjunction over runs so scripts can
    gate on one field. *)

val diff : t -> t -> string
(** Run-to-run comparison in the spirit of [bench-diff]: wall, events,
    funnel stages, GC movement and per-phase wall side by side with
    percentage deltas (phases aligned by name over the union). *)
