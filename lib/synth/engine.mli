(** Shared resynthesis engine behind Procedures 2 and 3 (Sec. 4).

    A pass walks the gates on a path to a primary output from the outputs
    towards the inputs (descending topological order, as in the paper). For
    each gate it enumerates candidate subcircuits, keeps those implementing
    comparison functions, scores each viable replacement, and splices in the
    best one at once, before the walk moves on. Passes repeat until a
    fixpoint. The walk pops its roots from a {!Footprint.Worklist}
    (DESIGN.md §13): every gate on the first pass, and on later passes only
    the gates some earlier splice dirtied — or, with [incremental] off,
    every gate again. The walk is serial, candidate scoring included; the
    only parallel work is the SAT verification of accepted replacements
    ({!verify}), which runs on a pool of [domains] domains. *)

type objective =
  | Gates  (** Procedure 2: maximise gate reduction, tie-break on paths. *)
  | Paths  (** Procedure 3: minimise the path count on the gate output. *)

type verify =
  [ `Off  (** trust the local checks; no whole-circuit proof *)
  | `Sampled of int
    (** SAT-prove the circuit before/after every [n]-th accepted
        replacement (the first acceptance is always proved) *)
  | `Full  (** SAT-prove every accepted replacement *) ]
(** Whole-circuit equivalence checking of accepted replacements with
    {!Cec.check} (DESIGN.md §10). The pre-splice circuit is snapshotted and
    miter-checked against the post-splice circuit; a counterexample rolls
    the splice back and the engine continues as if the candidate had not
    existed ([stats.verify_refused] counts these — any refusal indicates an
    engine bug, since local verification should already guarantee
    soundness). An [Unknown] verdict (conflict budget exhausted) lets the
    replacement stand. Don't-care replacements are proved by the same
    whole-circuit miter: they only diverge on subcircuit input combinations
    already proved unreachable from the primary inputs, so the miter stays
    UNSAT. *)

type options = {
  k : int;  (** subcircuit input limit K (paper: 5 or 6) *)
  max_candidates : int;  (** candidate cap per root *)
  engine : Comparison_fn.engine;
  merge : bool;  (** merge chain gates inside units (Fig. 4) *)
  max_passes : int;
  seed : int64;
  use_dontcares : bool;
      (** paper Sec. 6, issue 1: when plain identification fails, retry with
          controllability don't-cares; every exploited disagreement is proved
          unreachable by justification search (the default
          {!Dontcare.prove_unreachable} budget) before the replacement is
          considered. *)
  max_units : int;
      (** paper Sec. 6, issue 2: cover a subfunction with up to this many
          comparison units sharing a permutation (1 = single units only). *)
  domains : int;
      (** Width of the pool that {!Cec.check} proves accepted replacements
          on, resolved by {!Pool.domains_of_flag}: [<= 0] picks the
          recommended width, [1] proves serially. No pool is created when
          [verify] proves nothing. Everything else in the engine is serial,
          so results are identical for every value. *)
  verify : verify;
      (** SAT-based replacement verification, see {!verify}. Every
          exact replacement is also checked exhaustively against the
          subcircuit it replaces before the splice ({!Replace.splice});
          don't-care replacements skip that local check. The CLI's
          [--verify] selects [`Full]. *)
  inject_unsound : int;
      (** Fault-injection hook for the test suite: corrupt the [n]-th
          accepted replacement (1-based; [0] = never) by inverting the
          spliced root {e after} local verification, so only the {!verify}
          miter can catch it. Never set this outside tests. *)
  id_cache : bool;
      (** Share one {!Idcache} across all candidates, roots and passes of
          the run (DESIGN.md §12, §15): each distinct table is identified
          once and its exact verdict replays verbatim on every later hit.
          Effective only with the deterministic {!Comparison_fn.Exact}
          engine — sampled verdicts depend on the candidate random stream
          and are never cached — so results are bit-identical with the
          cache on or off. The CLI escape
          hatch is [--no-id-cache]. *)
  cache_dir : string option;
      (** Directory of the persistent identification store (DESIGN.md §15):
          when set (CLI [--cache-dir]), the run's cache warm-starts from
          [dir/idcache.bin] and appends its fresh verdicts back at the end,
          sharing identification work across runs and concurrent processes.
          [None] (the default) keeps the cache run-scoped in memory.
          Requires [id_cache]; results are bit-identical cold, warm or
          off. *)
  incremental : bool;
      (** Dirty-region tracking across passes (DESIGN.md §13): after each
          accepted splice the transitive fanout footprint of the replaced
          cone — its cut inputs, its member gates and everything downstream
          of either, the imported unit gates and the sweep boundary — is
          marked dirty, and later passes pop only dirty roots (the first
          pass sees everything dirty). A clean root's evaluation would
          reproduce its previous rejection bit-exactly, so skipping it never
          changes the result: incremental runs are bit-identical to full
          re-enumeration, at pass cost near-linear in the amount of logic
          that changed. [false] is the full re-enumeration oracle the tests
          compare against: every pass re-queues every gate and never reads
          the dirty marks. The CLI escape hatch is [--no-incremental]. *)
}

val default_options : options
(** K = 6, 64 candidates, exact identification, merging, at most 16
    passes, seed 1, extensions off, [domains = 0] (auto),
    [verify = `Sampled 8],
    [inject_unsound = 0], [id_cache = true], [cache_dir = None],
    [incremental = true]. *)

type stats = {
  passes : int;
  replacements : int;
  gates_before : int;
  gates_after : int;
  paths_before : int;
  paths_after : int;
  verify_checks : int;  (** whole-circuit miter checks performed *)
  verify_refused : int;  (** replacements rolled back as unsound *)
}

val pp_stats : Format.formatter -> stats -> unit

val optimize : objective -> options -> Circuit.t -> stats
(** Mutates the circuit.

    Observability (when enabled): counters [engine.candidates],
    [engine.realised], [engine.accepted], [engine.verify_checks],
    [engine.verify_refused], [engine.verify_unknown], [engine.dirty_regions]
    (splice footprints marked dirty), [engine.worklist_popped] (roots popped
    from the pass worklist), and the {!Idcache} probes [idcache.hits],
    [idcache.disk_hits], [idcache.misses] (the retired [idcache.npn_hits]
    and [idcache.canon_ns] always read 0); histograms [engine.cut_size],
    [engine.dirty_nodes] (nodes newly dirtied per footprint) and
    [idcache.class_hits] (hits per cached table); span
    [engine.pass] (one per resynthesis pass). The retired counters
    [engine.reenum_skipped], [engine.commit_waves],
    [engine.concurrent_commits] and [engine.wave_coalesced] stay registered
    for consumers that read them by name, and always read 0.
    [extract.words] counts the 64-minterm words swept by the bit-parallel
    extractor (see {!Subcircuit.extract}). *)
