(** Raw-key, disk-persistent identification cache (DESIGN.md §15).

    The resynthesis engine asks the same question — "is this K-input
    function a comparison function, and under which spec?" — tens of
    thousands of times per run, and the same small functions recur across
    candidates, circuits and runs. This cache keys the exact
    {!Comparison_fn.identify_exact} verdict (positive or negative) on the
    packed table and replays it verbatim, so cached results are
    byte-identical to uncached ones. Every miss is identified once and
    recorded, whatever the verdict; nothing is canonicalised.

    With a cache directory, entries load at {!create} and fresh ones are
    appended at {!finish} through {!Id_store}, sharing verdicts across
    runs and processes. A cache is not synchronised: use it from one
    domain. The engine {!record}s each miss as soon as it is identified,
    so a table that recurs within a run, even within one root's candidate
    batch, is identified once.

    Probes: [idcache.hits], [idcache.disk_hits], [idcache.misses], and the
    [idcache.class_hits] histogram (hits per cached table over a run). The
    retired counters [idcache.npn_hits] and [idcache.canon_ns] stay
    registered for consumers that read them by name, and always read 0. *)

type t
(** A cache instance; one per engine run (or shared across runs via the
    disk store). *)

type verdict = Comparison_fn.spec option
(** An exact identification verdict; [None] means "not a comparison
    function". *)

type miss
(** A failed lookup — pass it back to {!record} with the freshly computed
    verdict. *)

type lookup =
  | Hit of verdict
      (** The recorded exact verdict, replayed verbatim. *)
  | Neg_hit
      (** Never returned: the NPN class layer that served it is gone. Kept
          so that existing matches on {!lookup} still compile; treat as a
          [None] verdict. *)
  | Miss of miss
      (** Not cached; identify and {!record} the result. *)
(** Result of {!find}. *)

val create : ?dir:string -> unit -> t
(** [create ()] is an empty in-memory cache; [create ~dir ()] additionally
    loads every valid entry of [dir]'s disk store ({!Id_store.load}) and
    arranges for {!finish} to append this run's fresh entries there. *)

val find : t -> Truthtable.t -> lookup
(** Look a table up: one hash probe, [Hit] or [Miss]. A hit bumps the
    entry's hit count, which {!finish} reports. *)

val record : t -> miss -> verdict -> unit
(** Store a computed verdict for an earlier {!Miss}; later {!find}s of
    the table hit. If the table is already cached the first verdict stays
    (for the deterministic exact engine both are equal). The entry is
    queued for the disk store only when the cache has one. *)

val length : t -> int
(** Number of distinct tables cached. *)

val flush : t -> unit
(** Append the entries recorded since the last flush to the disk store (a
    no-op without [~dir]). *)

val finish : t -> unit
(** End-of-run hook: observes the per-table hit histogram and runs
    {!flush}. *)
