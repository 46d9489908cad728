(* Raw-key, optionally disk-persistent identification cache (DESIGN.md §15).

   One layer: packed table -> exact [Comparison_fn.identify_exact]
   verdict, positive or negative. A hit replays the recorded spec
   verbatim, so cached runs build byte-identical circuits — the spec
   determines the unit, the unit the splice. Every miss is identified
   exactly and recorded here, so each distinct table is identified at
   most once per run.

   Concurrency contract (the engine's frozen-read/deferred-merge
   discipline, DESIGN.md §12): [find] is read-only and safe from pool
   workers against a frozen cache (per-entry hit counts are atomics);
   [record] and [finish] must only be called by the orchestrating domain
   between batches. The disk store adds cross-process sharing: entries
   loaded at [create], fresh entries appended at [finish] under the
   store's advisory lock. *)

module TT = Hashtbl.Make (struct
  type t = Truthtable.t

  let equal = Truthtable.equal
  let hash = Truthtable.hash
end)

type verdict = Comparison_fn.spec option

type entry = {
  verdict : verdict;
  from_disk : bool;
  hits : int Atomic.t;
}

type t = {
  raw : entry TT.t;
  file : string option;
  mutable fresh : Id_store.entry list;
      (* newest first; flushed in order; always [] without a store *)
}

type miss = Truthtable.t

type lookup =
  | Hit of verdict
  (* Never returned since the NPN class layer was deleted; kept because
     perfbench/main.ml matches on it. *)
  | Neg_hit
  | Miss of miss

let hits_c =
  Obs.Counter.make ~help:"identification verdicts served from the raw-key cache"
    "idcache.hits"

let misses_c =
  Obs.Counter.make ~help:"identification verdicts computed and cached" "idcache.misses"

(* Retired with the NPN class layer; registered at 0 for consumers that
   read them by name (perfbench/main.ml). *)
let _npn_hits_c =
  Obs.Counter.make ~help:"retired: always 0 (the NPN class layer was deleted)"
    "idcache.npn_hits"

let _canon_ns_c =
  Obs.Counter.make ~help:"retired: always 0 (the NPN class layer was deleted)"
    "idcache.canon_ns"

let disk_hits_c =
  Obs.Counter.make ~help:"cache hits on entries loaded from the disk store"
    "idcache.disk_hits"

let class_hits_h =
  Obs.Histogram.make ~help:"hits per cached table over the run (hit tables only)"
    "idcache.class_hits"

let create ?dir () =
  let raw = TT.create 1024 in
  let file = Option.map (fun d -> Id_store.file ~dir:d) dir in
  Option.iter
    (fun path ->
      List.iter
        (fun (Id_store.Raw (tbl, v)) ->
          if not (TT.mem raw tbl) then
            TT.add raw tbl { verdict = v; from_disk = true; hits = Atomic.make 0 })
        (Id_store.load path))
    file;
  { raw; file; fresh = [] }

let length t = TT.length t.raw

let find t f =
  match TT.find_opt t.raw f with
  | Some e ->
    Atomic.incr e.hits;
    Obs.Counter.incr hits_c;
    if e.from_disk then Obs.Counter.incr disk_hits_c;
    if Obs.Journal.enabled () then
      Obs.Journal.emit "identify"
        [
          ( "src",
            Obs_json.String (if e.from_disk then "idcache_raw" else "run_cache")
          );
          ("verdict", Obs_json.Bool (e.verdict <> None));
        ];
    Hit e.verdict
  | None ->
    Obs.Counter.incr misses_c;
    Miss f

let record t f v =
  if Obs.Journal.enabled () then
    Obs.Journal.emit "identify"
      [
        ("src", Obs_json.String "fresh"); ("verdict", Obs_json.Bool (v <> None));
      ];
  if not (TT.mem t.raw f) then begin
    TT.add t.raw f { verdict = v; from_disk = false; hits = Atomic.make 0 };
    if t.file <> None then t.fresh <- Id_store.Raw (f, v) :: t.fresh
  end

let flush t =
  (match (t.file, t.fresh) with
  | Some path, (_ :: _ as fresh) -> Id_store.append path (List.rev fresh)
  | _ -> ());
  t.fresh <- []

let finish t =
  TT.iter
    (fun _ e ->
      let h = Atomic.get e.hits in
      if h > 0 then Obs.Histogram.observe class_hits_h h)
    t.raw;
  flush t
