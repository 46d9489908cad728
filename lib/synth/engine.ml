type objective =
  | Gates
  | Paths

type verify =
  [ `Off
  | `Sampled of int
  | `Full ]

type options = {
  k : int;
  max_candidates : int;
  engine : Comparison_fn.engine;
  merge : bool;
  verify_local : bool;
  verify_global : bool;
  max_passes : int;
  seed : int64;
  use_dontcares : bool;
  dc_backtracks : int;
  max_units : int;
  domains : int;
  obs : bool;
  verify : verify;
  inject_unsound : int;
  id_cache : bool;
  cache_dir : string option;
  incremental : bool;
}

let default_options =
  {
    k = 6;
    max_candidates = 64;
    engine = Comparison_fn.Exact;
    merge = true;
    verify_local = true;
    verify_global = false;
    max_passes = 16;
    seed = 1L;
    use_dontcares = false;
    dc_backtracks = 200;
    max_units = 1;
    domains = 0;
    obs = false;
    verify = `Sampled 8;
    inject_unsound = 0;
    id_cache = true;
    cache_dir = None;
    incremental = true;
  }

(* Observability probes. [cut_size_h] and [realised_c] fire inside worker
   evaluation — counters and histograms are atomic, so that is safe; spans
   stay on the orchestrating domain. *)
let candidates_c = Obs.Counter.make ~help:"subcircuit candidates enumerated" "engine.candidates"
let realised_c = Obs.Counter.make ~help:"candidates realised as units" "engine.realised"
let accepted_c = Obs.Counter.make ~help:"replacements spliced in" "engine.accepted"
let cut_size_h = Obs.Histogram.make ~help:"K-cut input counts" "engine.cut_size"

let verify_checks_c =
  Obs.Counter.make ~help:"whole-circuit CEC miter checks" "engine.verify_checks"

let verify_refused_c =
  Obs.Counter.make ~help:"replacements rolled back as unsound" "engine.verify_refused"

let verify_unknown_c =
  Obs.Counter.make ~help:"CEC checks hitting the conflict budget" "engine.verify_unknown"

let dirty_regions_c =
  Obs.Counter.make ~help:"splice footprints marked dirty" "engine.dirty_regions"

let dirty_nodes_h =
  Obs.Histogram.make ~help:"nodes newly dirtied per splice footprint" "engine.dirty_nodes"

let worklist_popped_c =
  Obs.Counter.make ~help:"dirty roots popped from the pass worklist"
    "engine.worklist_popped"

(* Retired, never incremented: the perfbench traced run still reads them by name. *)
let () =
  List.iter
    (fun name -> ignore (Obs.Counter.make ~help:"retired; always 0" name))
    [
      "engine.reenum_skipped"; "engine.commit_waves"; "engine.concurrent_commits";
      "engine.wave_coalesced";
    ]

type stats = {
  passes : int;
  replacements : int;
  gates_before : int;
  gates_after : int;
  paths_before : int;
  paths_after : int;
  verify_checks : int;
  verify_refused : int;
}

let pp_stats ppf s =
  Format.fprintf ppf
    "%d passes, %d replacements; gates %d -> %d; paths %d -> %d" s.passes
    s.replacements s.gates_before s.gates_after s.paths_before s.paths_after;
  if s.verify_checks > 0 then
    Format.fprintf ppf "; %d proved%s" s.verify_checks
      (if s.verify_refused > 0 then
         Printf.sprintf " (%d REFUSED as unsound)" s.verify_refused
       else "")

(* Paths on the root if the subcircuit is replaced by the unit:
   sum over inputs of N_p(input) * K_p(input). *)
let replaced_path_label labels (s : Subcircuit.t) (b : Comparison_unit.built) =
  let acc = ref 0 in
  Array.iteri
    (fun j input -> acc := !acc + (labels.(input) * b.Comparison_unit.input_paths.(j)))
    s.Subcircuit.inputs;
  !acc

type candidate = {
  sub : Subcircuit.t;
  built : Comparison_unit.built;
  gain : int;  (** removable 2-input gates minus unit 2-input gates *)
  new_paths : int;  (** path label on the root after replacement *)
  exact : bool;  (** false for don't-care replacements (care-set verified) *)
}

(* Build the replacement unit for a subcircuit, trying in order: a single
   comparison unit, a multi-unit cover (Sec. 6, issue 2), and a single unit
   under controllability don't-cares (Sec. 6, issue 1; each exploited
   disagreement is proved unreachable first). [identify] is the plain
   identification engine, possibly wrapped in the run cache by the caller;
   the don't-care and multi-unit fallbacks are rng-dependent and stay
   uncached. *)
let realise opts rng ~identify ~sim c sub tt =
  let n = Array.length sub.Subcircuit.inputs in
  let with_dontcares () =
    if not opts.use_dontcares then None
    else
      match sim with
      | None -> None
      | Some (cmp0, batches) -> (
        let seen = Dontcare.observed cmp0 batches sub.Subcircuit.inputs in
        let dc = Truthtable.lnot seen in
        if Truthtable.is_const dc = Some false then None
        else begin
          let care_on = Truthtable.land_ tt seen in
          match Comparison_fn.identify_dc rng ~care_on ~dc with
          | None -> None
          | Some spec ->
            let built = Comparison_unit.build ~merge:opts.merge ~n spec in
            let g = Eval.output_table built.Comparison_unit.circuit 0 in
            let diff = Truthtable.minterms (Truthtable.lxor_ g tt) in
            if diff = [] then Some (built, true)
            else if
              Dontcare.prove_unreachable ~backtrack_limit:opts.dc_backtracks c
                sub.Subcircuit.inputs diff
            then Some (built, false)
            else None
        end)
  in
  let with_multi () =
    if opts.max_units <= 1 then None
    else
      match Multi_unit.find ~max_units:opts.max_units rng tt with
      | Some cover -> Some (Multi_unit.build ~merge:opts.merge ~n cover, true)
      | None -> None
  in
  match identify tt with
  | Some spec -> Some (Comparison_unit.build ~merge:opts.merge ~n spec, true)
  | None -> (
    (* a don't-care single unit is usually cheaper than a multi-unit cover *)
    match with_dontcares () with
    | Some r -> Some r
    | None -> with_multi ())

(* Candidate evaluations must not share a mutable random stream when they
   run concurrently, so each candidate derives its own generator from the
   engine seed, the root and its enumeration index (splitmix64 finaliser).
   The serial path uses the same derivation, keeping [domains = 1] and
   [domains = n] runs identical. *)
let candidate_seed base root idx =
  let z =
    Int64.add
      (Int64.logxor base (Int64.mul (Int64.of_int root) 0x9E3779B97F4A7C15L))
      (Int64.of_int idx)
  in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)


(* Per-run scratch threaded through every pass: the persistent dirty
   worklist, the output-reachable set, the reusable enumeration dedup table
   and the serial extraction buffer. All survive circuit growth — the
   bitsets grow on demand, the dedup table is cleared per root, and the
   scratch buffer is re-allocated when the circuit outgrows it. *)
type run_state = {
  wl : Footprint.Worklist.t;
  reachable : Footprint.set;
  dedup : Subcircuit.dedup;
  mutable scratch : int64 array;
}

(* The walk processes a popped root only if it lies on a path to a primary
   output: Step 2 of the procedures reaches a line only through the lines
   it feeds. The set is seeded here by one DFS from the outputs and
   extended with the fresh nodes of every splice. No other node ever
   becomes reachable — new edges only point at freshly spliced regions —
   and nodes that stop being reachable are dead (the post-splice sweep
   removes them), which the [is_gate] check already filters. *)
let reachable_from_outputs c =
  let s = Footprint.create (Circuit.size c) in
  let stack = ref [] in
  Array.iter (fun o -> stack := o :: !stack) (Circuit.outputs c);
  let continue_ = ref true in
  while !continue_ do
    match !stack with
    | [] -> continue_ := false
    | id :: rest ->
      stack := rest;
      if Circuit.is_alive c id && not (Footprint.mem s id) then begin
        Footprint.add s id;
        Array.iter (fun f -> stack := f :: !stack) (Circuit.fanins c id)
      end
  done;
  s

let make_run_state c =
  {
    wl = Footprint.Worklist.create ~all:true (Circuit.size c);
    reachable = reachable_from_outputs c;
    dedup = Subcircuit.dedup ();
    scratch = [||];
  }

(* Below this many candidates a pooled scoring batch runs inline on the
   calling domain: publishing a job and waking the workers costs more than
   scoring a handful of cuts (the source of the sub-1.0x pooled "speedups"
   on small circuits). Scheduling-only — results are unchanged. *)
let score_serial_cutoff = 48

(* Enumeration stays serial; [realise] / truth-table extraction fan out
   across the pool. Results come back in enumeration order (deterministic
   ordered merge), so the fold over [better] below sees candidates in the
   same order as a serial run and tie-breaks identically.

   The identification cache is never written during scoring: every
   evaluation — worker or serial — looks up the frozen cache read-only and
   records its misses locally; the orchestrating domain merges them below
   once the whole batch is back. Deferring the serial merge too keeps
   hit/miss counts identical across [domains] settings. *)
let score_candidates ?pool ?cache ~st opts ~sim labels c root =
  let subs =
    Array.of_list
      (Subcircuit.enumerate ~dedup:st.dedup ~k:opts.k
         ~max_candidates:opts.max_candidates c root)
  in
  Obs.Counter.add candidates_c (Array.length subs);
  let eval scratch idx sub =
    let rng = Rng.create (candidate_seed opts.seed root idx) in
    Obs.Histogram.observe cut_size_h (Array.length sub.Subcircuit.inputs);
    let tt = Subcircuit.extract ~scratch c sub in
    let misses = ref [] in
    let identify tt =
      match cache with
      | None -> Comparison_fn.identify opts.engine rng tt
      | Some cache -> (
        match Idcache.find cache tt with
        | Idcache.Hit verdict -> verdict
        | Idcache.Neg_hit -> None
        | Idcache.Miss m ->
          let verdict = Comparison_fn.identify opts.engine rng tt in
          misses := (m, verdict) :: !misses;
          verdict)
    in
    let cand =
      match realise opts rng ~identify ~sim c sub tt with
      | None -> None
      | Some (built, exact) ->
        Obs.Counter.incr realised_c;
        let gain = Subcircuit.removable_cost c sub - built.Comparison_unit.gates2 in
        let new_paths = replaced_path_label labels sub built in
        Some { sub; built; gain; new_paths; exact }
    in
    (cand, !misses)
  in
  let scored =
    match pool with
    | Some pool when Array.length subs > 1 ->
      (* Workers read the circuit concurrently; materialise the lazy
         fanout cache up front so they never race to build it. Each worker
         slot keeps its own extraction scratch for the batch. *)
      ignore (Circuit.fanouts c root);
      Pool.map_chunks pool ~chunk:1 ~serial_below:score_serial_cutoff
        ~state:(fun _ -> Array.make (Circuit.size c) 0L)
        ~f:eval subs
    | _ ->
      if Array.length st.scratch < Circuit.size c then
        st.scratch <- Array.make (Circuit.size c) 0L;
      Array.mapi (eval st.scratch) subs
  in
  (match cache with
  | None -> ()
  | Some cache ->
    Array.iter
      (fun (_, misses) ->
        List.iter
          (fun (m, verdict) -> Idcache.record cache m verdict)
          (List.rev misses))
      scored);
  List.filter_map fst (Array.to_list scored)

(* Strictly-better-than ordering for the two objectives. [current_paths] is
   the Procedure-1 label on the root before replacement. *)
let better objective ~current_paths a b =
  match b with
  | None -> (
    (* is [a] an improvement over leaving the gate alone? *)
    match objective with
    | Gates -> a.gain > 0 || (a.gain = 0 && a.new_paths < current_paths)
    | Paths -> a.new_paths < current_paths)
  | Some b -> (
    match objective with
    | Gates -> a.gain > b.gain || (a.gain = b.gain && a.new_paths < b.new_paths)
    | Paths -> a.new_paths < b.new_paths)

(* Whole-circuit SAT verification of accepted replacements (DESIGN.md §10).
   [attempts] counts accepted splices across passes so a `Sampled cadence is
   per optimisation run, not per pass; the first acceptance is always
   proved. *)
type verify_state = {
  mutable attempts : int;
  mutable checks : int;
  mutable refused : int;
}

let should_verify (verify : verify) idx =
  match verify with
  | `Off -> false
  | `Full -> true
  | `Sampled n -> n > 0 && idx mod n = 0

(* Kind with the complemented function, for the [inject_unsound] test hook. *)
let inverted_kind = function
  | Gate.Buf -> Some Gate.Not
  | Gate.Not -> Some Gate.Buf
  | Gate.And -> Some Gate.Nand
  | Gate.Nand -> Some Gate.And
  | Gate.Or -> Some Gate.Nor
  | Gate.Nor -> Some Gate.Or
  | Gate.Xor -> Some Gate.Xnor
  | Gate.Xnor -> Some Gate.Xor
  | Gate.Input | Gate.Const0 | Gate.Const1 -> None

let is_gate c id =
  Circuit.is_alive c id
  &&
  match Circuit.kind c id with
  | Gate.Input | Gate.Const0 | Gate.Const1 -> false
  | Gate.Buf | Gate.Not | Gate.And | Gate.Or | Gate.Nand | Gate.Nor | Gate.Xor
  | Gate.Xnor -> true

(* One pass of Procedures 2 and 3: pop the queued roots from the outputs
   towards the inputs and splice each improving replacement as soon as it
   is found (DESIGN.md §13). Incremental runs queue only the roots some
   earlier splice dirtied; the full re-enumeration oracle
   ([incremental = false]) re-queues every id on every pass and never reads
   the dirty marks. *)
let run_pass ?pool ?cache objective opts vstate st c =
  let labels = Paths.labels c in
  let dirty = Footprint.Worklist.fp st.wl in
  let incremental = opts.incremental in
  (* Simulation snapshot for don't-care analysis. Replacements only rewrite
     logic downstream of the gates still to be processed, so upstream node
     values stay valid for the whole pass. Compiling the circuit is pure
     overhead when don't-cares are off, so it only happens here. *)
  let sim =
    if opts.use_dontcares then begin
      let cmp0 = Compiled.of_circuit c in
      let sim_rng = Rng.create (Int64.logxor opts.seed 0x5FCAL) in
      let n_pi = Array.length (Compiled.inputs cmp0) in
      Some
        ( cmp0,
          Array.init 32 (fun _ ->
              Compiled.simulate cmp0 (Array.init n_pi (fun _ -> Rng.next64 sim_rng))) )
    end
    else None
  in
  let replacements = ref 0 in
  (* Pre-splice footprint of a decided candidate: its cut inputs (whose
     fanout sets change), its member gates (which die), and everything
     downstream of either. Marked before the splice mutates the netlist,
     while the members' fanout edges still exist. *)
  let mark_decision cand =
    let seeds =
      Array.fold_left
        (fun acc input -> input :: acc)
        cand.sub.Subcircuit.gates cand.sub.Subcircuit.inputs
    in
    Obs.Counter.incr dirty_regions_c;
    Obs.Histogram.observe dirty_nodes_h
      (Footprint.Worklist.mark_fanout_cone c st.wl seeds)
  in
  (* Nodes the splice imported (ids allocated past [since]): output-reachable
     by construction (the splice retargets the old root's readers onto
     them), so the reachability predicate learns them here in both modes;
     incremental runs also dirty their fanout cones so the next pass
     re-evaluates the rebuilt region. *)
  let mark_fresh since =
    let seeds = ref [] in
    for id = Circuit.size c - 1 downto since do
      if Circuit.is_alive c id then begin
        seeds := id :: !seeds;
        Footprint.add st.reachable id
      end
    done;
    if incremental then
      ignore (Footprint.Worklist.mark_fanout_cone c st.wl !seeds)
  in
  (* The sweep inside [Replace.splice] cascades upstream past the cut: a cut
     input left without consumers dies, then its fanins lose a consumer, and
     so on. Survivors on that boundary change fanout degree — which
     [Subcircuit.removable_gates] reads — so every root downstream of them
     must be re-evaluated, and the decision-time footprint (cut inputs +
     members) does not reach them. [pre_fanins] snapshots the graph before
     the splice; afterwards the live former fanins of every swept node seed
     a fanout-cone marking on the new graph. *)
  let snapshot_fanins () =
    Array.init (Circuit.size c) (fun id ->
        if Circuit.is_alive c id then Array.copy (Circuit.fanins c id)
        else [||])
  in
  let mark_swept_boundary pre_fanins =
    let seeds = ref [] in
    Array.iteri
      (fun id fins ->
        if Array.length fins > 0 && not (Circuit.is_alive c id) then
          Array.iter
            (fun f -> if Circuit.is_alive c f then seeds := f :: !seeds)
            fins)
      pre_fanins;
    ignore (Footprint.Worklist.mark_fanout_cone c st.wl !seeds)
  in
  (* Splice the winning candidate [cand] at root [g]; [idx] is its
     accepted-splice index, which drives verification sampling and the
     [inject_unsound] hook. A CEC refusal rolls the splice back, leaving
     [g] as if no candidate had improved on it. *)
  let commit g idx cand =
    (* Don't-care replacements intentionally differ from the subcircuit
       function on proved-unreachable combinations, so the exhaustive
       local check only applies to exact ones. *)
    let verify_local = opts.verify_local && cand.exact in
    let snapshot =
      if should_verify opts.verify idx then Some (Circuit.copy c) else None
    in
    let since = Circuit.size c in
    let pre_fanins = if incremental then Some (snapshot_fanins ()) else None in
    let fresh = Replace.splice ~verify_local c cand.sub cand.built in
    (if opts.inject_unsound = idx + 1 then
       match inverted_kind (Circuit.kind c fresh) with
       | Some k -> Circuit.set_kind c fresh k
       | None -> ());
    let sound =
      match snapshot with
      | None -> true
      | Some before -> (
        vstate.checks <- vstate.checks + 1;
        Obs.Counter.incr verify_checks_c;
        match Cec.check ?pool before c with
        | Cec.Equivalent -> true
        | Cec.Unknown _ ->
          (* Budget exhausted is not evidence of unsoundness: the local
             checks already passed, so the replacement stands. *)
          Obs.Counter.incr verify_unknown_c;
          if Obs.Journal.enabled () then
            Obs.Journal.emit "cec_unknown"
              [ ("root", Obs_json.Int g); ("idx", Obs_json.Int idx) ];
          true
        | Cec.Counterexample _ ->
          Circuit.overwrite c ~with_:before;
          vstate.refused <- vstate.refused + 1;
          Obs.Counter.incr verify_refused_c;
          Obs.Trace.instant ~cat:"engine" "engine.verify_refused";
          if Obs.Journal.enabled () then
            Obs.Journal.emit "splice_rollback"
              [
                ("root", Obs_json.Int g);
                ("idx", Obs_json.Int idx);
                ("reason", Obs_json.String "cec_counterexample");
              ];
          false)
    in
    if sound then begin
      incr replacements;
      Obs.Counter.incr accepted_c;
      Obs.Trace.instant ~cat:"engine" "engine.accepted";
      if Obs.Journal.enabled () then
        Obs.Journal.emit "splice_accept"
          [
            ("root", Obs_json.Int g);
            ("idx", Obs_json.Int idx);
            ("gain", Obs_json.Int cand.gain);
            ("new_paths", Obs_json.Int cand.new_paths);
            ("cut", Obs_json.Int (Array.length cand.sub.Subcircuit.inputs));
            ("exact", Obs_json.Bool cand.exact);
          ];
      mark_fresh since;
      Option.iter mark_swept_boundary pre_fanins
    end
  in
  let process_root g =
    Footprint.remove dirty g;
    let chosen =
      List.fold_left
        (fun best cand ->
          if better objective ~current_paths:labels.(g) cand best then Some cand
          else best)
        None
        (score_candidates ?pool ?cache ~st opts ~sim labels c g)
    in
    match chosen with
    | None -> ()
    | Some cand ->
      let idx = vstate.attempts in
      vstate.attempts <- idx + 1;
      if incremental then mark_decision cand;
      commit g idx cand
  in
  if not incremental then
    for id = 0 to Circuit.size c - 1 do
      Footprint.add dirty id
    done;
  (* Pop the queued roots in descending topological order: the outputs
     towards the inputs, every line after all lines it feeds, which is what
     Step 2 needs. (The paper numbers lines breadth-first from the inputs;
     the topological sort is already paid for by [Paths.labels] above.) *)
  let order = Circuit.topo_order c in
  let pos = Array.make (Circuit.size c) (-1) in
  Array.iteri (fun i id -> pos.(id) <- i) order;
  Footprint.Worklist.start_pass st.wl ~pos;
  let continue_ = ref true in
  while !continue_ do
    match Footprint.Worklist.pop st.wl with
    | None -> continue_ := false
    | Some g ->
      Obs.Counter.incr worklist_popped_c;
      if is_gate c g && Footprint.mem st.reachable g then process_root g
  done;
  !replacements

let optimize_with ?pool objective opts c =
  let reference = if opts.verify_global then Some (Circuit.copy c) else None in
  (* Establish "alive implies output-reachable (or Input)" before the first
     pass. Every splice sweeps, so the invariant then holds for the whole
     run, and [st.reachable] can only lose members by their death. *)
  ignore (Circuit.sweep c);
  let gates_before = Circuit.two_input_gate_count c in
  let paths_before = Paths.total c in
  (* One identification cache per run, shared across candidates, roots and
     passes — and, when [cache_dir] is set, warm-started from (and flushed
     back to) the disk store so later runs and concurrent processes share
     verdicts. Only the exact engine's verdicts are cacheable: the sampled
     engine consumes the per-candidate random stream, so replaying a cached
     verdict would change results between cache-on and cache-off runs. *)
  let cache =
    match opts.engine with
    | Comparison_fn.Exact when opts.id_cache ->
      Some (Idcache.create ?dir:opts.cache_dir ())
    | Comparison_fn.Exact | Comparison_fn.Sampled _ -> None
  in
  let passes = ref 0 in
  let replacements = ref 0 in
  let vstate = { attempts = 0; checks = 0; refused = 0 } in
  (* The dirty set starts all-true (first pass looks at everything) and
     persists across passes: an incremental pass only re-evaluates roots
     whose region some earlier splice touched. *)
  let st = make_run_state c in
  let continue = ref true in
  while !continue && !passes < opts.max_passes do
    incr passes;
    let r =
      Obs.Span.with_ "engine.pass" (fun () ->
          run_pass ?pool ?cache objective opts vstate st c)
    in
    replacements := !replacements + r;
    (match reference with
    | Some reference ->
      if not (Eval.equivalent_random ~patterns:2048 ~seed:opts.seed reference c)
      then failwith "Engine.optimize: pass broke circuit equivalence"
    | None -> ());
    if r = 0 then continue := false
  done;
  (* Per-class hit accounting + disk flush; serial, after the last batch
     merged, so the frozen-read discipline is respected. *)
  Option.iter Idcache.finish cache;
  {
    passes = !passes;
    replacements = !replacements;
    gates_before;
    gates_after = Circuit.two_input_gate_count c;
    paths_before;
    paths_after = Paths.total c;
    verify_checks = vstate.checks;
    verify_refused = vstate.refused;
  }

let optimize objective opts c =
  if opts.obs then Obs.enable ();
  let domains = Pool.domains_of_flag opts.domains in
  if domains <= 1 then optimize_with objective opts c
  else
    Pool.with_pool ~domains (fun pool -> optimize_with ~pool objective opts c)
