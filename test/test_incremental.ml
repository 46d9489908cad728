(* Incremental resynthesis (DESIGN.md §13): dirty-region tracking, the
   dirty-root worklist, the enumeration dedup table and the pool work-size
   cutoff. The load-bearing property is bit-identity — every incremental
   configuration must reproduce the full re-enumeration oracle exactly. *)

open Helpers

(* --- Footprint ------------------------------------------------------------- *)

let test_footprint_set () =
  let s = Footprint.create 1 in
  check int_ "empty" 0 (Footprint.count s);
  check bool_ "no member" false (Footprint.mem s 0);
  Footprint.add s 0;
  Footprint.add s 100 (* forces growth *);
  Footprint.add s 100;
  check int_ "two members" 2 (Footprint.count s);
  check bool_ "grown member" true (Footprint.mem s 100);
  check bool_ "out of range" false (Footprint.mem s 101);
  check bool_ "negative" false (Footprint.mem s (-1));
  Footprint.remove s 100;
  Footprint.remove s 100;
  check int_ "after remove" 1 (Footprint.count s);
  let all = Footprint.create ~all:true 4 in
  check int_ "all-dirty" 4 (Footprint.count all);
  check bool_ "all member" true (Footprint.mem all 3)

let test_footprint_cone () =
  (* mixed(): nb = NOT b feeds x1 and x2; x3 = XOR(x1, x2). The fanout cone
     of nb is {nb, x1, x2, x3}; the inputs a, b, d stay clean. *)
  let c = mixed () in
  let order = Circuit.topo_order c in
  let nb = order.(3) in
  let s = Footprint.create (Circuit.size c) in
  let added = Footprint.mark_fanout_cone c s [ nb ] in
  check int_ "cone size" 4 added;
  check int_ "count agrees" 4 (Footprint.count s);
  check bool_ "nb dirty" true (Footprint.mem s nb);
  Array.iteri
    (fun i id ->
      if i < 3 then check bool_ "input clean" false (Footprint.mem s id))
    order;
  (* re-marking from inside the cone adds nothing new *)
  check int_ "idempotent" 0 (Footprint.mark_fanout_cone c s [ order.(4) ]);
  (* a fresh seed outside the cone adds just itself (inputs have their
     whole fanout already dirty here) *)
  check int_ "input seed" 1 (Footprint.mark_fanout_cone c s [ order.(1) ])

let test_footprint_clear () =
  (* clear keeps the backing store but empties the membership *)
  let s = Footprint.create 4 in
  Footprint.add s 2;
  Footprint.add s 9;
  Footprint.clear s;
  check int_ "cleared" 0 (Footprint.count s);
  check bool_ "cleared member" false (Footprint.mem s 2);
  Footprint.add s 9;
  check int_ "reusable after clear" 1 (Footprint.count s)

(* --- Worklist ordering ------------------------------------------------------- *)

(* Emulate the engine's contract: a popped root is processed, i.e. removed
   from the dirty set; un-popped ids stay dirty for the next rebuild. *)
let drain wl =
  let rec go acc =
    match Footprint.Worklist.pop wl with
    | None -> List.rev acc
    | Some id ->
      Footprint.remove (Footprint.Worklist.fp wl) id;
      go (id :: acc)
  in
  go []

let test_worklist_ordering () =
  (* all-dirty seed pops in descending topological position *)
  let wl = Footprint.Worklist.create ~all:true 4 in
  Footprint.Worklist.start_pass wl ~pos:[| 0; 1; 2; 3 |];
  check (Alcotest.list int_) "descending" [ 3; 2; 1; 0 ] (drain wl);
  (* ...of the *position*, not the id: a permuted table reorders pops *)
  let wl = Footprint.Worklist.create ~all:true 4 in
  Footprint.Worklist.start_pass wl ~pos:[| 3; 2; 1; 0 |];
  check (Alcotest.list int_) "by position" [ 0; 1; 2; 3 ] (drain wl)

let test_worklist_cursor () =
  (* The sweep-cascade boundary case: a splice at the cursor re-dirties an
     upstream root (smaller position), which the same pass must still
     reach; a downstream push (larger position) waits for the next pass. *)
  let wl = Footprint.Worklist.create 8 in
  let pos = Array.init 8 (fun i -> i) in
  Footprint.Worklist.push wl 6;
  Footprint.Worklist.start_pass wl ~pos;
  check (Alcotest.option int_) "first pop" (Some 6) (Footprint.Worklist.pop wl);
  Footprint.remove (Footprint.Worklist.fp wl) 6;
  Footprint.Worklist.push wl 2 (* upstream: re-enqueued into this pass *);
  Footprint.Worklist.push wl 2 (* duplicate push is absorbed *);
  Footprint.Worklist.push wl 7 (* downstream: deferred *);
  check (Alcotest.list int_) "upstream reached once" [ 2 ] (drain wl);
  check bool_ "deferred id still dirty" true
    (Footprint.mem (Footprint.Worklist.fp wl) 7);
  Footprint.Worklist.start_pass wl ~pos;
  check (Alcotest.list int_) "next pass picks deferral" [ 7 ] (drain wl);
  (* an id dirtied mid-pass with no position (freshly spliced) also waits *)
  let wl = Footprint.Worklist.create 4 in
  Footprint.Worklist.push wl 3;
  Footprint.Worklist.start_pass wl ~pos:(Array.init 4 (fun i -> i));
  check (Alcotest.option int_) "pop placed" (Some 3) (Footprint.Worklist.pop wl);
  Footprint.remove (Footprint.Worklist.fp wl) 3;
  Footprint.Worklist.push wl 9 (* beyond the position table *);
  check bool_ "unplaced id deferred" true (Footprint.Worklist.pop wl = None);
  Footprint.Worklist.start_pass wl ~pos:(Array.init 10 (fun i -> i));
  check (Alcotest.list int_) "placed next pass" [ 9 ] (drain wl)

(* --- Subcircuit dedup reuse ------------------------------------------------- *)

let test_enumerate_dedup_reuse () =
  let dedup = Subcircuit.dedup () in
  let same_on c =
    Array.iter
      (fun g ->
        match Circuit.kind c g with
        | Gate.Input | Gate.Const0 | Gate.Const1 -> ()
        | _ ->
          let fresh = Subcircuit.enumerate ~k:4 ~max_candidates:16 c g in
          let reused = Subcircuit.enumerate ~dedup ~k:4 ~max_candidates:16 c g in
          if fresh <> reused then
            Alcotest.failf "root %d: dedup reuse changed enumeration" g)
      (Circuit.topo_order c)
  in
  same_on (c17 ());
  same_on (mixed ());
  for seed = 1 to 5 do
    same_on (random_circuit ~n_pi:6 ~n_gates:25 seed)
  done

(* --- Pool work-size cutoff -------------------------------------------------- *)

let test_pool_serial_cutoff () =
  Pool.with_pool ~domains:4 (fun pool ->
      let n = 100 in
      let slots = Array.make n (-1) in
      Pool.for_chunks pool ~serial_below:1000 ~n (fun ~slot ~lo ~hi ->
          for i = lo to hi - 1 do
            slots.(i) <- slot
          done);
      check bool_ "below cutoff stays on the calling domain" true
        (Array.for_all (fun s -> s = 0) slots);
      let input = Array.init 257 (fun i -> i) in
      let expect = Array.map (fun x -> x * 3) input in
      check bool_ "map below cutoff" true
        (Pool.map pool ~serial_below:1000 (fun x -> x * 3) input = expect);
      check bool_ "map above cutoff" true
        (Pool.map pool ~serial_below:10 (fun x -> x * 3) input = expect);
      check bool_ "map at boundary" true
        (Pool.map pool ~serial_below:257 (fun x -> x * 3) input = expect))

(* --- Bit-identity: incremental = full re-enumeration ------------------------ *)

let fingerprint objective options c0 =
  let c = Circuit.copy c0 in
  let stats =
    match objective with
    | Engine.Gates -> Procedure2.run ~options c
    | Engine.Paths -> Procedure3.run ~options c
  in
  Check.validate c;
  (stats, Bench_format.to_string c)

let base =
  { Engine.default_options with Engine.k = 4; max_candidates = 16; max_passes = 8 }

let full = { base with Engine.incremental = false }

let ext = { base with Engine.use_dontcares = true; max_units = 2 }

(* Each variant and the full re-enumeration oracle it must reproduce
   bit-exactly. Domain count and the identification cache change how the
   work runs, so they share [full]; don't-cares and multi-unit covers
   change the search, so they get their own oracle. *)
let variants =
  [
    ("defaults", base, full);
    ("domains=3", { base with Engine.domains = 3 }, full);
    ("no-id-cache", { base with Engine.id_cache = false }, full);
    ("don't-cares + max_units=2", ext, { ext with Engine.incremental = false });
  ]

let identical objective c =
  List.filter_map
    (fun (label, options, oracle) ->
      if fingerprint objective options c = fingerprint objective oracle c then None
      else Some label)
    variants

let identical_on objective c seed =
  match identical objective c with
  | [] -> ()
  | label :: _ ->
    Alcotest.failf "seed %d: incremental (%s) diverged from full path" seed label

let test_incremental_identity_gates () =
  identical_on Engine.Gates (c17 ()) 0;
  for seed = 120 to 130 do
    identical_on Engine.Gates (random_circuit ~n_pi:6 ~n_gates:40 ~n_po:4 seed) seed
  done

let test_incremental_identity_paths () =
  for seed = 131 to 138 do
    identical_on Engine.Paths (random_circuit ~n_pi:6 ~n_gates:40 ~n_po:4 seed) seed
  done

let test_incremental_identity_extensions () =
  (* don't-cares and multi-unit covers exercise the per-candidate rng and
     the care-set verification path *)
  let full = { ext with Engine.incremental = false } in
  for seed = 140 to 144 do
    let c = random_circuit ~n_pi:6 ~n_gates:32 ~n_po:4 seed in
    if fingerprint Engine.Gates ext c <> fingerprint Engine.Gates full c then
      Alcotest.failf "seed %d: incremental extensions diverged" seed
  done

let test_incremental_equivalence () =
  (* The optimised circuit must stay functionally equal to the original
     under the default (incremental) options. *)
  for seed = 150 to 156 do
    let c = random_circuit ~n_pi:6 ~n_gates:36 ~n_po:4 seed in
    let reference = Circuit.copy c in
    ignore (Procedure2.run ~options:base c);
    Check.validate c;
    if not (Eval.equivalent_exhaustive reference c) then
      Alcotest.failf "seed %d: incremental engine broke the function" seed
  done

(* Run [options] on the seed-160 circuit; returns the stats, the final
   circuit and the pop and cut counts the run added. *)
let measure options =
  let popped = Obs.Counter.make "engine.worklist_popped" in
  let candidates = Obs.Counter.make "engine.candidates" in
  let c = random_circuit ~n_pi:8 ~n_gates:120 ~n_po:6 160 in
  let p0 = Obs.Counter.value popped and c0 = Obs.Counter.value candidates in
  let stats = Procedure2.run ~options c in
  (stats, c, Obs.Counter.value popped - p0, Obs.Counter.value candidates - c0)

let with_metrics f =
  Obs.enable ();
  Fun.protect ~finally:Obs.disable f

let test_incremental_skips_clean_roots () =
  (* After the first pass the worklist pops only dirty roots: a multi-pass
     incremental run pops fewer roots and enumerates no more cuts than the
     full oracle, which re-queues every id on every pass, and lands the
     same circuit. *)
  with_metrics (fun () ->
      let si, ci, pops_i, cuts_i = measure base in
      let sf, cf, pops_f, cuts_f = measure full in
      check bool_ "multi-pass run" true (si.Engine.passes > 1);
      check bool_ "same result" true
        (si = sf && Bench_format.to_string ci = Bench_format.to_string cf);
      check bool_ "fewer pops than the oracle" true (pops_i < pops_f);
      check bool_ "no more cuts than the oracle" true (cuts_i <= cuts_f))

let test_oracle_pops_everything () =
  (* However few roots pass 1 dirtied, the oracle's pass 2 pops every live
     node of the circuit pass 1 left behind — every gate on a path to an
     output among them, since each splice sweeps the rest. *)
  with_metrics (fun () ->
      let one o = { o with Engine.max_passes = 1 } in
      let two o = { o with Engine.max_passes = 2 } in
      let s1, after1, pops1, _ = measure (one full) in
      let s2, _, pops2, _ = measure (two full) in
      let _, _, ipops1, _ = measure (one base) in
      let _, _, ipops2, _ = measure (two base) in
      check bool_ "pass 1 replaced something" true (s1.Engine.replacements > 0);
      check int_ "two passes ran" 2 s2.Engine.passes;
      let live = Array.length (Circuit.topo_order after1) in
      check int_ "oracle pass 2 pops every live node" live (pops2 - pops1);
      check bool_ "incremental pass 2 pops fewer" true (ipops2 - ipops1 < live))

(* Sweep-cascade regression: [Replace.splice] ends in a sweep that can kill
   nodes upstream of the cut (a cut input left without consumers dies, then
   its fanins lose a consumer, ...). Survivors on that boundary change
   fanout degree, which removability accounting reads, so roots downstream
   of them must be re-dirtied. These seeds all diverged (full found more
   replacements than incremental) before the sweep-boundary marking in
   [Engine.run_pass]. *)
let test_sweep_cascade_boundary () =
  List.iter
    (fun seed ->
      let profile =
        {
          Circuit_gen.name = "incr";
          n_pi = 10;
          n_po = 6;
          n_gates = 70;
          depth = 8;
          combine_pct = 25;
          xor_pct = 5;
          seed = Int64.of_int seed;
        }
      in
      match identical Engine.Gates (Circuit_gen.generate profile) with
      | [] -> ()
      | label :: _ ->
        Alcotest.failf "seed %d: incremental (%s) missed a swept-boundary region"
          seed label)
    [ 83418; 83420; 83490; 83566 ]

(* --- qcheck: identity over generated circuits -------------------------------- *)

let gen_profile seed =
  {
    Circuit_gen.name = "incr";
    n_pi = 10;
    n_po = 6;
    n_gates = 70;
    depth = 8;
    combine_pct = 25;
    xor_pct = 5;
    seed = Int64.of_int seed;
  }

let prop_identity objective ~name =
  QCheck.Test.make ~name ~count:6 (QCheck.int_range 1 100_000) (fun seed ->
      identical objective (Circuit_gen.generate (gen_profile seed)) = [])

let prop_incremental_identity =
  prop_identity Engine.Gates ~name:"incremental = full (circuit_gen)"

let prop_incremental_identity_paths =
  prop_identity Engine.Paths ~name:"incremental = full, paths objective (circuit_gen)"

let suite =
  [
    ("footprint: set operations", `Quick, test_footprint_set);
    ("footprint: clear keeps the backing store", `Quick, test_footprint_clear);
    ("footprint: fanout cone marking", `Quick, test_footprint_cone);
    ("worklist: topological pop order", `Quick, test_worklist_ordering);
    ("worklist: cursor and deferral", `Quick, test_worklist_cursor);
    ("enumerate: dedup reuse is invisible", `Quick, test_enumerate_dedup_reuse);
    ("pool: work-size cutoff", `Quick, test_pool_serial_cutoff);
    ("identity: gates objective", `Quick, test_incremental_identity_gates);
    ("identity: paths objective", `Quick, test_incremental_identity_paths);
    ("identity: don't-cares and multi-unit", `Quick, test_incremental_identity_extensions);
    ("equivalence under default options", `Quick, test_incremental_equivalence);
    ("second pass skips clean roots", `Quick, test_incremental_skips_clean_roots);
    ("oracle pops every live node each pass", `Quick, test_oracle_pops_everything);
    ("sweep-cascade boundary re-dirtied", `Quick, test_sweep_cascade_boundary);
  ]

let qchecks = [ prop_incremental_identity; prop_incremental_identity_paths ]
