(* Miter-based combinational equivalence checking on top of Sat/Cnf. *)

exception Interface_mismatch of string

type verdict =
  | Equivalent
  | Counterexample of bool array
  | Unknown of int

let pp_verdict ppf = function
  | Equivalent -> Format.pp_print_string ppf "equivalent"
  | Counterexample v ->
    Format.fprintf ppf "counterexample %s"
      (String.concat ""
         (Array.to_list (Array.map (fun b -> if b then "1" else "0") v)))
  | Unknown budget -> Format.fprintf ppf "unknown (budget %d conflicts)" budget

type stats = {
  outputs_checked : int;
  vars : int;
  clauses : int;
  decisions : int;
  conflicts : int;
  propagations : int;
}

let default_budget = 100_000

let checks_c = Obs.Counter.make ~help:"equivalence checks run" "cec.checks"
let equivalent_c = Obs.Counter.make ~help:"checks proved equivalent" "cec.equivalent"
let cex_c = Obs.Counter.make ~help:"checks with a counterexample" "cec.counterexample"
let unknown_c = Obs.Counter.make ~help:"checks hitting the budget" "cec.unknown"
let decisions_c = Obs.Counter.make ~help:"SAT decisions" "cec.decisions"
let conflicts_c = Obs.Counter.make ~help:"SAT conflicts" "cec.conflicts"
let propagations_c = Obs.Counter.make ~help:"SAT propagations" "cec.propagations"
let miter_vars_h = Obs.Histogram.make ~help:"variables per output miter" "cec.miter_vars"

(* --- interface matching --------------------------------------------------- *)

(* Names when every entry is present, non-empty and unique. *)
let complete_unique names =
  let ok = ref true in
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun n ->
      match n with
      | None | Some "" -> ok := false
      | Some n ->
        if Hashtbl.mem seen n then ok := false else Hashtbl.add seen n ())
    names;
  if !ok then Some (Array.map Option.get names) else None

let same_name_set a b =
  let sa = Array.copy a and sb = Array.copy b in
  Array.sort compare sa;
  Array.sort compare sb;
  sa = sb

(* [pi_map.(j)] is the input position of circuit [a] matched to input
   position [j] of circuit [b]: by name when both sides carry complete
   identical name sets, positionally otherwise. *)
let match_inputs a b =
  let ia = Circuit.inputs a and ib = Circuit.inputs b in
  if Array.length ia <> Array.length ib then
    raise
      (Interface_mismatch
         (Printf.sprintf "input counts differ: %d vs %d" (Array.length ia)
            (Array.length ib)));
  let na = complete_unique (Array.map (Circuit.node_name a) ia) in
  let nb = complete_unique (Array.map (Circuit.node_name b) ib) in
  match (na, nb) with
  | Some na, Some nb when same_name_set na nb ->
    let index = Hashtbl.create (Array.length na) in
    Array.iteri (fun i n -> Hashtbl.add index n i) na;
    Array.map (fun n -> Hashtbl.find index n) nb
  | _ -> Array.init (Array.length ib) Fun.id

(* Output pairs [(i, j)] — position [i] of [a] against position [j] of [b] —
   ordered by [i]; by name under the same rules as inputs. *)
let match_outputs a b =
  let n = Circuit.num_outputs a in
  if n <> Circuit.num_outputs b then
    raise
      (Interface_mismatch
         (Printf.sprintf "output counts differ: %d vs %d" n
            (Circuit.num_outputs b)));
  let names c =
    complete_unique
      (Array.map (fun s -> if s = "" then None else Some s) (Circuit.output_names c))
  in
  match (names a, names b) with
  | Some na, Some nb when same_name_set na nb ->
    let index = Hashtbl.create n in
    Array.iteri (fun j nm -> Hashtbl.add index nm j) nb;
    Array.init n (fun i -> (i, Hashtbl.find index na.(i)))
  | _ -> Array.init n (fun i -> (i, i))

(* --- per-output miters ---------------------------------------------------- *)

(* Transitive-fanin cone of [root], as a node-id mask. *)
let cone c root =
  let mask = Array.make (Circuit.size c) false in
  let rec visit id =
    if not mask.(id) then begin
      mask.(id) <- true;
      match Circuit.kind c id with
      | Gate.Input | Gate.Const0 | Gate.Const1 -> ()
      | _ -> Array.iter visit (Circuit.fanins c id)
    end
  in
  visit root;
  mask

(* Encode just the cone of [root]; returns its literal. *)
let encode_cone env ~pi_lits ~order ~input_pos c root =
  let mask = cone c root in
  let node_lit = Array.make (Circuit.size c) min_int in
  Array.iter
    (fun id ->
      if mask.(id) then
        node_lit.(id) <-
          (match Circuit.kind c id with
          | Gate.Input -> pi_lits.(input_pos.(id))
          | Gate.Const0 -> Cnf.lfalse env
          | Gate.Const1 -> Cnf.ltrue env
          | kind ->
            let args =
              Array.to_list
                (Array.map (fun f -> node_lit.(f)) (Circuit.fanins c id))
            in
            (match kind with
            | Gate.Buf -> List.hd args
            | Gate.Not -> Sat.neg (List.hd args)
            | Gate.And -> Cnf.and_lits env args
            | Gate.Or -> Cnf.or_lits env args
            | Gate.Nand -> Sat.neg (Cnf.and_lits env args)
            | Gate.Nor -> Sat.neg (Cnf.or_lits env args)
            | Gate.Xor -> Cnf.xor_lits env args
            | Gate.Xnor -> Sat.neg (Cnf.xor_lits env args)
            | Gate.Input | Gate.Const0 | Gate.Const1 -> assert false)))
    order;
  node_lit.(root)

(* Map node id -> input position, for PI literal lookup. *)
let input_positions c =
  let pos = Array.make (Circuit.size c) (-1) in
  Array.iteri (fun j id -> pos.(id) <- j) (Circuit.inputs c);
  pos

type pair_result = {
  pr_verdict : verdict;
  pr_stats : stats;
}

(* One output pair: build a fresh solver holding both cones (structural
   hashing shares their common logic) and decide the XOR of the roots. *)
let check_pair ~budget a b pi_map orders (i, j) =
  let order_a, order_b = orders in
  let sat = Sat.create () in
  let env = Cnf.create sat in
  let n = Circuit.num_inputs a in
  let pi_lits_a = Array.init n (fun _ -> Sat.lit (Sat.new_var sat)) in
  let pi_lits_b = Array.map (fun k -> pi_lits_a.(k)) pi_map in
  let la =
    encode_cone env ~pi_lits:pi_lits_a ~order:order_a
      ~input_pos:(input_positions a) a
      (Circuit.outputs a).(i)
  in
  let lb =
    encode_cone env ~pi_lits:pi_lits_b ~order:order_b
      ~input_pos:(input_positions b) b
      (Circuit.outputs b).(j)
  in
  let stats () =
    {
      outputs_checked = 1;
      vars = Sat.num_vars sat;
      clauses = Sat.num_clauses sat;
      decisions = Sat.decisions sat;
      conflicts = Sat.conflicts sat;
      propagations = Sat.propagations sat;
    }
  in
  Obs.Histogram.observe miter_vars_h (Sat.num_vars sat);
  if la = lb then { pr_verdict = Equivalent; pr_stats = stats () }
  else begin
    (* Assert the miter output: the two roots differ. *)
    let diff = Cnf.xor_lits env [ la; lb ] in
    Sat.add_clause sat [| diff |];
    let verdict =
      let options = { Sat.Options.default with Sat.Options.budget = Some budget } in
      match Sat.solve ~options sat with
      | Sat.Unsat -> Equivalent
      | Sat.Unknown -> Unknown budget
      | Sat.Sat ->
        Counterexample (Array.map (fun l -> Sat.value sat (Sat.var_of l)) pi_lits_a)
    in
    { pr_verdict = verdict; pr_stats = stats () }
  end

(* Replay a counterexample through the reference simulator; a solver bug must
   never surface as a false inequivalence. *)
let validate_cex a b pi_map pairs cex =
  let vb = Array.map (fun k -> cex.(k)) pi_map in
  let oa = Eval.run a cex and ob = Eval.run b vb in
  if not (Array.exists (fun (i, j) -> oa.(i) <> ob.(j)) pairs) then
    failwith
      "Cec.check: solver returned an assignment that does not distinguish \
       the circuits (solver or encoder bug)"

let zero_stats =
  {
    outputs_checked = 0;
    vars = 0;
    clauses = 0;
    decisions = 0;
    conflicts = 0;
    propagations = 0;
  }

let add_stats s1 s2 =
  {
    outputs_checked = s1.outputs_checked + s2.outputs_checked;
    vars = s1.vars + s2.vars;
    clauses = s1.clauses + s2.clauses;
    decisions = s1.decisions + s2.decisions;
    conflicts = s1.conflicts + s2.conflicts;
    propagations = s1.propagations + s2.propagations;
  }

(* Encode both circuits fully into one throwaway environment and keep only
   the output pairs whose roots do NOT hash to the same literal: pairs the
   structural hash already collapses are equivalent by construction and need
   no solving. After a local rewrite almost every output survives this
   filter, which is what makes per-replacement verification in the engine
   affordable on large circuits. *)
let structural_filter a b pi_map pairs =
  let sat = Sat.create () in
  let env = Cnf.create sat in
  let n = Circuit.num_inputs a in
  let pi_a = Array.init n (fun _ -> Sat.lit (Sat.new_var sat)) in
  let pi_b = Array.map (fun k -> pi_a.(k)) pi_map in
  let la = Cnf.encode env ~pi_lits:pi_a a in
  let lb = Cnf.encode env ~pi_lits:pi_b b in
  Array.of_list
    (List.filter (fun (i, j) -> la.(i) <> lb.(j)) (Array.to_list pairs))

let check_stats ?(budget = default_budget) ?pool a b =
  Obs.Span.with_ "cec.check" (fun () ->
      Obs.Counter.incr checks_c;
      let pi_map = match_inputs a b in
      let all_pairs = match_outputs a b in
      let pairs = structural_filter a b pi_map all_pairs in
      let orders = (Circuit.topo_order a, Circuit.topo_order b) in
      let results =
        match pool with
        | Some pool when Array.length pairs > 1 ->
          Pool.map pool ~chunk:1 (check_pair ~budget a b pi_map orders) pairs
        | _ ->
          (* Serial path: stop at the first counterexample — it is the
             lowest-indexed one, which is also what the pool path reports. *)
          let n = Array.length pairs in
          let acc = ref [] in
          (try
             for idx = 0 to n - 1 do
               let r = check_pair ~budget a b pi_map orders pairs.(idx) in
               acc := r :: !acc;
               match r.pr_verdict with
               | Counterexample _ -> raise Exit
               | Equivalent | Unknown _ -> ()
             done
           with Exit -> ());
          Array.of_list (List.rev !acc)
      in
      let stats = Array.fold_left (fun s r -> add_stats s r.pr_stats) zero_stats results in
      let verdict =
        (* A counterexample (lowest output index first) beats Unknown. *)
        let cex =
          Array.find_opt
            (fun r -> match r.pr_verdict with Counterexample _ -> true | _ -> false)
            results
        in
        match cex with
        | Some { pr_verdict = Counterexample v; _ } ->
          validate_cex a b pi_map all_pairs v;
          Counterexample v
        | _ ->
          if Array.exists (fun r -> r.pr_verdict <> Equivalent) results then
            Unknown budget
          else Equivalent
      in
      (match verdict with
      | Equivalent -> Obs.Counter.incr equivalent_c
      | Counterexample _ ->
        Obs.Counter.incr cex_c;
        Obs.Trace.instant ~cat:"cec" "cec.counterexample"
      | Unknown _ ->
        Obs.Counter.incr unknown_c;
        Obs.Trace.instant ~cat:"cec" "cec.budget_exhausted");
      Obs.Counter.add decisions_c stats.decisions;
      Obs.Counter.add conflicts_c stats.conflicts;
      Obs.Counter.add propagations_c stats.propagations;
      if Obs.Journal.enabled () then
        Obs.Journal.emit "cec_check"
          [
            ( "verdict",
              Obs_json.String
                (match verdict with
                | Equivalent -> "equivalent"
                | Counterexample _ -> "counterexample"
                | Unknown _ -> "unknown") );
            ("outputs", Obs_json.Int (Array.length results));
            ("conflicts", Obs_json.Int stats.conflicts);
            ("decisions", Obs_json.Int stats.decisions);
          ];
      (verdict, stats))

let check ?budget ?pool a b = fst (check_stats ?budget ?pool a b)
