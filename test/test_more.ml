open Helpers

(* Assorted second-pass coverage: API contracts and small behaviours not
   exercised by the main suites. *)

let test_longest_path_endpoints () =
  let c = c17 () in
  let p = Levelize.longest_path c in
  check bool_ "starts at an input" true (Circuit.kind c p.(0) = Gate.Input);
  check bool_ "ends at an output" true (Circuit.is_output c p.(Array.length p - 1));
  check int_ "length = depth + 1" (Levelize.depth c + 1) (Array.length p)

let test_gate_arity_errors () =
  (match Gate.eval Gate.Not [| true; false |] with
  | _ -> Alcotest.fail "NOT with two inputs must fail"
  | exception Invalid_argument _ -> ());
  (match Gate.eval Gate.And [||] with
  | _ -> Alcotest.fail "AND with no inputs must fail"
  | exception Invalid_argument _ -> ());
  match Gate.eval_word Gate.Buf [||] with
  | _ -> Alcotest.fail "BUF with no inputs must fail"
  | exception Invalid_argument _ -> ()

let test_truthtable_set_immutable () =
  let f = Truthtable.const 3 false in
  let g = Truthtable.set f 5 true in
  check bool_ "original untouched" false (Truthtable.get f 5);
  check bool_ "copy updated" true (Truthtable.get g 5)

let test_rng_split_independent () =
  let parent = Rng.create 7L in
  let child = Rng.split parent in
  let a = Array.init 16 (fun _ -> Rng.next64 parent) in
  let b = Array.init 16 (fun _ -> Rng.next64 child) in
  check bool_ "streams differ" true (a <> b)

let test_bench_whitespace_and_comments () =
  let text =
    "  # leading comment\n\n INPUT( a )\nINPUT(b)   # trailing\nOUTPUT(z)\n\
     z = AND( a , b )\n"
  in
  let c = Bench_format.of_string text in
  check int_ "two inputs" 2 (Circuit.num_inputs c);
  check int_ "one gate" 1 (Circuit.num_gates c)

let test_bench_input_as_gate_rejected () =
  match Bench_format.of_string "INPUT(a)\nOUTPUT(z)\nz = INPUT(a)\n" with
  | _ -> Alcotest.fail "INPUT as a gate kind must fail"
  | exception Bench_format.Parse_error _ -> ()

let test_campaign_tiny_budget () =
  let c = c17 () in
  let r = Campaign.exec { Campaign.default with max_patterns = 10; seed = 3L } c in
  check int_ "exactly 10 patterns" 10 r.Campaign.patterns_applied;
  check bool_ "eff within budget" true (r.Campaign.last_effective_pattern <= 10)

let test_detect_single () =
  let c = c17 () in
  let cmp = Compiled.of_circuit c in
  let sim = Fsim.create cmp in
  (* G22 output s-a-0: pattern with G22 = 1 detects it. All-ones input:
     G10 = NAND(1,1) = 0, G11 = 0, G16 = 1, G19 = 1, G22 = NAND(0,1) = 1. *)
  let g22 = (Circuit.outputs c).(0) in
  let fault = { Fault.site = Fault.Stem g22; stuck = false } in
  check bool_ "detected" true
    (Fsim.detect_single sim fault [| true; true; true; true; true |])

let test_equiv_random_finds_const_diff () =
  let mk v =
    let c = Circuit.create () in
    let a = Circuit.add_input c in
    let k = Circuit.add_const c v in
    let g = Circuit.add_gate c Gate.And [| a; k |] in
    Circuit.mark_output c g;
    c
  in
  check bool_ "differs" false (Eval.equivalent_random ~seed:1L (mk true) (mk false))

let test_pp_smoke () =
  let spec = { Comparison_fn.perm = [| 2; 1 |]; lo = 1; hi = 2; complemented = true } in
  let s = Format.asprintf "%a" Comparison_fn.pp_spec spec in
  check bool_ "mentions lower bound" true (contains ~affix:"L=1" s);
  check bool_ "mentions complement" true (contains ~affix:"complemented" s)

let test_table_alignment () =
  let t = Table.create ~title:"t" ~columns:[ "a"; "b" ] in
  Table.add_row t [ "xxxx"; "1" ];
  Table.add_row t [ "y"; "22" ];
  let lines = String.split_on_char '\n' (Table.render t) in
  (* all data lines start at column 0 and the second column is aligned *)
  match lines with
  | _title :: header :: _sep :: r1 :: r2 :: _ ->
    check int_ "b column aligned" (String.index header 'b') (String.index r1 '1');
    check bool_ "second row aligned" true (String.index r2 '2' = String.index header 'b')
  | _ -> Alcotest.fail "unexpected render shape"

let test_subcircuit_cap_respected () =
  let c = c17 () in
  let g22 = (Circuit.outputs c).(0) in
  let subs = Subcircuit.enumerate ~k:5 ~max_candidates:2 c g22 in
  check bool_ "capped" true (List.length subs <= 2)

let test_engine_max_passes () =
  let c = random_circuit ~n_pi:5 ~n_gates:25 3 in
  let options = { Engine.default_options with Engine.k = 4; max_passes = 1 } in
  let stats = Procedure2.run ~options c in
  check bool_ "at most one pass" true (stats.Engine.passes <= 1)

let test_mapper_depth_positive () =
  let r = Mapper.map (mixed ()) in
  check bool_ "depth at least 1" true (r.Mapper.longest >= 1)

let suite =
  [
    ("longest path endpoints", `Quick, test_longest_path_endpoints);
    ("gate arity errors", `Quick, test_gate_arity_errors);
    ("truthtable set is persistent", `Quick, test_truthtable_set_immutable);
    ("rng split independence", `Quick, test_rng_split_independent);
    ("bench whitespace/comments", `Quick, test_bench_whitespace_and_comments);
    ("bench INPUT as gate rejected", `Quick, test_bench_input_as_gate_rejected);
    ("campaign with budget < batch", `Quick, test_campaign_tiny_budget);
    ("detect_single", `Quick, test_detect_single);
    ("random equivalence finds constant diff", `Quick, test_equiv_random_finds_const_diff);
    ("pp_spec smoke", `Quick, test_pp_smoke);
    ("table column alignment", `Quick, test_table_alignment);
    ("subcircuit candidate cap", `Quick, test_subcircuit_cap_respected);
    ("engine pass limit", `Quick, test_engine_max_passes);
    ("mapper depth positive", `Quick, test_mapper_depth_positive);
  ]
