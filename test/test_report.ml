open Helpers

let test_int_formatting () =
  check bool_ "groups" true (Table.int 1192971 = "1,192,971");
  check bool_ "small" true (Table.int 42 = "42");
  check bool_ "boundary" true (Table.int 1000 = "1,000");
  check bool_ "negative" true (Table.int (-1234) = "-1,234")

let test_render () =
  let t = Table.create ~title:"demo" ~columns:[ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "beta"; "22" ];
  let s = Table.render t in
  check bool_ "title" true (String.length s > 0 && String.sub s 0 7 = "== demo");
  check bool_ "row order kept" true
    (let a = String.index s 'a' in
     String.length s > a)

(* --- run reports (Obs.Journal files) -------------------------------------- *)

let write_journal lines =
  let path = Filename.temp_file "sft_test" ".journal" in
  let oc = open_out path in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  close_out oc;
  path

let with_journal lines f =
  let path = write_journal lines in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

let header = {|{"ev":"journal_begin","journal_version":1,"tool":"sft","cmd":"optimize","ts":100.0}|}

let footer ~candidates ~identified =
  Printf.sprintf
    {|{"ev":"journal_end","events":5,"dropped":0,"wall_s":2.5,"counters":{"engine.candidates":%d,"engine.realised":%d}}|}
    candidates identified

let body =
  [
    {|{"ev":"span","seq":0,"ts":0.5,"dom":0,"name":"engine.pass","dur_s":0.4}|};
    {|{"ev":"identify","seq":1,"ts":0.6,"dom":0,"src":"fresh","verdict":true}|};
    {|{"ev":"identify","seq":2,"ts":0.7,"dom":1,"src":"run_cache","verdict":true}|};
    {|{"ev":"splice_accept","seq":3,"ts":0.8,"dom":0,"root":7,"idx":0,"gain":2,"new_paths":10,"cut":4,"exact":true}|};
    {|{"ev":"splice_rollback","seq":4,"ts":0.9,"dom":0,"root":9,"idx":1,"reason":"cec_counterexample"}|};
  ]

let load_ok path =
  match Run_report.load path with
  | Ok r -> r
  | Error msg -> Alcotest.failf "load failed: %s" msg

let test_run_report_load_and_funnel () =
  with_journal
    ((header :: body) @ [ footer ~candidates:50 ~identified:10 ])
    (fun path ->
      let r = load_ok path in
      check bool_ "cmd from header" true (Run_report.cmd r = "optimize");
      check int_ "event count" 5 (Run_report.events r);
      check bool_ "not truncated" true (not (Run_report.truncated r));
      check bool_ "wall from footer" true (Run_report.wall_s r = 2.5);
      let f = Run_report.funnel r in
      check int_ "candidates from counter" 50 f.Run_report.candidates;
      check int_ "identified from counter" 10 f.Run_report.identified;
      check int_ "verified = accepts + rollbacks" 2 f.Run_report.verified;
      check int_ "committed = accepts" 1 f.Run_report.committed;
      check bool_ "funnel holds" true (Run_report.funnel_ok r);
      (match Run_report.phases r with
      | [ p ] ->
        check bool_ "phase name" true (p.Run_report.ph_name = "engine.pass");
        check int_ "phase calls" 1 p.Run_report.ph_calls
      | ps -> Alcotest.failf "expected one phase, got %d" (List.length ps));
      let text = Run_report.render r in
      check bool_ "render mentions the funnel" true (contains ~affix:"funnel" text))

let test_run_report_funnel_violation () =
  (* More commit attempts than identifications: the invariant must trip
     both per-run and in the top-level JSON conjunction. *)
  with_journal
    ((header :: body) @ [ footer ~candidates:50 ~identified:1 ])
    (fun path ->
      let r = load_ok path in
      check bool_ "funnel violated" true (not (Run_report.funnel_ok r));
      match Run_report.to_json_value [ r ] with
      | Obs_json.Obj fields ->
        check bool_ "top-level funnel_ok false" true
          (List.assoc "funnel_ok" fields = Obs_json.Bool false)
      | _ -> Alcotest.fail "to_json_value not an object")

let test_run_report_truncated () =
  (* No footer at all (crashed run): load succeeds, counter-derived funnel
     stages are skipped, wall falls back to the event high-water mark. *)
  with_journal (header :: body) (fun path ->
      let r = load_ok path in
      check bool_ "truncated flagged" true (Run_report.truncated r);
      check int_ "events still counted" 5 (Run_report.events r);
      check bool_ "wall from last event ts" true (Run_report.wall_s r = 0.9);
      check bool_ "funnel vacuously ok without footer" true
        (Run_report.funnel_ok r))

let test_run_report_rejects_non_journal () =
  with_journal [ {|{"not":"a journal"}|} ] (fun path ->
      match Run_report.load path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "loaded a non-journal");
  with_journal
    [ {|{"ev":"journal_begin","journal_version":999,"cmd":"x","ts":0.0}|} ]
    (fun path ->
      match Run_report.load path with
      | Error msg -> check bool_ "version named in error" true (contains ~affix:"999" msg)
      | Ok _ -> Alcotest.fail "loaded an unsupported version")

let test_run_report_json_and_diff () =
  with_journal
    ((header :: body) @ [ footer ~candidates:50 ~identified:10 ])
    (fun path ->
      let r = load_ok path in
      (* The JSON document must re-parse and carry the documented keys. *)
      (match Obs_json.parse (Obs_json.to_string (Run_report.to_json_value [ r ])) with
      | Error msg -> Alcotest.failf "report JSON invalid: %s" msg
      | Ok doc ->
        check bool_ "report_version present" true
          (Obs_json.member "report_version" doc = Some (Obs_json.Int 3));
        (match Obs_json.member "runs" doc with
        | Some (Obs_json.List [ run ]) ->
          List.iter
            (fun k ->
              check bool_ (k ^ " present") true
                (Obs_json.member k run <> None))
            [
              "path"; "cmd"; "events"; "funnel"; "phases"; "runtime";
              "identify"; "sat_escalations"; "cec_checks";
            ]
        | _ -> Alcotest.fail "runs is not a one-element list"));
      let d = Run_report.diff r r in
      check bool_ "self-diff renders" true (String.length d > 0))

let suite =
  [
    ("thousands separators", `Quick, test_int_formatting);
    ("render", `Quick, test_render);
    ("run report: load and funnel", `Quick, test_run_report_load_and_funnel);
    ("run report: funnel violation", `Quick, test_run_report_funnel_violation);
    ("run report: truncated journal", `Quick, test_run_report_truncated);
    ("run report: rejects non-journals", `Quick, test_run_report_rejects_non_journal);
    ("run report: json schema and diff", `Quick, test_run_report_json_and_diff);
  ]
