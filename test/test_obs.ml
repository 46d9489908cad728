(* The sft.obs observability subsystem: atomic counters under domain pools,
   span nesting, the JSON exporter, and the guarantee that enabling probes
   never changes a computation's result. *)

open Helpers

(* Every test flips the global switch; leave the registry disabled and
   empty for whoever runs next. *)
let with_obs f =
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    f

let test_counter_atomic_under_pool () =
  with_obs (fun () ->
      let c = Obs.Counter.make "test.obs.atomic" in
      let h = Obs.Histogram.make "test.obs.atomic_h" in
      let n = 100_000 in
      Pool.with_pool ~domains:4 (fun pool ->
          Pool.for_chunks pool ~chunk:97 ~n (fun ~slot:_ ~lo ~hi ->
              for _ = lo to hi - 1 do
                Obs.Counter.incr c
              done;
              Obs.Counter.add c (hi - lo);
              Obs.Histogram.observe h (hi - lo)));
      check int_ "no lost increments across 4 domains" (2 * n) (Obs.Counter.value c);
      check int_ "histogram sum equals range total" n (Obs.Histogram.sum h))

let test_disabled_probes_record_nothing () =
  Obs.reset ();
  Obs.disable ();
  let c = Obs.Counter.make "test.obs.disabled" in
  let h = Obs.Histogram.make "test.obs.disabled_h" in
  Obs.Counter.incr c;
  Obs.Counter.add c 41;
  Obs.Histogram.observe h 7;
  let r = Obs.Span.with_ "test.obs.disabled_span" (fun () -> 11) in
  check int_ "span passes the result through" 11 r;
  check int_ "disabled counter stays zero" 0 (Obs.Counter.value c);
  check int_ "disabled histogram stays empty" 0 (Obs.Histogram.count h);
  check bool_ "disabled span records nothing" true
    (not
       (List.exists
          (fun s -> s.Obs.Span.name = "test.obs.disabled_span")
          (Obs.Span.snapshot ())))

let test_span_nesting () =
  with_obs (fun () ->
      for _ = 1 to 3 do
        Obs.Span.with_ "test.obs.outer" (fun () ->
            Obs.Span.with_ "test.obs.inner" ignore;
            Obs.Span.with_ "test.obs.inner" ignore)
      done;
      (* an exception must still close the span *)
      (try Obs.Span.with_ "test.obs.outer" (fun () -> failwith "boom")
       with Failure _ -> ());
      let outer =
        List.find (fun s -> s.Obs.Span.name = "test.obs.outer") (Obs.Span.snapshot ())
      in
      check int_ "outer calls" 4 outer.Obs.Span.calls;
      check bool_ "outer wall is non-negative" true (outer.Obs.Span.wall >= 0.);
      match outer.Obs.Span.children with
      | [ inner ] ->
        check bool_ "inner nested under outer" true (inner.Obs.Span.name = "test.obs.inner");
        check int_ "inner calls accumulate" 6 inner.Obs.Span.calls
      | kids -> Alcotest.failf "expected one child, got %d" (List.length kids))

let test_json_roundtrip () =
  let v =
    Obs_json.Obj
      [
        ("int", Obs_json.Int 42);
        ("neg", Obs_json.Int (-7));
        ("float", Obs_json.Float 0.125);
        ("string", Obs_json.String "a \"quoted\"\nline\twith \\ escapes");
        ("null", Obs_json.Null);
        ("bools", Obs_json.List [ Obs_json.Bool true; Obs_json.Bool false ]);
        ("nested", Obs_json.Obj [ ("empty_list", Obs_json.List []); ("empty_obj", Obs_json.Obj []) ]);
      ]
  in
  (match Obs_json.parse (Obs_json.to_string v) with
  | Ok v' -> check bool_ "print/parse round-trip" true (v = v')
  | Error msg -> Alcotest.failf "round-trip parse failed: %s" msg);
  (match Obs_json.parse "{\"a\": [1, 2" with
  | Ok _ -> Alcotest.fail "truncated input parsed"
  | Error _ -> ());
  match Obs_json.parse "  {\"u\": \"\\u0041\\u00e9\"}  " with
  | Ok (Obs_json.Obj [ ("u", Obs_json.String s) ]) ->
    check bool_ "unicode escapes decode to UTF-8" true (s = "A\xc3\xa9")
  | Ok _ | Error _ -> Alcotest.fail "unicode escape parse failed"

let test_export_schema () =
  with_obs (fun () ->
      let c = Obs.Counter.make "test.obs.export" in
      Obs.Counter.add c 5;
      Obs.Histogram.observe (Obs.Histogram.make "test.obs.export_h") 3;
      Obs.Span.with_ "test.obs.export_span" ignore;
      match Obs_json.parse (Obs.Export.to_json ()) with
      | Error msg -> Alcotest.failf "exporter emits invalid JSON: %s" msg
      | Ok doc ->
        check bool_ "schema_version is 1" true
          (Obs_json.member "schema_version" doc = Some (Obs_json.Int 1));
        check bool_ "enabled is true" true
          (Obs_json.member "enabled" doc = Some (Obs_json.Bool true));
        (match Obs_json.member "counters" doc with
        | Some (Obs_json.Obj kvs) ->
          check bool_ "counter value exported" true
            (List.assoc_opt "test.obs.export" kvs = Some (Obs_json.Int 5))
        | _ -> Alcotest.fail "counters object missing");
        (match Obs_json.member "histograms" doc with
        | Some (Obs_json.Obj kvs) -> (
          match List.assoc_opt "test.obs.export_h" kvs with
          | Some h ->
            check bool_ "histogram count exported" true
              (Obs_json.member "count" h = Some (Obs_json.Int 1));
            check bool_ "histogram sum exported" true
              (Obs_json.member "sum" h = Some (Obs_json.Int 3))
          | None -> Alcotest.fail "histogram missing from export")
        | _ -> Alcotest.fail "histograms object missing");
        match Obs_json.member "trace" doc with
        | Some (Obs_json.List spans) ->
          check bool_ "span exported in trace" true
            (List.exists
               (fun s ->
                 Obs_json.member "name" s
                 = Some (Obs_json.String "test.obs.export_span"))
               spans)
        | _ -> Alcotest.fail "trace list missing")

let test_json_error_paths () =
  let expect_error label s =
    match Obs_json.parse s with
    | Ok _ -> Alcotest.failf "%s: malformed input parsed" label
    | Error msg ->
      check bool_ (label ^ ": error message is non-empty") true (String.length msg > 0)
  in
  expect_error "unknown escape" "\"a\\qb\"";
  expect_error "truncated unicode escape" "\"\\u00\"";
  expect_error "non-hex unicode escape" "{\"u\": \"\\uZZZZ\"}";
  expect_error "unterminated string" "\"abc";
  expect_error "trailing garbage" "{\"a\": 1} extra";
  expect_error "lone minus" "-";
  expect_error "bare word" "nul";
  expect_error "empty input" "   ";
  (* Nesting is depth-limited (clean error, not Stack_overflow). *)
  let deep n = String.make n '[' ^ String.make n ']' in
  (match Obs_json.parse (deep 100) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "depth 100 rejected: %s" msg);
  match Obs_json.parse (deep 100_000) with
  | Ok _ -> Alcotest.fail "absurdly deep nesting parsed"
  | Error msg ->
    check bool_ "deep-nesting error names the limit" true
      (String.length msg > 0)

let test_histogram_edges () =
  with_obs (fun () ->
      let h = Obs.Histogram.make "test.obs.edges_h" in
      Obs.Histogram.observe h 0;
      Obs.Histogram.observe h 1;
      Obs.Histogram.observe h (-5);
      Obs.Histogram.observe h max_int;
      check int_ "all edge observations counted" 4 (Obs.Histogram.count h);
      check int_ "sum is exact" (max_int - 4) (Obs.Histogram.sum h);
      (* The exporter must survive the extremes (min/max/buckets). *)
      match Obs_json.parse (Obs.Export.to_json ()) with
      | Error msg -> Alcotest.failf "export with edge values invalid: %s" msg
      | Ok doc -> (
        match
          Option.bind (Obs_json.member "histograms" doc)
            (Obs_json.member "test.obs.edges_h")
        with
        | Some hj ->
          check bool_ "min exported" true
            (Obs_json.member "min" hj = Some (Obs_json.Int (-5)));
          check bool_ "max exported" true
            (Obs_json.member "max" hj = Some (Obs_json.Int max_int))
        | None -> Alcotest.fail "edge histogram missing from export"))

(* --- event tracing -------------------------------------------------------- *)

let with_trace f =
  let cap0 = Obs.Trace.capacity () in
  Obs.reset ();
  Obs.Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.disable ();
      Obs.Trace.set_capacity cap0;
      Obs.reset ())
    f

(* Count B/E balance and proper nesting per tid over an exported trace. *)
let check_balanced events =
  let stacks : (int, string list ref) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun ev ->
      let field k =
        match Obs_json.member k ev with
        | Some (Obs_json.String s) -> s
        | _ -> ""
      in
      let tid =
        match Obs_json.member "tid" ev with Some (Obs_json.Int t) -> t | _ -> -1
      in
      let s =
        match Hashtbl.find_opt stacks tid with
        | Some s -> s
        | None ->
          let s = ref [] in
          Hashtbl.add stacks tid s;
          s
      in
      match field "ph" with
      | "B" -> s := field "name" :: !s
      | "E" -> (
        match !s with
        | top :: rest ->
          check bool_ "E matches innermost B" true (top = field "name");
          s := rest
        | [] -> Alcotest.fail "E without matching B")
      | _ -> ())
    events;
  Hashtbl.iter
    (fun _ s -> check bool_ "no span left open" true (!s = []))
    stacks

let test_trace_disabled_is_silent () =
  Obs.reset ();
  Obs.Trace.disable ();
  Obs.Trace.instant "test.trace.noop";
  Obs.Trace.complete "test.trace.noop" ~ts:0. ~dur:1.;
  let s = Obs.Trace.stats () in
  check int_ "nothing recorded while disabled" 0 s.Obs.Trace.recorded;
  check int_ "nothing dropped while disabled" 0 s.Obs.Trace.dropped

let test_trace_records_and_exports () =
  with_trace (fun () ->
      Obs.Span.with_ "test.trace.outer" (fun () ->
          Obs.Trace.instant ~cat:"test" "test.trace.tick";
          Obs.Span.with_ "test.trace.inner" ignore);
      Obs.Trace.complete ~cat:"test" "test.trace.block" ~ts:(Obs.now ()) ~dur:0.25;
      let s = Obs.Trace.stats () in
      check int_ "B+E pairs, instant and X recorded" 6 s.Obs.Trace.recorded;
      check int_ "nothing dropped" 0 s.Obs.Trace.dropped;
      match Obs_json.parse (Obs.Trace.to_json ()) with
      | Error msg -> Alcotest.failf "trace export invalid: %s" msg
      | Ok (Obs_json.List events) ->
        check_balanced events;
        let has name ph =
          List.exists
            (fun ev ->
              Obs_json.member "name" ev = Some (Obs_json.String name)
              && Obs_json.member "ph" ev = Some (Obs_json.String ph))
            events
        in
        check bool_ "instant exported as i" true (has "test.trace.tick" "i");
        check bool_ "complete exported as X" true (has "test.trace.block" "X");
        check bool_ "thread metadata exported" true (has "thread_name" "M");
        List.iter
          (fun ev ->
            (match Obs_json.member "pid" ev with
            | Some (Obs_json.Int 1) -> ()
            | _ -> Alcotest.fail "event without pid 1");
            match Obs_json.member "ts" ev with
            | Some (Obs_json.Float ts) ->
              check bool_ "ts clamped to >= 0" true (ts >= 0.)
            | Some (Obs_json.Int ts) ->
              check bool_ "ts clamped to >= 0" true (ts >= 0)
            | Some _ -> Alcotest.fail "non-numeric ts"
            | None -> () (* M metadata carries no ts *))
          events
      | Ok _ -> Alcotest.fail "trace export is not an array")

let test_trace_overflow_stays_balanced () =
  with_trace (fun () ->
      Obs.Trace.set_capacity 16;
      (* The capacity applies to buffers created after the call; force a
         fresh ring for this domain. *)
      Obs.Trace.reset ();
      for _ = 1 to 100 do
        Obs.Span.with_ "test.trace.span" (fun () ->
            Obs.Trace.instant "test.trace.tick")
      done;
      let s = Obs.Trace.stats () in
      check bool_ "overflow drops are counted" true (s.Obs.Trace.dropped > 0);
      check bool_ "recorded events bounded by capacity" true (s.Obs.Trace.recorded <= 16);
      match Obs_json.parse (Obs.Trace.to_json ()) with
      | Error msg -> Alcotest.failf "overflowed trace export invalid: %s" msg
      | Ok (Obs_json.List events) ->
        check_balanced events;
        check bool_ "dropped-events marker present" true
          (List.exists
             (fun ev ->
               Obs_json.member "name" ev = Some (Obs_json.String "trace.dropped"))
             events)
      | Ok _ -> Alcotest.fail "trace export is not an array")

(* Run [f] with the file descriptor [fd] redirected to a temporary file and
   return what was written to it. *)
let capture fd f =
  let tmp = Filename.temp_file "sft_obs" ".out" in
  flush_all ();
  let saved = Unix.dup fd in
  let out = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 out fd;
  Unix.close out;
  Fun.protect
    ~finally:(fun () ->
      flush_all ();
      Unix.dup2 saved fd;
      Unix.close saved)
    f;
  let text = In_channel.with_open_bin tmp In_channel.input_all in
  Sys.remove tmp;
  text

let count_lines_with affix text =
  List.length (List.filter (contains ~affix) (String.split_on_char '\n' text))

let test_export_finish () =
  let request metrics trace trace_out = { Obs.Export.metrics; trace; trace_out } in
  (* --trace with --metrics text: the dump ends with the span tree, so the
     tree appears once across stdout and stderr. *)
  with_obs (fun () ->
      Obs.Span.with_ "test.export.span" ignore;
      let r = request (Some Obs.Export.Text) true None in
      let err = ref "" in
      let out = capture Unix.stdout (fun () ->
          err := capture Unix.stderr (fun () -> Obs.Export.finish ~prog:"test" r))
      in
      check int_ "span tree printed once" 1
        (count_lines_with "test.export.span" (out ^ !err));
      check int_ "--trace alone prints the tree on stderr" 1
        (count_lines_with "test.export.span"
           (capture Unix.stderr (fun () ->
                Obs.Export.finish ~prog:"test" (request None true None)))));
  (* --trace-out with an overflowed ring: the file is written, and the
     drops are reported on stderr under the given program name. *)
  with_trace (fun () ->
      Obs.Trace.set_capacity 16;
      Obs.Trace.reset ();
      for _ = 1 to 100 do
        Obs.Trace.instant "test.export.tick"
      done;
      let path = Filename.temp_file "sft_obs" ".trace.json" in
      let err =
        capture Unix.stderr (fun () ->
            Obs.Export.finish ~prog:"test" (request None false (Some path)))
      in
      let written = In_channel.with_open_bin path In_channel.input_all in
      Sys.remove path;
      check bool_ "trace file is a JSON array" true
        (match Obs_json.parse written with Ok (Obs_json.List _) -> true | _ -> false);
      check int_ "drop warning printed" 1
        (count_lines_with (Printf.sprintf "test: trace %s:" path) err))

let test_trace_overflow_balanced_under_pool () =
  (* The documented drop contract from multiple domains: tiny rings, pool
     workers emitting concurrently — drops are counted and the exported
     stream still has balanced B/E pairs on every tid. *)
  with_trace (fun () ->
      Obs.Trace.set_capacity 16;
      Obs.Trace.reset ();
      (* Chunks this small can all be drained by the submitting domain
         before a worker wakes; block each chunk until two have started so
         at least two domains (two rings) demonstrably participate. *)
      let started = Atomic.make 0 in
      Pool.with_pool ~domains:4 (fun pool ->
          Pool.for_chunks pool ~chunk:5 ~n:400 (fun ~slot:_ ~lo ~hi ->
              Atomic.incr started;
              while Atomic.get started < 2 do
                Domain.cpu_relax ()
              done;
              for _ = lo to hi - 1 do
                Obs.Span.with_ "test.trace.pool_span" (fun () ->
                    Obs.Trace.instant "test.trace.pool_tick")
              done));
      let s = Obs.Trace.stats () in
      check bool_ "pool workers overflowed the rings" true
        (s.Obs.Trace.dropped > 0);
      check bool_ "multiple rings participated" true (s.Obs.Trace.rings > 1);
      match Obs_json.parse (Obs.Trace.to_json ()) with
      | Error msg -> Alcotest.failf "pool-overflow trace invalid: %s" msg
      | Ok (Obs_json.List events) ->
        check_balanced events;
        check bool_ "dropped-events marker present" true
          (List.exists
             (fun ev ->
               Obs_json.member "name" ev = Some (Obs_json.String "trace.dropped"))
             events)
      | Ok _ -> Alcotest.fail "trace export is not an array")

(* --- journal -------------------------------------------------------------- *)

let with_journal path f =
  let cap0 = Obs.Journal.capacity () in
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      ignore (Obs.Journal.finish ());
      Obs.Journal.set_capacity cap0;
      Obs.disable ();
      Obs.reset ();
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Obs.Journal.start ~cmd:"test" path;
      f ())

let journal_lines path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  List.rev_map
    (fun l ->
      match Obs_json.parse l with
      | Ok j -> j
      | Error msg -> Alcotest.failf "journal line unparseable: %s: %s" msg l)
    !lines

let test_journal_disabled_is_silent () =
  Obs.reset ();
  Obs.Journal.emit "test_noop" [];
  let s = Obs.Journal.stats () in
  check int_ "nothing buffered while disabled" 0 s.Obs.Journal.recorded;
  check int_ "nothing dropped while disabled" 0 s.Obs.Journal.dropped;
  check int_ "finish without start writes nothing" 0
    (Obs.Journal.finish ()).Obs.Journal.recorded

let test_journal_roundtrip_multidomain () =
  let path = Filename.temp_file "sft_test" ".journal" in
  with_journal path (fun () ->
      (* Same rendezvous as the trace-overflow test: hold each chunk until
         two have started, so the events provably land in more than one
         domain-local buffer. *)
      let started = Atomic.make 0 in
      Pool.with_pool ~domains:4 (fun pool ->
          Pool.for_chunks pool ~chunk:7 ~n:200 (fun ~slot ~lo ~hi ->
              Atomic.incr started;
              while Atomic.get started < 2 do
                Domain.cpu_relax ()
              done;
              for i = lo to hi - 1 do
                Obs.Journal.emit "test_event"
                  [ ("i", Obs_json.Int i); ("slot", Obs_json.Int slot) ]
              done));
      (* The pool itself journals a [runtime_sample] after the fan-out
         drains, so counts are lower bounds; payload checks below filter
         to our own event kind. *)
      let s = Obs.Journal.stats () in
      check bool_ "every event buffered" true (s.Obs.Journal.recorded >= 200);
      check bool_ "events spread across domain buffers" true
        (s.Obs.Journal.buffers > 1);
      let w = Obs.Journal.finish () in
      check bool_ "finish reports all events" true (w.Obs.Journal.recorded >= 200);
      check int_ "no drops" 0 w.Obs.Journal.dropped;
      match journal_lines path with
      | header :: rest ->
        check bool_ "header is journal_begin" true
          (Obs_json.member "ev" header
          = Some (Obs_json.String "journal_begin"));
        check bool_ "header carries version 1" true
          (Obs_json.member "journal_version" header = Some (Obs_json.Int 1));
        let events, footer =
          match List.rev rest with
          | f :: revd -> (List.rev revd, f)
          | [] -> Alcotest.fail "no footer"
        in
        check bool_ "footer is journal_end" true
          (Obs_json.member "ev" footer = Some (Obs_json.String "journal_end"));
        check bool_ "footer embeds counters" true
          (match Obs_json.member "counters" footer with
          | Some (Obs_json.Obj _) -> true
          | _ -> false);
        check bool_ "one line per event" true (List.length events >= 200);
        (* Global sequence ids give a total order across domains: the
           merged stream must be strictly increasing, with timestamps
           relative and clamped. *)
        let last = ref (-1) in
        let seen = Array.make 200 false in
        List.iter
          (fun ev ->
            (match Obs_json.member "seq" ev with
            | Some (Obs_json.Int s) ->
              check bool_ "seq strictly increasing" true (s > !last);
              last := s
            | _ -> Alcotest.fail "event without seq");
            (match Obs_json.member "ts" ev with
            | Some (Obs_json.Float ts) ->
              check bool_ "ts clamped to >= 0" true (ts >= 0.)
            | _ -> Alcotest.fail "event without float ts");
            (match Obs_json.member "dom" ev with
            | Some (Obs_json.Int _) -> ()
            | _ -> Alcotest.fail "event without dom");
            if Obs_json.member "ev" ev = Some (Obs_json.String "test_event")
            then
              match Obs_json.member "i" ev with
              | Some (Obs_json.Int i) -> seen.(i) <- true
              | _ -> Alcotest.fail "test_event without payload field")
          events;
        check bool_ "every emitted payload present exactly once" true
          (Array.for_all Fun.id seen)
      | [] -> Alcotest.fail "empty journal file")

let test_journal_overflow_drops_counted () =
  let path = Filename.temp_file "sft_test" ".journal" in
  with_journal path (fun () ->
      ignore (Obs.Journal.finish ());
      Obs.Journal.start ~capacity:16 ~cmd:"test" path;
      for i = 1 to 100 do
        Obs.Journal.emit "test_event" [ ("i", Obs_json.Int i) ]
      done;
      let s = Obs.Journal.stats () in
      check bool_ "overflow drops are counted" true (s.Obs.Journal.dropped > 0);
      check bool_ "recorded bounded by capacity" true
        (s.Obs.Journal.recorded <= 16);
      let w = Obs.Journal.finish () in
      check bool_ "footer records the drops" true (w.Obs.Journal.dropped > 0);
      match journal_lines path with
      | _ :: rest ->
        let footer = List.nth rest (List.length rest - 1) in
        check bool_ "dropped field in footer positive" true
          (match Obs_json.member "dropped" footer with
          | Some (Obs_json.Int d) -> d > 0
          | _ -> false)
      | [] -> Alcotest.fail "empty journal file")

let test_journal_survives_obs_reset () =
  let path = Filename.temp_file "sft_test" ".journal" in
  with_journal path (fun () ->
      Obs.Journal.emit "test_before" [];
      (* reset drops buffered events but keeps the journal open (obs.mli
         header): events after the reset still land in the file. *)
      Obs.reset ();
      check int_ "reset drops buffered events" 0
        (Obs.Journal.stats ()).Obs.Journal.recorded;
      check bool_ "journal still enabled after reset" true
        (Obs.Journal.enabled ());
      Obs.Journal.emit "test_after" [];
      ignore (Obs.Journal.finish ());
      let kinds =
        List.filter_map
          (fun j ->
            match Obs_json.member "ev" j with
            | Some (Obs_json.String s) -> Some s
            | _ -> None)
          (journal_lines path)
      in
      check bool_ "pre-reset event dropped" true
        (not (List.mem "test_before" kinds));
      check bool_ "post-reset event written" true (List.mem "test_after" kinds))

let test_runtime_sampler_and_reset () =
  with_obs (fun () ->
      Obs.Runtime.sample ();
      Obs.Runtime.sample ();
      check int_ "samples counted" 2 (Obs.Runtime.samples ());
      let samples_c =
        List.assoc "runtime.samples" (Obs.Export.counters ())
      in
      check int_ "runtime.samples counter moves" 2 samples_c;
      (* Obs.reset must also zero the sampler state (not just counters). *)
      Obs.reset ();
      check int_ "reset zeroes the sampler" 0 (Obs.Runtime.samples ());
      check int_ "reset zeroes runtime counters" 0
        (List.assoc "runtime.samples" (Obs.Export.counters ())))

let test_campaign_unchanged_by_journal () =
  let c = mixed () in
  let cfg = { Campaign.default with max_patterns = 2_048; domains = 2; seed = 9L } in
  Obs.disable ();
  Obs.reset ();
  let plain = Campaign.exec cfg (Circuit.copy c) in
  let path = Filename.temp_file "sft_test" ".journal" in
  let journaled =
    with_journal path (fun () ->
        Obs.enable ();
        Campaign.exec cfg (Circuit.copy c))
  in
  check bool_ "journaled campaign is bit-identical" true (plain = journaled)

let test_campaign_unchanged_by_tracing () =
  let c = mixed () in
  let cfg = { Campaign.default with max_patterns = 2_048; domains = 2; seed = 9L } in
  Obs.disable ();
  Obs.Trace.disable ();
  Obs.reset ();
  let plain = Campaign.exec cfg (Circuit.copy c) in
  let traced = with_trace (fun () -> Campaign.exec cfg (Circuit.copy c)) in
  check bool_ "traced campaign is bit-identical" true (plain = traced);
  let overflowed =
    with_trace (fun () ->
        Obs.Trace.set_capacity 16;
        Obs.Trace.reset ();
        (* Saturate this domain's buffer so every event of the campaign
           itself lands in the overflow path. *)
        for _ = 1 to 32 do
          Obs.Trace.instant "test.trace.fill"
        done;
        let r = Campaign.exec cfg (Circuit.copy c) in
        let s = Obs.Trace.stats () in
        check bool_ "tiny buffers overflow during the campaign" true
          (s.Obs.Trace.dropped > 0);
        r)
  in
  check bool_ "campaign under buffer overflow is bit-identical" true
    (plain = overflowed)

let test_campaign_unchanged_by_obs () =
  let c = mixed () in
  let cfg = { Campaign.default with max_patterns = 2_048; domains = 2; seed = 9L } in
  Obs.disable ();
  Obs.reset ();
  let plain = Campaign.exec cfg (Circuit.copy c) in
  let observed =
    with_obs (fun () -> Campaign.exec cfg (Circuit.copy c))
  in
  check bool_ "instrumented campaign is bit-identical" true (plain = observed);
  let via_config =
    Fun.protect
      ~finally:(fun () ->
        Obs.disable ();
        Obs.reset ())
      (fun () -> Campaign.exec { cfg with obs = true } (Circuit.copy c))
  in
  check bool_ "config-enabled obs is bit-identical too" true (plain = via_config)

let suite =
  [
    ("counters: atomic under 4 domains", `Quick, test_counter_atomic_under_pool);
    ("disabled probes record nothing", `Quick, test_disabled_probes_record_nothing);
    ("spans: nesting and call counts", `Quick, test_span_nesting);
    ("json: round-trip and errors", `Quick, test_json_roundtrip);
    ("json: parser error paths", `Quick, test_json_error_paths);
    ("histograms: edge observations", `Quick, test_histogram_edges);
    ("export: documented schema keys", `Quick, test_export_schema);
    ("trace: disabled is silent", `Quick, test_trace_disabled_is_silent);
    ("trace: records and exports events", `Quick, test_trace_records_and_exports);
    ("trace: overflow stays balanced", `Quick, test_trace_overflow_stays_balanced);
    ("export: finish prints once, warns on drops", `Quick, test_export_finish);
    ( "trace: pool overflow balanced per domain",
      `Quick,
      test_trace_overflow_balanced_under_pool );
    ("journal: disabled is silent", `Quick, test_journal_disabled_is_silent);
    ( "journal: multi-domain round-trip",
      `Quick,
      test_journal_roundtrip_multidomain );
    ("journal: overflow drops counted", `Quick, test_journal_overflow_drops_counted);
    ("journal: survives Obs.reset", `Quick, test_journal_survives_obs_reset);
    ("runtime: sampler counts and resets", `Quick, test_runtime_sampler_and_reset);
    ("campaign: trace on = trace off", `Quick, test_campaign_unchanged_by_tracing);
    ("campaign: obs on = obs off", `Quick, test_campaign_unchanged_by_obs);
    ("campaign: journal on = journal off", `Quick, test_campaign_unchanged_by_journal);
  ]
