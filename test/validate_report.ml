(* CI helper for the @journal-smoke alias: validate that an `sft report
   --json` document parses and carries the documented keys (DESIGN.md §16
   schema), and that the reported decision funnel holds.

   Usage: validate_report.exe FILE *)

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("validate_report: " ^ m); exit 1) fmt

let () =
  let file = if Array.length Sys.argv > 1 then Sys.argv.(1) else die "usage: validate_report FILE" in
  let text = In_channel.with_open_bin file In_channel.input_all in
  let doc =
    match Obs_json.parse text with
    | Ok doc -> doc
    | Error msg -> die "%s: invalid JSON: %s" file msg
  in
  if Obs_json.member "report_version" doc <> Some (Obs_json.Int 3) then
    die "%s: report_version 3 missing" file;
  if Obs_json.member "funnel_ok" doc <> Some (Obs_json.Bool true) then
    die "%s: top-level funnel_ok missing or false" file;
  let runs =
    match Obs_json.member "runs" doc with
    | Some (Obs_json.List (_ :: _ as runs)) -> runs
    | Some (Obs_json.List []) -> die "%s: runs list empty" file
    | _ -> die "%s: runs list missing" file
  in
  List.iteri
    (fun i run ->
      let need k =
        match Obs_json.member k run with
        | Some v -> v
        | None -> die "%s: runs[%d]: key %s missing" file i k
      in
      (match need "cmd" with
      | Obs_json.String _ -> ()
      | _ -> die "%s: runs[%d]: cmd not a string" file i);
      (match need "events" with
      | Obs_json.Int n when n > 0 -> ()
      | _ -> die "%s: runs[%d]: events missing or not positive" file i);
      (match need "truncated" with
      | Obs_json.Bool false -> ()
      | _ -> die "%s: runs[%d]: journal truncated" file i);
      (match need "funnel" with
      | Obs_json.Obj f ->
        let stage k =
          match List.assoc_opt k f with
          | Some (Obs_json.Int n) when n >= 0 -> n
          | _ -> die "%s: runs[%d]: funnel stage %s missing" file i k
        in
        let candidates = stage "candidates" and identified = stage "identified" in
        let verified = stage "verified" and committed = stage "committed" in
        if
          not
            (committed <= verified && verified <= identified
           && identified <= candidates)
        then
          die "%s: runs[%d]: funnel violated (%d -> %d -> %d -> %d)" file i
            candidates identified verified committed
      | _ -> die "%s: runs[%d]: funnel not an object" file i);
      (match need "phases" with
      | Obs_json.List (_ :: _) -> ()
      | _ -> die "%s: runs[%d]: phases missing or empty" file i);
      match need "runtime" with
      | Obs_json.Obj kvs ->
        if not (List.mem_assoc "samples" kvs) then
          die "%s: runs[%d]: runtime.samples missing" file i
      | _ -> die "%s: runs[%d]: runtime not an object" file i)
    runs;
  Printf.printf "%s: report document valid (%d run(s))\n" file (List.length runs)
