(* The end-to-end benchmark described by BENCHMARK.json (design notes in
   README.md next to this file).

   Usage: main.exe --workload NAME --seed N --seconds S --trace 0|1

   One process runs one workload: it makes the inputs from the seed, sets
   up several times (the median is setup_s), then repeats timed passes over
   the workload's jobs for S seconds, one job at a time. Every output is
   checked; the last line of stdout is the JSON result. With --trace 1,
   after a warm-up pass, the passes alternate untraced/traced and the result
   carries the per-layer metrics read from the library's own counters and
   spans instead. *)

(* --- clocks ---------------------------------------------------------------- *)

(* Monotonic wall clock; CPU of the whole process (every domain) from
   times(2); peak RSS from the kernel's high-water mark. Sys.time is never
   used: it sums CPU over domains, so it cannot show a parallel speedup. *)
let wall () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> nan
        | Some line -> (
          match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
          | Some kb -> float_of_int kb /. 1024.
          | None -> scan ())
      in
      scan ())

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b = 0. then 0. else a /. b

(* --- arguments ------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload resynth|stuck_at|path_delay \
     --seed N --seconds S --trace 0|1";
  exit 2

let args =
  let rec go acc = function
    | [] -> acc
    | key :: value :: rest
      when List.mem key [ "--workload"; "--seed"; "--seconds"; "--trace" ] ->
      go ((key, value) :: acc) rest
    | _ -> usage ()
  in
  go [] (List.tl (Array.to_list Sys.argv))

let arg key parse =
  match List.assoc_opt key args with
  | None -> usage ()
  | Some v -> ( match parse v with Some x -> x | None -> usage ())

let workload_name = arg "--workload" Option.some
let seed = arg "--seed" int_of_string_opt
let seconds = arg "--seconds" float_of_string_opt

let traced_run =
  arg "--trace" (function "0" -> Some false | "1" -> Some true | _ -> None)

(* --- inputs ---------------------------------------------------------------- *)

(* At this seed the resynthesis workloads read the committed
   data/benchmarks netlists, which carry the results of record. *)
let default_seed = 1

let read_text path = In_channel.with_open_bin path In_channel.input_all

let committed_netlist name =
  read_text (Filename.concat "data/benchmarks" (name ^ ".bench"))

(* Another seed shuffles the order of the gate definitions, which renumbers
   the nodes: the same logic reaches the engine with different ids and so
   with different topological tie-breaks. Regenerating the circuit from its
   Gen.Benchmarks profile instead would change the work by tens of percent
   from seed to seed (and its redundancy removal takes minutes). *)
let seeded_netlist name =
  let text = committed_netlist name in
  if seed = default_seed then text
  else
    let lines = String.split_on_char '\n' text in
    let is_gate l = String.contains l '=' in
    let gates = Array.of_list (List.filter is_gate lines) in
    Rng.shuffle (Rng.create (Int64.of_int seed)) gates;
    String.concat "\n"
      (List.filter (fun l -> not (is_gate l)) lines @ Array.to_list gates)

(* seconds spent parsing netlists, for the traced run's netlist.parse_s *)
let parse_seconds = ref 0.

let parse (name, text) =
  let t0 = wall () in
  let parsed = Bench_format.parse ~name text in
  parse_seconds := !parse_seconds +. (wall () -. t0);
  match parsed with
  | Ok c -> c
  | Error e ->
    Printf.eprintf "error: %s: %s\n" name (Bench_format.error_to_string e);
    exit 1

(* Input making that needs the library's own heavy machinery runs in a
   child process, so its memory never shows in the benchmark's peak RSS.
   The child marshals [f ()] back through a pipe; the parent waits for it.
   Call only while no pool domains are running. *)
let in_child (f : unit -> 'a) : 'a =
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 -> (
    Unix.close rd;
    match f () with
    | v ->
      let oc = Unix.out_channel_of_descr wr in
      Marshal.to_channel oc v [];
      close_out oc;
      Unix._exit 0
    | exception e ->
      prerr_endline (Printexc.to_string e);
      Unix._exit 1)
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let result = try Ok (Marshal.from_channel ic : 'a) with e -> Error e in
    close_in ic;
    (match (Unix.waitpid [] pid, result) with
    | (_, Unix.WEXITED 0), Ok v -> v
    | _ ->
      prerr_endline "error: input preparation failed";
      exit 1)

(* --- timed calls ----------------------------------------------------------- *)

(* Outcome tallies for the traced run, taken from the libraries' returned
   results where no counter exists. *)
type tallies = {
  mutable passes : int;
  mutable replacements : int;
  mutable verify_checks : int;
  mutable verify_refused : int;
  mutable survivors : int;
  mutable podem_faults : int;
  mutable podem_aborted : int;
  mutable sat_tests : int;
  mutable sat_budget_exhausted : int;
}

(* Per-pass accounting. Every call into the library goes through [timed],
   which also opens a bench-side span so the traced run can split each
   call's time between the library's own spans and the rest. *)
type ctx = {
  traced : bool;
  times : (string, float) Hashtbl.t;  (** seconds per call name *)
  mutable core : float;  (** the workload's product calls *)
  mutable check : float;  (** calls that verify the products *)
  mutable attempted : int;
  mutable failed : int;
  mutable minor_words : float;
  mutable major_collections : int;
  mutable podem_ms : float list;  (** per-fault PODEM times *)
  tally : tallies;
  mutable oracles : (string * (unit -> bool)) list;
      (** checks of this pass's outputs, run after its timed interval *)
}

let new_ctx traced =
  {
    traced;
    times = Hashtbl.create 8;
    core = 0.;
    check = 0.;
    attempted = 0;
    failed = 0;
    minor_words = 0.;
    major_collections = 0;
    podem_ms = [];
    tally =
      {
        passes = 0;
        replacements = 0;
        verify_checks = 0;
        verify_refused = 0;
        survivors = 0;
        podem_faults = 0;
        podem_aborted = 0;
        sat_tests = 0;
        sat_budget_exhausted = 0;
      };
    oracles = [];
  }

let time_of ctx name = Option.value ~default:0. (Hashtbl.find_opt ctx.times name)

(* [`Core] calls make the workload's product, [`Check] calls verify it
   inside the flow (CEC), [`Oracle] calls check outputs after the timed
   interval and count in no end-to-end time. *)
let timed ctx kind name f =
  let g0 = if ctx.traced then Some (Gc.quick_stat ()) else None in
  let t0 = wall () in
  Fun.protect
    ~finally:(fun () ->
      let dt = wall () -. t0 in
      Hashtbl.replace ctx.times name (time_of ctx name +. dt);
      (match kind with
      | `Core -> ctx.core <- ctx.core +. dt
      | `Check -> ctx.check <- ctx.check +. dt
      | `Oracle -> ());
      Option.iter
        (fun g0 ->
          let g1 = Gc.quick_stat () in
          ctx.minor_words <- ctx.minor_words +. g1.Gc.minor_words -. g0.Gc.minor_words;
          ctx.major_collections <-
            ctx.major_collections + g1.Gc.major_collections - g0.Gc.major_collections)
        g0)
    (fun () -> Obs.Span.with_ ("bench." ^ name) f)

(* One operation: [f] does the timed work and returns the check of its
   output. The operation is attempted; it fails if [f] raises or the check,
   run after the pass's timed interval, returns false or raises. A failure
   never stops the run. *)
let operation ctx name f =
  let check = try f () with e -> fun () -> raise e in
  ctx.oracles <- (name, check) :: ctx.oracles

let settle ctx =
  List.iter
    (fun (name, check) ->
      ctx.attempted <- ctx.attempted + 1;
      let ok =
        try check ()
        with e ->
          Printf.printf "# %s raised %s\n%!" name (Printexc.to_string e);
          false
      in
      if not ok then begin
        ctx.failed <- ctx.failed + 1;
        Printf.printf "# FAILED: %s\n%!" name
      end)
    (List.rev ctx.oracles);
  ctx.oracles <- []

(* --- workloads ------------------------------------------------------------- *)

(* What a pass produces besides its times: the workload's result-quality
   figures under their own names, the universal [quality] figure, and a
   digest of every result so repeated passes can be compared bit for bit. *)
type outcome = { figures : (string * float) list; quality : float; digest : string }

type session = { pass : ctx -> outcome; release : unit -> unit }

(* Mean time per call, and the candidate figures, of the stage replay. *)
type stages = {
  enumerate_us : float;
  cuts_per_root : float;
  extract_us : float;
  removable_us : float;
  identify_us : float;
  build_us : float;
  identified_frac : float;
  find_us : float;
}

type workload = {
  name : string;
  core_name : string;  (** the issue-level name of [core_s] *)
  domains : int;  (** the widest pool the workload runs, for busy_frac *)
  prepare : unit -> unit -> session;
      (** make the inputs (untimed), returning the timed setup *)
  replay : (unit -> stages) option;
      (** stage replay for the traced run *)
}

let circuits_resynth = [ "irs1423"; "irs13207" ]

(* The results of record at the default seed: Σ equivalent gates before and
   after over the Procedure 2 jobs, Σ paths before and after over the
   Procedure 3 jobs. A pass at that seed that does worse fails. *)
let resynth_of_record = (649 + 1871, 608 + 1841, 58977 + 350555, 24241 + 271748)

let resynth_circuits () =
  List.map (fun n -> (n, seeded_netlist n)) circuits_resynth

(* The engine runs at one domain, the CLI's default on a 2-core host. Only
   the equivalence checks run on a 2-domain pool, so the pool is measured
   while its barriers (which stall on a busy host) stay a small share of the
   pass. The engine at two domains was dropped as unsteady (README.md). *)
let resynth () =
  let pool_domains = 2 in
  let prepare () =
    let texts = resynth_circuits () in
    fun () ->
      let circuits = List.map parse texts in
      let pool = Pool.create ~domains:pool_domains () in
      let options =
        { Engine.default_options with k = 6; domains = 1; seed = Int64.of_int seed }
      in
      let pass ctx =
        let sums = Array.make 4 0 in
        let digests = Buffer.create 256 in
        List.iter
          (fun c ->
            List.iter
              (fun (objective, label) ->
                let job = Printf.sprintf "%s %s" label (Circuit.name c) in
                operation ctx job (fun () ->
                    let out = Circuit.copy c in
                    let st =
                      timed ctx `Core "optimize" (fun () ->
                          Engine.optimize objective options out)
                    in
                    let verdict =
                      timed ctx `Check "cec" (fun () -> Cec.check ~pool c out)
                    in
                    Buffer.add_string digests
                      (Digest.string (Bench_format.to_string out));
                    (match objective with
                    | Engine.Gates ->
                      sums.(0) <- sums.(0) + st.Engine.gates_before;
                      sums.(1) <- sums.(1) + st.Engine.gates_after
                    | Engine.Paths ->
                      sums.(2) <- sums.(2) + st.Engine.paths_before;
                      sums.(3) <- sums.(3) + st.Engine.paths_after);
                    let t = ctx.tally in
                    t.passes <- t.passes + st.Engine.passes;
                    t.replacements <- t.replacements + st.Engine.replacements;
                    t.verify_checks <- t.verify_checks + st.Engine.verify_checks;
                    t.verify_refused <- t.verify_refused + st.Engine.verify_refused;
                    fun () -> verdict = Cec.Equivalent))
              [ (Engine.Gates, "P2"); (Engine.Paths, "P3") ])
          circuits;
        if seed = default_seed then
          operation ctx "results of record" (fun () ->
              let gates_before, gates_after, paths_before, paths_after = resynth_of_record in
              fun () ->
                sums.(0) = gates_before
                && sums.(1) <= gates_after
                && sums.(2) = paths_before
                && sums.(3) <= paths_after);
        let gate_ratio = ratio (float sums.(1)) (float sums.(0)) in
        let path_ratio = ratio (float sums.(3)) (float sums.(2)) in
        let reduction r = Float.max 0. (1. -. r) in
        {
          figures = [ ("gate_ratio", gate_ratio); ("path_ratio", path_ratio) ];
          quality = sqrt (reduction gate_ratio *. reduction path_ratio);
          digest = Digest.to_hex (Digest.string (Buffer.contents digests));
        }
      in
      { pass; release = (fun () -> Pool.shutdown pool) }
  in
  {
    name = "resynth";
    core_name = "optimize_s";
    domains = pool_domains;
    prepare;
    replay = None;
  }

(* Stage replay: sweep every root of each circuit once through the
   engine's stages, called one by one through their public functions on a
   fresh identification cache, and report the mean time per call. *)
let stage_replay () =
  let texts = resynth_circuits () in
  let sums = Hashtbl.create 8 in
  let calls = Hashtbl.create 8 in
  let add name dt =
    Hashtbl.replace sums name (dt +. Option.value ~default:0. (Hashtbl.find_opt sums name));
    Hashtbl.replace calls name (1 + Option.value ~default:0 (Hashtbl.find_opt calls name))
  in
  let stage name f =
    let t0 = wall () in
    let r = f () in
    add name (wall () -. t0);
    r
  in
  let roots = ref 0 and cuts = ref 0 and identified = ref 0 in
  List.iter
    (fun text ->
      let c = parse text in
      let dedup = Subcircuit.dedup () in
      let scratch = Array.make (Circuit.size c) 0L in
      let cache = Idcache.create () in
      Circuit.iter_live c (fun root ->
          match Circuit.kind c root with
          | Gate.Input | Gate.Const0 | Gate.Const1 -> ()
          | _ ->
            incr roots;
            let subs =
              stage "enumerate" (fun () ->
                  Subcircuit.enumerate ~dedup ~k:6 ~max_candidates:64 c root)
            in
            List.iter
              (fun sub ->
                incr cuts;
                let tt = stage "extract" (fun () -> Subcircuit.extract ~scratch c sub) in
                let t0 = wall () in
                let lookup = Idcache.find cache tt in
                let dt = wall () -. t0 in
                add "find" dt;
                let verdict =
                  match lookup with
                  | Idcache.Hit v ->
                    add "find_hit" dt;
                    v
                  | Idcache.Neg_hit ->
                    add "find_npn" dt;
                    None
                  | Idcache.Miss m ->
                    add "find_miss" dt;
                    let v = stage "identify" (fun () -> Comparison_fn.identify_exact tt) in
                    Idcache.record cache m v;
                    v
                in
                match verdict with
                | None -> ()
                | Some spec ->
                  incr identified;
                  let n = Array.length sub.Subcircuit.inputs in
                  ignore (stage "build" (fun () -> Comparison_unit.build ~n spec));
                  ignore (stage "removable" (fun () -> Subcircuit.removable_cost c sub)))
              subs))
    texts;
  let us name =
    match Hashtbl.find_opt calls name with
    | Some n -> 1e6 *. Hashtbl.find sums name /. float n
    | None -> 0.
  in
  let n name = Option.value ~default:0 (Hashtbl.find_opt calls name) in
  Printf.printf
    "# stage replay: Idcache.find %.2f us on %d raw hits, %.2f us on %d NPN hits, %.2f us \
     on %d misses (canon included); identify_exact %.2f us\n"
    (us "find_hit") (n "find_hit") (us "find_npn") (n "find_npn") (us "find_miss")
    (n "find_miss") (us "identify");
  {
    enumerate_us = us "enumerate";
    cuts_per_root = ratio (float !cuts) (float !roots);
    extract_us = us "extract";
    removable_us = us "removable";
    identify_us = us "identify";
    build_us = us "build";
    identified_frac = ratio (float !identified) (float !cuts);
    find_us = us "find";
  }

let stuck_at_patterns = 32_768

(* PODEM's cost is dominated by the faults it cannot decide within its
   backtrack budget, and a plain random sample of survivors would swing
   their share from seed to seed. So the survivors are sampled per stratum,
   each at the same fraction, which keeps their measured mix. Before
   set-up, untimed, SAT-ATPG splits each circuit's survivors into
   redundant, testable and undecided faults, and a 50-backtrack PODEM probe
   splits the testable ones into easy (the probe finds a test) and hard. At
   seed 1, irs1423's 172 survivors are 113 redundant (109 abort PODEM), 20
   hard and 39 easy; irs35932's 431 are 31 redundant, 6 hard and 394
   easy. *)
let stuck_at_circuits = [ "irs1423"; "irs35932" ]
let stuck_at_sample_frac = 0.4
let stuck_at_probe_backtracks = 50

(* A sampled fault's verdict as SAT-ATPG gave it before set-up: a pass must
   agree with it. *)
type expected = Testable | Redundant | Undecided

let stuck_at () =
  let campaign_config faults =
    {
      Campaign.default with
      faults = Some faults;
      max_patterns = stuck_at_patterns;
      domains = 1;
      seed = Int64.of_int seed;
    }
  in
  let rng = Rng.create (Int64.of_int (seed * 7919)) in
  let pick n xs =
    let a = Array.of_list xs in
    Rng.shuffle rng a;
    Array.to_list (Array.sub a 0 (min n (Array.length a)))
  in
  let strata c survivors =
    let esc = Sat_atpg.escalate c survivors in
    let easy, hard =
      List.partition
        (fun f ->
          match Podem.generate ~backtrack_limit:stuck_at_probe_backtracks c f with
          | Podem.Test _ -> true
          | _ -> false)
        (List.map fst esc.Sat_atpg.tests)
    in
    [
      ("redundant", esc.Sat_atpg.redundant, Redundant);
      ("hard", hard, Testable);
      ("easy", easy, Testable);
      ("undecided", List.map fst esc.Sat_atpg.unknown, Undecided);
    ]
  in
  let prepare () =
    let inputs : ((string * string) * (Fault.t * expected) list * string) list =
      in_child @@ fun () ->
      List.map
        (fun name ->
          let text = committed_netlist name in
          let c = parse (name, text) in
          let _, survivors =
            Campaign.exec_survivors (campaign_config (Fault.collapsed c)) c
          in
          let drawn =
            List.map
              (fun (label, faults, expected) ->
                let size = List.length faults in
                let n = Float.to_int (Float.round (stuck_at_sample_frac *. float size)) in
                ( Printf.sprintf "%d/%d %s" n size label,
                  List.map (fun f -> (f, expected)) (pick n faults) ))
              (strata c survivors)
          in
          ( (name, text),
            List.concat_map snd drawn,
            String.concat ", " (List.map fst drawn) ))
        stuck_at_circuits
    in
    List.iter
      (fun ((name, _), _, drawn) -> Printf.printf "# %s survivor sample: %s\n" name drawn)
      inputs;
    fun () ->
      let jobs =
        List.map
          (fun (text, sample, _) ->
            let c = parse text in
            (c, Fault.collapsed c, sample))
          inputs
      in
      let pass ctx =
        let detected = ref 0 and total = ref 0 and tests = ref 0 and redundant = ref 0 in
        let digests = Buffer.create 256 in
        let t = ctx.tally in
        List.iter
          (fun (c, faults, sample) ->
            let verdicts = Hashtbl.create 64 in
            (try
               let r, survivors =
                 timed ctx `Core "campaign" (fun () ->
                     Campaign.exec_survivors (campaign_config faults) c)
               in
               t.survivors <- t.survivors + List.length survivors;
               detected := !detected + r.Campaign.detected;
               total := !total + r.Campaign.total_faults;
               Buffer.add_string digests
                 (Printf.sprintf "%s:%d;" (Circuit.name c) r.Campaign.detected);
               (* the sample is kept in survivor order, as the CLI flow sees it *)
               let targets = List.filter (fun f -> List.mem_assoc f sample) survivors in
               let aborted = ref [] in
               List.iter
                 (fun f ->
                   let t0 = wall () in
                   (match timed ctx `Core "podem" (fun () -> Podem.generate c f) with
                   | Podem.Test v -> Hashtbl.replace verdicts f (Some v)
                   | Podem.Untestable -> Hashtbl.replace verdicts f None
                   | Podem.Aborted -> aborted := f :: !aborted);
                   ctx.podem_ms <- (1e3 *. (wall () -. t0)) :: ctx.podem_ms)
                 targets;
               t.podem_faults <- t.podem_faults + List.length targets;
               t.podem_aborted <- t.podem_aborted + List.length !aborted;
               let esc =
                 timed ctx `Core "sat" (fun () -> Sat_atpg.escalate c (List.rev !aborted))
               in
               List.iter (fun (f, v) -> Hashtbl.replace verdicts f (Some v)) esc.Sat_atpg.tests;
               List.iter (fun f -> Hashtbl.replace verdicts f None) esc.Sat_atpg.redundant;
               t.sat_tests <- t.sat_tests + List.length esc.Sat_atpg.tests;
               t.sat_budget_exhausted <- t.sat_budget_exhausted + List.length esc.Sat_atpg.unknown
             with e -> Printf.printf "# %s raised %s\n%!" (Circuit.name c) (Printexc.to_string e));
            (* one operation per sampled fault: decided as SAT-ATPG decided
               it before set-up, and a test must be detected when replayed
               through the fault simulator *)
            let fsim = lazy (Fsim.create (Compiled.of_circuit c)) in
            List.iter
              (fun (f, expected) ->
                let name = Printf.sprintf "%s %s" (Circuit.name c) (Fault.to_string c f) in
                Buffer.add_string digests name;
                operation ctx name (fun () ->
                    match Hashtbl.find_opt verdicts f with
                    | Some (Some v) ->
                      incr tests;
                      Array.iter (fun b -> Buffer.add_char digests (if b then '1' else '0')) v;
                      fun () ->
                        expected = Testable
                        && timed ctx `Oracle "replay" (fun () ->
                               Fsim.detect_single (Lazy.force fsim) f v)
                    | Some None ->
                      incr redundant;
                      fun () -> expected = Redundant
                    | None -> fun () -> false))
              sample)
          jobs;
        (* Every collapsed fault is targeted: the campaign's detections and
           the sample's tests count as covered, the sample's redundant
           faults leave the denominator, and unsampled survivors count as
           not covered. *)
        let coverage = ratio (float (!detected + !tests)) (float (!total - !redundant)) in
        {
          figures = [ ("fault_coverage_pct", 100. *. coverage) ];
          quality = coverage;
          digest = Digest.to_hex (Digest.string (Buffer.contents digests));
        }
      in
      { pass; release = ignore }
  in
  {
    name = "stuck_at";
    core_name = "atpg_s";
    domains = 1;
    prepare;
    replay = None;
  }

(* Pair budgets fixed so the campaign never stops early: the stop window is
   the budget, and every run applies exactly this many pairs. *)
let path_delay_circuits = [ ("irs1423", 20_000); ("irs13207", 4_000) ]
let path_delay_crosscheck_pairs = 32

(* One domain: at two (= nproc on the reference host) the campaign meets
   the pool at a barrier every 8 pairs, so a core taken by a neighbour
   stalls the whole pass and the wall time tracks the host's scheduler,
   not the campaign. The pool is measured on [resynth]. *)
let path_delay () =
  let domains = 1 in
  let config pairs =
    {
      Pdf_campaign.default with
      max_pairs = pairs;
      stop_window = pairs;
      domains;
      seed = Int64.of_int seed;
    }
  in
  let prepare () =
    let texts = List.map (fun (n, _) -> (n, committed_netlist n)) path_delay_circuits in
    (* The cross-check pairs are the campaign's own first pairs (same
       seed, same draw order). Over every path of irs1423 as a node list,
       once and in a child process, [Robust.detects] gives the reference:
       the path count, the detected paths per pair, and the distinct
       (path, direction) faults the pairs detect together. *)
    let oracle = parse (List.hd texts) in
    let oracle_cmp = Compiled.of_circuit oracle in
    let pairs =
      let rng = Rng.create (Int64.of_int seed) in
      let n_pi = Array.length (Compiled.inputs oracle_cmp) in
      let vec () = Array.init n_pi (fun _ -> Rng.bool rng) in
      List.init path_delay_crosscheck_pairs (fun _ ->
          let v1 = vec () in
          let v2 = vec () in
          (v1, v2))
    in
    let waves (v1, v2) = Wave.simulate oracle_cmp ~v1 ~v2 in
    let n_paths, per_pair, distinct =
      in_child @@ fun () ->
      let paths = Array.of_list (Paths.enumerate oracle) in
      let faults = Hashtbl.create 1024 in
      let per_pair =
        List.map
          (fun pair ->
            let w = waves pair in
            let n = ref 0 in
            Array.iteri
              (fun i p ->
                match Robust.detects oracle_cmp w p with
                | Some dir ->
                  incr n;
                  Hashtbl.replace faults (i, dir) ()
                | None -> ())
              paths;
            !n)
          pairs
      in
      (Array.length paths, per_pair, Hashtbl.length faults)
    in
    (* Both counting schemes against the reference: the non-enumerative
       count per pair, and a campaign over exactly these pairs. *)
    let crosscheck () =
      let r = Pdf_campaign.exec (config path_delay_crosscheck_pairs) oracle in
      r.Pdf_campaign.patterns_applied = path_delay_crosscheck_pairs
      && r.Pdf_campaign.total_faults = 2 * n_paths
      && r.Pdf_campaign.detected = distinct
      && List.for_all2
           (fun pair n -> Pdf_campaign.count_robust oracle_cmp (waves pair) = n)
           pairs per_pair
    in
    fun () ->
      let jobs = List.map2 (fun t (_, pairs) -> (parse t, pairs)) texts path_delay_circuits in
      let pass ctx =
        let detected = ref 0 and faults = ref 0 in
        let digests = Buffer.create 64 in
        List.iter
          (fun (c, pairs) ->
            let name = Circuit.name c in
            operation ctx ("pdf " ^ name) (fun () ->
                let r =
                  timed ctx `Core "pdf" (fun () -> Pdf_campaign.exec (config pairs) c)
                in
                detected := !detected + r.Pdf_campaign.detected;
                faults := !faults + r.Pdf_campaign.total_faults;
                Buffer.add_string digests
                  (Printf.sprintf "%s:%d/%d;" name r.Pdf_campaign.detected
                     r.Pdf_campaign.last_effective_pattern);
                fun () ->
                  r.Pdf_campaign.patterns_applied = pairs
                  && r.Pdf_campaign.detected <= r.Pdf_campaign.total_faults
                  && (name <> Circuit.name oracle
                     || r.Pdf_campaign.total_faults = 2 * n_paths
                        && timed ctx `Oracle "crosscheck" crosscheck)))
          jobs;
        let coverage = ratio (float !detected) (float !faults) in
        {
          figures = [ ("pdf_coverage_pct", 100. *. coverage) ];
          quality = coverage;
          digest = Buffer.contents digests;
        }
      in
      { pass; release = ignore }
  in
  {
    name = "path_delay";
    core_name = "pdf_s";
    domains;
    prepare;
    replay = None;
  }

let workloads () =
  [
    { (resynth ()) with replay = Some stage_replay };
    stuck_at ();
    path_delay ();
  ]

(* --- passes ---------------------------------------------------------------- *)

type pass_result = { ctx : ctx; outcome : outcome; wall_s : float; cpu_s : float }

let run_pass session ~traced =
  let ctx = new_ctx traced in
  if traced then begin
    Obs.reset ();
    Obs.enable ()
  end;
  let c0 = cpu () and w0 = wall () in
  let outcome = session.pass ctx in
  let wall_s = wall () -. w0 and cpu_s = cpu () -. c0 in
  if traced then Obs.disable ();
  settle ctx;
  { ctx; outcome; wall_s; cpu_s }

(* Passes repeat while the time so far plus half the last pass stays within
   [seconds]; the first always runs. A run so ends within half a pass of
   [seconds] either way, and a workload whose passes take half the run
   still gets two of them. *)
let repeat f =
  let start = wall () in
  let rec loop acc =
    let t0 = wall () in
    let acc = f () :: acc in
    let now = wall () in
    if now -. start +. ((now -. t0) /. 2.) <= seconds then loop acc else List.rev acc
  in
  loop []

(* Set-ups are timed in bursts, each set-up alone: one burst before the
   first pass and one after every pass, the last session of a burst serving
   the next pass. A set-up takes milliseconds, so a single burst would catch
   the host's speed at one moment, which swings far more than over a run. *)
let setup_burst = 5

let set_up setup times =
  let rec go n =
    let t0 = wall () in
    let s = setup () in
    times := (wall () -. t0) :: !times;
    if n <= 1 then s
    else begin
      s.release ();
      go (n - 1)
    end
  in
  go setup_burst

let metric name unit value =
  (name, Obs_json.Obj [ ("value", Obs_json.Float value); ("unit", Obs_json.String unit) ])

let print_result ~correct ~attempted ~failed metrics =
  print_endline
    (Obs_json.to_string
       (Obs_json.Obj
          [
            ("correct", Obs_json.Bool correct);
            ("attempted", Obs_json.Int attempted);
            ("failed", Obs_json.Int failed);
            ("metrics", Obs_json.Obj metrics);
          ]))

(* --- untraced run: the end-to-end metrics ---------------------------------- *)

let end_to_end w =
  let setup = w.prepare () in
  let setup_times = ref [] in
  let session = ref (set_up setup setup_times) in
  let passes =
    repeat (fun () ->
        let p = run_pass !session ~traced:false in
        !session.release ();
        session := set_up setup setup_times;
        p)
  in
  !session.release ();
  let setup_times = !setup_times in
  let first = List.hd passes in
  let identical = List.for_all (fun p -> p.outcome = first.outcome) passes in
  if not identical then print_endline "# FAILED: passes disagree on their results";
  let attempted = List.fold_left (fun n p -> n + p.ctx.attempted) 0 passes in
  let failed =
    List.fold_left (fun n p -> n + p.ctx.failed) 0 passes + if identical then 0 else 1
  in
  let med f = median (List.map f passes) in
  let wall_s = med (fun p -> p.wall_s) in
  let cpu_s = med (fun p -> p.cpu_s) in
  let core_s = med (fun p -> p.ctx.core) in
  let check_s = med (fun p -> p.ctx.check) in
  let setup_s = median setup_times in
  let rss = peak_rss_mb () in
  let failed_frac = ratio (float failed) (float attempted) in
  (* the issue-level names, for the human-readable table *)
  let named =
    [
      ("wall_s", "s", Some wall_s);
      ("cpu_s", "s", Some cpu_s);
      ("setup_s", "s", Some setup_s);
      ("peak_rss_mb", "MB", Some rss);
    ]
    @ List.map
        (fun (name, unit) ->
          ( name,
            unit,
            if name = w.core_name then Some core_s
            else if name = "check_s" && check_s > 0. then Some check_s
            else List.assoc_opt name first.outcome.figures ))
        [
          ("optimize_s", "s");
          ("check_s", "s");
          ("atpg_s", "s");
          ("pdf_s", "s");
          ("gate_ratio", "ratio");
          ("path_ratio", "ratio");
          ("fault_coverage_pct", "%");
          ("pdf_coverage_pct", "%");
        ]
    @ [ ("failed_frac", "ratio", Some failed_frac) ]
  in
  Printf.printf "# workload %s, seed %d, %d pass(es), %d setup(s), results %s\n"
    w.name seed (List.length passes) (List.length setup_times) first.outcome.digest;
  Printf.printf "# pass wall s: %s\n"
    (String.concat " " (List.map (fun p -> Printf.sprintf "%.3f" p.wall_s) passes));
  List.iter
    (fun (name, unit, v) ->
      match v with
      | Some v -> Printf.printf "#   %-20s %14.6f %s\n" name v unit
      | None -> Printf.printf "#   %-20s %14s\n" name "n/a")
    named;
  Printf.printf "#   (failed_frac = %d failed / %d attempted; %s is core_s)\n" failed
    attempted w.core_name;
  print_result ~correct:(failed = 0) ~attempted ~failed
    [
      metric "wall_s" "s" wall_s;
      metric "cpu_s" "s" cpu_s;
      metric "setup_s" "s" setup_s;
      metric "peak_rss_mb" "MB" rss;
      metric "core_s" "s" core_s;
      metric "quality" "ratio" first.outcome.quality;
    ]

(* --- traced run: the per-layer metrics ------------------------------------- *)

(* A counter or histogram the libraries register, by name. A name they do
   not register is an error, never a silent 0, except for the pool's
   counters, which register on first use ([~lazily]). *)
let registered ?(lazily = false) section name =
  let found =
    match Obs.Export.to_json_value () with
    | Obs_json.Obj fields -> (
      match List.assoc_opt section fields with
      | Some (Obs_json.Obj entries) -> List.mem_assoc name entries
      | _ -> false)
    | _ -> false
  in
  if not (found || lazily) then
    failwith (Printf.sprintf "no %s entry %s in the registry" section name)

let counter ?lazily name =
  registered ?lazily "counters" name;
  float (Obs.Counter.value (Obs.Counter.make name))

let hist_sum name =
  registered "histograms" name;
  float (Obs.Histogram.sum (Obs.Histogram.make name))

let hist_count name =
  registered "histograms" name;
  float (Obs.Histogram.count (Obs.Histogram.make name))

(* Span tree helpers: total wall of every span with a given name, and the
   self time (wall minus children) summed per span name. *)
let rec span_total name (infos : Obs.Span.info list) =
  List.fold_left
    (fun acc (i : Obs.Span.info) ->
      acc +. (if i.name = name then i.wall else 0.) +. span_total name i.children)
    0. infos

let rec self_times acc (infos : Obs.Span.info list) =
  List.iter
    (fun (i : Obs.Span.info) ->
      let kids = List.fold_left (fun s (k : Obs.Span.info) -> s +. k.wall) 0. i.children in
      let old = Option.value ~default:(0., 0) (Hashtbl.find_opt acc i.name) in
      Hashtbl.replace acc i.name (fst old +. Float.max 0. (i.wall -. kids), snd old + i.calls);
      self_times acc i.children)
    infos

(* The library layer a span belongs to, after the lib/ directory names. *)
let layer_of span =
  match String.split_on_char '.' span with
  | [ "bench"; "optimize" ] | "engine" :: _ -> "synth"
  | [ "bench"; "cec" ] | "cec" :: _ -> "cec"
  | [ "bench"; ("campaign" | "replay") ] | "fsim" :: _ -> "fault"
  | [ "bench"; ("podem" | "sat") ] | "podem" :: _ | "atpg" :: _ -> "atpg"
  | [ "bench"; ("pdf" | "crosscheck") ] | "pdf" :: _ -> "delay"
  | _ -> "other"

let podem_tail samples =
  (* the highest percentile with at least ten samples beyond it *)
  let a = sorted samples in
  let n = Array.length a in
  if n <= 10 then (nan, 0., n)
  else
    let idx = n - 11 in
    (a.(idx), 100. *. float (idx + 1) /. float n, n)

let per_layer w =
  let setup = w.prepare () in
  parse_seconds := 0.;
  let session = setup () in
  let parse_s = !parse_seconds in
  (* A first pass warms the heap; without it the untraced pass of the
     first pair would carry the warm-up and tracing would look free. *)
  let warm = run_pass session ~traced:false in
  let pairs =
    repeat (fun () ->
        let plain = run_pass session ~traced:false in
        (plain, run_pass session ~traced:true))
  in
  session.release ();
  let spans = Obs.Span.snapshot () in
  let _, last = List.hd (List.rev pairs) in
  let ctx = last.ctx in
  let outcomes_agree =
    List.for_all (fun (p, t) -> p.outcome = warm.outcome && t.outcome = warm.outcome) pairs
  in
  let attempted =
    List.fold_left (fun n (p, t) -> n + p.ctx.attempted + t.ctx.attempted) warm.ctx.attempted pairs
  in
  let failed =
    List.fold_left (fun n (p, t) -> n + p.ctx.failed + t.ctx.failed) warm.ctx.failed pairs
    + if outcomes_agree then 0 else 1
  in
  let overhead =
    median (List.map (fun (_, t) -> t.wall_s) pairs)
    /. median (List.map (fun (p, _) -> p.wall_s) pairs)
    -. 1.
  in
  let attributed = ctx.core +. ctx.check in
  let t = ctx.tally in
  let podem_s = time_of ctx "podem" and sat_s = time_of ctx "sat" in
  let p50 = median ctx.podem_ms in
  let tail, tail_pct, tail_n = podem_tail ctx.podem_ms in
  let busy =
    List.fold_left
      (fun acc (name, v) ->
        if String.starts_with ~prefix:"pool.domain" name then acc +. float v else acc)
      0. (Obs.Export.counters ())
  in
  let campaign_s = time_of ctx "campaign" in
  let pdf_s = time_of ctx "pdf" in
  let sat_props = counter "sat.propagations" in
  (* the stage replay runs on [resynth] only; elsewhere its figures are 0 *)
  let replayed = Option.map (fun f -> f ()) w.replay in
  let stage f = Option.fold ~none:0. ~some:f replayed in
  let all = "all workloads" and rs = "resynth" in
  let opt_cpu = "optimize_s, cpu_s" and sat_on = "resynth / stuck_at" in
  (* name, unit, the end-to-end metric it should move, on which workloads,
     value (README.md has the same table) *)
  let metrics =
    [
      ("netlist.parse_s", "s", "setup_s", all, parse_s);
      ("synth.pass_s", "s", "optimize_s", rs, span_total "engine.pass" spans);
      ("synth.passes", "count", "optimize_s", rs, float t.passes);
      ("synth.replacements", "count", "optimize_s", rs, float t.replacements);
      ("synth.candidates", "count", "optimize_s", rs, counter "engine.candidates");
      ("synth.realised", "count", "optimize_s", rs, counter "engine.realised");
      ("synth.accepted", "count", "optimize_s", rs, counter "engine.accepted");
      ( "synth.accept_frac", "ratio", "optimize_s", rs,
        ratio (counter "engine.accepted") (counter "engine.candidates") );
      ("synth.worklist_popped", "count", "optimize_s", rs, counter "engine.worklist_popped");
      ("synth.reenum_skipped", "count", "optimize_s", rs, counter "engine.reenum_skipped");
      ("synth.dirty_nodes", "count", "optimize_s", rs, hist_sum "engine.dirty_nodes");
      ("synth.extract_words", "count", "optimize_s", rs, counter "extract.words");
      ("synth.verify_checks", "count", "optimize_s", rs, float t.verify_checks);
      ("synth.verify_refused", "count", "optimize_s", rs, float t.verify_refused);
      ( "synth.commit_flush_s", "s", opt_cpu, rs,
        span_total "engine.commit_flush" spans );
      ("synth.commit_waves", "count", opt_cpu, rs, counter "engine.commit_waves");
      ( "synth.concurrent_commits", "count", opt_cpu, rs,
        counter "engine.concurrent_commits" );
      ("synth.wave_coalesced", "count", opt_cpu, rs, counter "engine.wave_coalesced");
      ("synth.enumerate_us", "us", "optimize_s", "resynth", stage (fun r -> r.enumerate_us));
      ("synth.cuts_per_root", "count", "optimize_s", "resynth", stage (fun r -> r.cuts_per_root));
      ("synth.extract_us", "us", "optimize_s", "resynth", stage (fun r -> r.extract_us));
      ("synth.removable_us", "us", "optimize_s", "resynth", stage (fun r -> r.removable_us));
      ("comparison.identify_us", "us", "optimize_s", "resynth", stage (fun r -> r.identify_us));
      ("comparison.build_us", "us", "optimize_s", "resynth", stage (fun r -> r.build_us));
      ( "comparison.identified_frac", "ratio", "optimize_s", "resynth",
        stage (fun r -> r.identified_frac) );
      ("idcache.find_us", "us", "optimize_s", "resynth", stage (fun r -> r.find_us));
      ("idcache.hits", "count", "optimize_s", rs, counter "idcache.hits");
      ("idcache.misses", "count", "optimize_s", rs, counter "idcache.misses");
      ( "idcache.hit_frac", "ratio", "optimize_s", rs,
        ratio
          (counter "idcache.hits" +. counter "idcache.npn_hits")
          (counter "idcache.hits" +. counter "idcache.npn_hits" +. counter "idcache.misses") );
      ("idcache.npn_hits", "count", "optimize_s", rs, counter "idcache.npn_hits");
      ("idcache.class_hits", "count", "optimize_s", rs, hist_sum "idcache.class_hits");
      ("idcache.canon_s", "s", "optimize_s", rs, counter "idcache.canon_ns" *. 1e-9);
      ("cec.outputs", "count", "check_s", rs, hist_count "cec.miter_vars");
      ("cec.miter_vars", "count", "check_s", rs, hist_sum "cec.miter_vars");
      ("cec.decisions", "count", "check_s", rs, counter "cec.decisions");
      ("cec.conflicts", "count", "check_s", rs, counter "cec.conflicts");
      ("cec.propagations", "count", "check_s", rs, counter "cec.propagations");
      ("cec.unknown", "count", "check_s", rs, counter "cec.unknown");
      ("sat.conflicts", "count", "check_s / atpg_s", sat_on, counter "sat.conflicts");
      ("sat.propagations", "count", "check_s / atpg_s", sat_on, sat_props);
      ( "sat.props_per_s", "1/s", "check_s / atpg_s", sat_on,
        ratio sat_props (span_total "cec.check" spans +. span_total "atpg.sat" spans) );
      ("fault.campaign_s", "s", "atpg_s", "stuck_at", campaign_s);
      ("fault.patterns", "count", "atpg_s", "stuck_at", counter "fsim.patterns");
      ("fault.fault_scans", "count", "atpg_s", "stuck_at", counter "fsim.fault_scans");
      ( "fault.scans_per_s", "1/s", "atpg_s", "stuck_at",
        ratio (counter "fsim.fault_scans") campaign_s );
      ("fault.survivors", "count", "atpg_s", "stuck_at", float t.survivors);
      ( "fault.replay_s", "s", "(oracle time, in no end-to-end metric)", "stuck_at",
        time_of ctx "replay" );
      ("atpg.podem_s", "s", "atpg_s", "stuck_at", podem_s);
      ("atpg.podem_faults", "count", "atpg_s", "stuck_at", float t.podem_faults);
      ( "atpg.podem_fault_p50_ms", "ms", "atpg_s", "stuck_at",
        if ctx.podem_ms = [] then 0. else p50 );
      ( "atpg.podem_fault_tail_ms", "ms", "atpg_s", "stuck_at",
        if tail_n > 10 then tail else 0. );
      ("atpg.podem_decisions", "count", "atpg_s", "stuck_at", counter "podem.decisions");
      ("atpg.podem_backtracks", "count", "atpg_s", "stuck_at", counter "podem.backtracks");
      ("atpg.podem_aborted", "count", "atpg_s", "stuck_at", float t.podem_aborted);
      ( "atpg.podem_abort_frac", "ratio", "atpg_s", "stuck_at",
        ratio (float t.podem_aborted) (float t.podem_faults) );
      ( "atpg.podem_us_per_decision", "us", "atpg_s", "stuck_at",
        1e6 *. ratio podem_s (counter "podem.decisions") );
      ("atpg.sat_s", "s", "atpg_s", "stuck_at", sat_s);
      ("atpg.sat_escalations", "count", "atpg_s", "stuck_at", counter "atpg.sat_escalations");
      ("atpg.sat_tests", "count", "atpg_s", "stuck_at", float t.sat_tests);
      ("atpg.sat_redundant", "count", "atpg_s", "stuck_at", counter "atpg.sat_redundant");
      ( "atpg.sat_budget_exhausted", "count", "atpg_s", "stuck_at",
        float t.sat_budget_exhausted );
      ("delay.campaign_s", "s", "pdf_s", "path_delay", pdf_s);
      ("delay.pairs", "count", "pdf_s", "path_delay", counter "pdf.pairs");
      ("delay.pairs_per_s", "1/s", "pdf_s", "path_delay", ratio (counter "pdf.pairs") pdf_s);
      ( "delay.effective_frac", "ratio", "pdf_s", "path_delay",
        ratio (counter "pdf.pairs_effective") (counter "pdf.pairs") );
      ("delay.faults_detected", "count", "pdf_s", "path_delay", counter "pdf.faults_detected");
      ("parallel.chunks", "count", "check_s, cpu_s", rs, counter ~lazily:true "pool.chunks");
      ("parallel.parallel_jobs", "count", "check_s, cpu_s", rs, counter ~lazily:true "pool.parallel_jobs");
      ("parallel.serial_cutoff", "count", "check_s, cpu_s", rs, counter ~lazily:true "pool.serial_cutoff");
      ( "parallel.busy_frac", "ratio", "check_s, cpu_s", rs,
        ratio (busy *. 1e-6) (float w.domains *. last.wall_s) );
      ("gc.minor_mwords", "Mwords", "wall_s, peak_rss_mb", all, ctx.minor_words *. 1e-6);
      ("gc.major_collections", "count", "wall_s, peak_rss_mb", all, float ctx.major_collections);
      ("trace.overhead_frac", "ratio", "(tracing cost)", all, overhead);
      ( "trace.unattributed_frac", "ratio", "(coverage of the timed calls)", all,
        ratio (last.wall_s -. attributed) last.wall_s );
    ]
  in
  Printf.printf
    "# workload %s (traced), seed %d, a warm-up pass and %d untraced/traced pass pair(s)\n"
    w.name seed (List.length pairs);
  Printf.printf "# self time by layer in the last traced pass (%.3f s wall):\n" last.wall_s;
  let selfs = Hashtbl.create 16 in
  self_times selfs spans;
  let layers = Hashtbl.create 8 in
  Hashtbl.iter
    (fun span (s, _) ->
      let l = layer_of span in
      Hashtbl.replace layers l (s +. Option.value ~default:0. (Hashtbl.find_opt layers l)))
    selfs;
  List.iter
    (fun (l, s) -> Printf.printf "#   %-10s %10.4f s  %5.1f%%\n" l s (100. *. s /. last.wall_s))
    (List.sort (fun (_, a) (_, b) -> compare b a) (List.of_seq (Hashtbl.to_seq layers)));
  Printf.printf "#   %-10s %10.4f s  %5.1f%%  (outside any timed call)\n" "unattributed"
    (last.wall_s -. attributed)
    (100. *. (last.wall_s -. attributed) /. last.wall_s);
  Printf.printf "# spans (self s / calls):\n";
  List.iter
    (fun (span, (s, calls)) -> Printf.printf "#   %-24s %10.4f %8d\n" span s calls)
    (List.sort compare (List.of_seq (Hashtbl.to_seq selfs)));
  Printf.printf "# per-layer metrics (value, unit, moves -> on):\n";
  List.iter
    (fun (name, unit, moves, on, v) ->
      Printf.printf "#   %-30s %16.6g %-6s %s -> %s\n" name v unit moves on)
    metrics;
  if tail_n > 10 then
    Printf.printf "#   (atpg.podem_fault_tail_ms is p%.1f of %d per-fault samples)\n" tail_pct
      tail_n;
  print_result ~correct:(failed = 0) ~attempted ~failed
    (List.map (fun (name, unit, _, _, v) -> metric name unit v) metrics)

let () =
  match List.find_opt (fun w -> w.name = workload_name) (workloads ()) with
  | None -> usage ()
  | Some w -> if traced_run then per_layer w else end_to_end w
