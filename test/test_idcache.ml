(* The raw-key, disk-persistent identification cache (DESIGN.md §15):
   soundness of the cache against the exact identifier over every 3-input
   function, and the disk store's round-trip, version-mismatch, torn-tail,
   corruption and warm-start behaviour. *)

open Helpers

let random_table rng n =
  Truthtable.create n (fun _ -> Rng.int rng 2 = 1)

let table3 v = Truthtable.create 3 (fun m -> v land (1 lsl m) <> 0)

(* --- cache soundness ------------------------------------------------------- *)

(* Record every 3-input function's exact verdict, then look every one up
   again: each lookup must replay the exact verdict, positive or
   negative. *)
let test_cache_sound_raw () =
  let cache = Idcache.create () in
  let all = List.init 256 Fun.id in
  List.iter
    (fun v ->
      let f = table3 v in
      match Idcache.find cache f with
      | Idcache.Hit _ -> Alcotest.failf "hit on an empty cache for %d" v
      | Idcache.Neg_hit -> Alcotest.failf "Neg_hit for %d" v
      | Idcache.Miss m -> Idcache.record cache m (Comparison_fn.identify_exact f))
    all;
  check int_ "every table recorded" 256 (Idcache.length cache);
  List.iter
    (fun v ->
      let f = table3 v in
      match Idcache.find cache f with
      | Idcache.Hit verdict ->
        if verdict <> Comparison_fn.identify_exact f then
          Alcotest.failf "hit returned a wrong verdict for %s"
            (Truthtable.to_string f)
      | Idcache.Neg_hit -> Alcotest.failf "Neg_hit for %d" v
      | Idcache.Miss _ -> Alcotest.failf "recorded table %d missed" v)
    all

(* --- disk store ------------------------------------------------------------ *)

let tmpdir () =
  let d = Filename.temp_file "sft-idcache" ".d" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let populate_n3 cache count =
  (* Record the first [count] 3-input functions' verdicts (cache-miss order). *)
  for v = 0 to count - 1 do
    let f = table3 v in
    match Idcache.find cache f with
    | Idcache.Hit _ | Idcache.Neg_hit -> ()
    | Idcache.Miss m -> Idcache.record cache m (Comparison_fn.identify_exact f)
  done

let test_disk_round_trip () =
  let dir = tmpdir () in
  let cold = Idcache.create ~dir () in
  populate_n3 cold 64;
  check int_ "every populated table recorded" 64 (Idcache.length cold);
  Idcache.finish cold;
  let warm = Idcache.create ~dir () in
  check int_ "entries survive the round trip" 64 (Idcache.length warm);
  for v = 0 to 63 do
    (* Every populated function must warm-hit and replay the exact
       verdict. *)
    let f = table3 v in
    match Idcache.find warm f with
    | Idcache.Hit verdict ->
      if verdict <> Comparison_fn.identify_exact f then
        Alcotest.failf "warm verdict differs for %d" v
    | Idcache.Neg_hit -> Alcotest.failf "Neg_hit for %d" v
    | Idcache.Miss _ -> Alcotest.failf "expected a warm hit for %d" v
  done

let test_disk_version_mismatch () =
  let dir = tmpdir () in
  let path = Id_store.file ~dir in
  (* A well-formed header with the wrong version must read as empty... *)
  let oc = open_out_bin path in
  output_string oc "SFTIDC";
  output_string oc "\x63\x00" (* version 99 *);
  output_string oc "garbage that must never be parsed as records";
  close_out oc;
  check int_ "version mismatch reads as empty" 0 (List.length (Id_store.load path));
  (* ...and the next append must rewrite the file, not extend it. *)
  let t = Truthtable.of_minterms 3 [ 1; 2; 3 ] in
  Id_store.append path [ Id_store.Raw (t, Comparison_fn.identify_exact t) ];
  (match Id_store.load path with
  | [ Id_store.Raw (t', v) ] ->
    check bool_ "table round-trips" true (Truthtable.equal t t');
    if v <> Comparison_fn.identify_exact t then Alcotest.fail "verdict changed"
  | _ -> Alcotest.fail "append after mismatch did not rewrite");
  ()

(* FNV-1a over a whole string, as the store checksums each record. *)
let fnv1a s =
  let h = ref 0x811C9DC5 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xFFFFFFFF) s;
  !h

let checksummed body =
  let b = Buffer.create 32 in
  Buffer.add_string b body;
  Buffer.add_int32_le b (Int32.of_int (fnv1a body));
  Buffer.contents b

(* A version-1 store: a kind-1 raw negative for [t] and a kind-2 NPN
   record (canonical table words + pushed phase u16), both well formed
   and checksummed, so only the version keeps them out. *)
let v1_store t =
  let table_bytes t =
    let b = Buffer.create 16 in
    Buffer.add_uint8 b (Truthtable.arity t);
    Array.iter (Buffer.add_int64_le b) (Truthtable.words t);
    Buffer.contents b
  in
  let b = Buffer.create 64 in
  Buffer.add_string b Id_store.magic;
  Buffer.add_uint16_le b 1;
  Buffer.add_string b (checksummed ("\x01" ^ table_bytes t ^ "\x00"));
  Buffer.add_string b (checksummed ("\x02" ^ table_bytes t ^ "\x03\x00"));
  Buffer.contents b

let test_disk_v1_store () =
  let dir = tmpdir () in
  let path = Id_store.file ~dir in
  let oc = open_out_bin path in
  output_string oc (v1_store (table3 0b01101001));
  close_out oc;
  check int_ "v1 store loads as empty" 0 (List.length (Id_store.load path));
  let cache = Idcache.create ~dir () in
  check int_ "cache starts empty" 0 (Idcache.length cache);
  populate_n3 cache 8;
  Idcache.flush cache;
  let s = In_channel.with_open_bin path In_channel.input_all in
  check int_ "flush republishes the header as the current version"
    Id_store.version (String.get_uint16_le s 6);
  check int_ "current version is 2" 2 Id_store.version;
  let entries = Id_store.load path in
  check int_ "only the fresh entries survive" 8 (List.length entries);
  List.iteri
    (fun v (Id_store.Raw (t, verdict)) ->
      check bool_ "fresh table in miss order" true (Truthtable.equal t (table3 v));
      if verdict <> Comparison_fn.identify_exact t then
        Alcotest.failf "verdict changed for %d" v)
    entries

let test_disk_torn_tail () =
  let dir = tmpdir () in
  let path = Id_store.file ~dir in
  let tables =
    List.map (fun ms -> Truthtable.of_minterms 3 ms) [ [ 0 ]; [ 1; 2 ]; [ 3; 4; 5 ] ]
  in
  Id_store.append path
    (List.map (fun t -> Id_store.Raw (t, Comparison_fn.identify_exact t)) tables);
  check int_ "three records" 3 (List.length (Id_store.load path));
  (* Tear the last record: readers keep the prefix... *)
  let len = (Unix.stat path).Unix.st_size in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd (len - 3);
  Unix.close fd;
  check int_ "torn tail drops one record" 2 (List.length (Id_store.load path));
  (* ...and the next append repairs the tail before extending. *)
  let extra = Truthtable.of_minterms 3 [ 6; 7 ] in
  Id_store.append path [ Id_store.Raw (extra, Comparison_fn.identify_exact extra) ];
  let entries = Id_store.load path in
  check int_ "repair + append" 3 (List.length entries);
  (match List.rev entries with
  | Id_store.Raw (t, _) :: _ ->
    check bool_ "appended record intact" true (Truthtable.equal t extra)
  | _ -> Alcotest.fail "unexpected tail entry")

let test_disk_corrupt_record () =
  let dir = tmpdir () in
  let path = Id_store.file ~dir in
  let raw ms =
    let t = Truthtable.of_minterms 3 ms in
    Id_store.Raw (t, Comparison_fn.identify_exact t)
  in
  (* Append the first record alone so its encoded length is observable
     (records vary in size with the verdict payload), then two more. *)
  Id_store.append path [ raw [ 0 ] ];
  let first_end = (Unix.stat path).Unix.st_size in
  Id_store.append path [ raw [ 1; 2 ]; raw [ 3; 4; 5 ] ];
  check int_ "three records before corruption" 3 (List.length (Id_store.load path));
  (* Flip a byte inside the second record's table words: the checksum
     rejects it and parsing stops — record 1 survives, 2 and 3 drop. *)
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  ignore (Unix.lseek fd (first_end + 4) Unix.SEEK_SET);
  let b = Bytes.create 1 in
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xFF));
  ignore (Unix.lseek fd (first_end + 4) Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd;
  check int_ "corruption truncates at the bad record" 1
    (List.length (Id_store.load path))

(* A seeded hostile-store sweep (ROADMAP robustness): random byte flips
   and truncations of a valid store must never make [load] raise; what it
   returns must be a prefix of the original entries, and every spec it
   returns must be well formed. *)
let ok_spec n (s : Comparison_fn.spec) =
  let seen = Array.make (n + 1) false in
  Array.length s.perm = n
  && Array.for_all
       (fun v -> v >= 1 && v <= n && (not seen.(v)) && (seen.(v) <- true; true))
       s.perm
  && s.lo <= s.hi
  && s.hi < 1 lsl n

let test_disk_hostile () =
  let rng = Rng.create 4242L in
  let dir = tmpdir () in
  let path = Id_store.file ~dir in
  let entries =
    List.init 40 (fun i ->
        let n = Rng.int rng 7 in
        let t =
          if i mod 2 = 0 then random_table rng n
          else begin
            (* A genuine comparison function, so positive verdicts (and
               their spec payloads) are in the store too. *)
            let perm = Array.init n (fun j -> j + 1) in
            for j = n - 1 downto 1 do
              let k = Rng.int rng (j + 1) in
              let x = perm.(j) in
              perm.(j) <- perm.(k);
              perm.(k) <- x
            done;
            let a = Rng.int rng (1 lsl n) and b = Rng.int rng (1 lsl n) in
            Comparison_fn.spec_table n
              { Comparison_fn.perm; lo = min a b; hi = max a b; complemented = false }
          end
        in
        Id_store.Raw (t, Comparison_fn.identify_exact t))
  in
  Id_store.append path entries;
  let original = In_channel.with_open_bin path In_channel.input_all in
  let len = String.length original in
  let same (Id_store.Raw (t, v)) (Id_store.Raw (t', v')) =
    Truthtable.equal t t' && v = v'
  in
  let rec is_prefix got orig =
    match (got, orig) with
    | [], _ -> true
    | g :: gs, o :: os -> same g o && is_prefix gs os
    | _ :: _, [] -> false
  in
  let corrupt = Filename.concat dir "corrupt.bin" in
  for trial = 1 to 400 do
    let b = Bytes.of_string original in
    for _ = 1 to 1 + Rng.int rng 4 do
      let i = Rng.int rng len in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 + Rng.int rng 255)))
    done;
    let keep = if Rng.int rng 2 = 0 then len else Rng.int rng (len + 1) in
    Out_channel.with_open_bin corrupt (fun oc ->
        Out_channel.output oc b 0 keep);
    match Id_store.load corrupt with
    | exception e ->
      Alcotest.failf "trial %d: load raised %s" trial (Printexc.to_string e)
    | got ->
      if not (is_prefix got entries) then
        Alcotest.failf "trial %d: load returned a non-prefix" trial;
      List.iter
        (fun (Id_store.Raw (t, v)) ->
          match v with
          | Some spec when not (ok_spec (Truthtable.arity t) spec) ->
            Alcotest.failf "trial %d: malformed spec loaded" trial
          | _ -> ())
        got
  done

(* --- engine warm start ----------------------------------------------------- *)

let optimize_fingerprint options c =
  let c = Circuit.copy c in
  let stats = Engine.optimize Engine.Gates options c in
  ( stats.Engine.passes,
    stats.Engine.replacements,
    stats.Engine.gates_after,
    stats.Engine.paths_after,
    Bench_format.to_string c )

let counter v = Obs.Counter.value (Obs.Counter.make v)

let test_engine_warm_start_identity () =
  let dir = tmpdir () in
  let c = random_circuit ~n_pi:6 ~n_gates:40 3 in
  let base = { Engine.default_options with Engine.verify = `Off; domains = 1 } in
  Obs.enable ();
  let off = optimize_fingerprint { base with Engine.id_cache = false } c in
  let cold = optimize_fingerprint { base with Engine.cache_dir = Some dir } c in
  let d0 = counter "idcache.disk_hits" in
  let warm = optimize_fingerprint { base with Engine.cache_dir = Some dir } c in
  let disk_hits = counter "idcache.disk_hits" - d0 in
  Obs.disable ();
  if cold <> off then Alcotest.fail "cold cached run diverges from cache-off";
  if warm <> off then Alcotest.fail "warm cached run diverges from cache-off";
  if disk_hits = 0 then Alcotest.fail "warm run never hit the disk store"

(* Every miss is recorded before the next lookup, so a cold run identifies
   each distinct table once: its miss count is exactly the number of
   entries it publishes, even when a table recurs within one root's
   candidate batch. *)
let test_engine_cold_misses_stored () =
  let dir = tmpdir () in
  let c = random_circuit ~n_pi:8 ~n_gates:80 ~n_po:4 5 in
  Obs.enable ();
  let m0 = counter "idcache.misses" in
  ignore
    (optimize_fingerprint
       {
         Engine.default_options with
         Engine.verify = `Off;
         domains = 1;
         cache_dir = Some dir;
       }
       c);
  let misses = counter "idcache.misses" - m0 in
  Obs.disable ();
  check bool_ "the run missed" true (misses > 0);
  check int_ "one miss per stored table" misses
    (List.length (Id_store.load (Id_store.file ~dir)))

(* --- qcheck ---------------------------------------------------------------- *)

let arb_seed = QCheck.int_range 1 1_000_000

let prop_store_round_trip =
  QCheck.Test.make ~name:"disk entries round-trip bit-exactly" ~count:30 arb_seed
    (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let dir = tmpdir () in
      let path = Id_store.file ~dir in
      let entries =
        List.init 5 (fun _ ->
            (* Arity 0 included: the engine caches constant cuts too. *)
            let n = Rng.int rng 7 in
            let t = random_table rng n in
            Id_store.Raw (t, Comparison_fn.identify_exact t))
      in
      Id_store.append path entries;
      let back = Id_store.load path in
      List.length back = List.length entries
      && List.for_all2
           (fun (Id_store.Raw (t, v)) (Id_store.Raw (t', v')) ->
             Truthtable.equal t t' && v = v')
           entries back)

let suite =
  [
    Alcotest.test_case "raw-layer soundness on every 3-input function" `Quick
      test_cache_sound_raw;
    Alcotest.test_case "disk round trip" `Quick test_disk_round_trip;
    Alcotest.test_case "version mismatch reads empty, append rewrites" `Quick
      test_disk_version_mismatch;
    Alcotest.test_case "v1 store reads empty, flush rewrites as v2" `Quick
      test_disk_v1_store;
    Alcotest.test_case "torn tail: reader keeps prefix, writer repairs" `Quick
      test_disk_torn_tail;
    Alcotest.test_case "checksum rejects corrupt record" `Quick
      test_disk_corrupt_record;
    Alcotest.test_case "hostile store: flips and truncations load a prefix" `Quick
      test_disk_hostile;
    Alcotest.test_case "engine warm start: identical circuits, disk hits" `Slow
      test_engine_warm_start_identity;
    Alcotest.test_case "cold engine run: one miss per stored table" `Quick
      test_engine_cold_misses_stored;
  ]

let qchecks = [ prop_store_round_trip ]
