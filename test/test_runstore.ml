(* Run-store tests: encode/decode round-trips for every record shape
   (journal/4, faults/3, a mixed int/float rate record and the generic
   history/1 envelope) over Rng-seeded field values, precise rejection
   of malformed/truncated JSONL, the append/load file contract, run
   selection, the regression gate and its keyed form, the journal's
   summary line, and the one canonical float formatter every JSON
   dialect shares. *)

module R = Levee_support.Rng
module RS = Levee_support.Runstore
module J = Levee_support.Jsonenc
module Journal = Levee_support.Journal
module M = Levee_machine

(* ---------- generators ---------- *)

(* Strings stress the escaper: quotes, backslashes, newlines, tabs,
   control characters. *)
let string_alphabet =
  [| 'a'; 'b'; 'z'; 'Q'; '7'; '_'; '-'; '.'; '/'; ' '; '"'; '\\'; '\n';
     '\t'; '\x01'; '\x1f' |]

let rand_string rng =
  let n = R.int rng 12 in
  String.init n (fun _ -> R.pick rng string_alphabet)

let rand_int rng = R.range rng (-5) 10_000_000

(* One-decimal floats survive the %.1f dialect bit-for-bit. *)
let rand_float rng = float_of_int (R.range rng (-5000) 1_000_000) /. 10.0

let journal_fields =
  [ "cells"; "failures"; "cycles"; "instrs"; "mem_ops";
    "instrumented_mem_ops"; "store_accesses"; "checks_elided";
    "mem_ops_demoted"; "ctx_switches"; "races"; "checksum" ]

let rate_int_fields =
  [ "fuel_cap"; "cells"; "cells_wall_us"; "ripe_wall_us"; "checks_elided";
    "mem_ops_demoted" ]

let faults_fields =
  [ "runs"; "hijacked"; "trapped"; "crash"; "masked"; "benign";
    "fuel_exhausted"; "hijacked_vanilla"; "hijacked_cfi";
    "hijacked_cfi_type"; "hijacked_cpi"; "hijacked_cpi_crypt"; "cycles";
    "invariants_ok" ]

let gen_journal rng =
  RS.make ~schema:"levee-bench-journal/4" ~kind:"bench"
    ~commit:(rand_string rng) ~config:(rand_string rng)
    ~seed:(R.range rng (-3) 1000) ~wall_us:(R.int rng 1_000_000)
    (List.map (fun k -> (k, RS.Int (rand_int rng))) journal_fields)

(* Ints and a one-decimal rate in one record. *)
let gen_rates rng =
  RS.make ~schema:"rates/1" ~kind:"rates"
    ~commit:(rand_string rng) ~config:"rates" ~wall_us:(R.int rng 1_000_000)
    (List.map (fun k -> (k, RS.Int (rand_int rng))) rate_int_fields
    @ [ ("cells_per_sec", RS.Float (rand_float rng)) ])

let gen_faults rng =
  RS.make ~schema:"levee-faults/3" ~kind:"faults" ~commit:(rand_string rng)
    ~config:(rand_string rng) ~seed:(R.int rng 10_000) ~wall_us:0
    (List.map (fun k -> (k, RS.Int (rand_int rng))) faults_fields)

(* The open envelope: arbitrary metric names and mixed value types,
   the shape future producers (p-latency histograms, ...) will use. *)
let gen_history rng =
  let n = 1 + R.int rng 8 in
  let metrics =
    List.init n (fun i ->
        let name = Printf.sprintf "%s_%d" (rand_string rng) i in
        let v =
          match R.int rng 3 with
          | 0 -> RS.Int (rand_int rng)
          | 1 -> RS.Float (rand_float rng)
          | _ -> RS.Str (rand_string rng)
        in
        (name, v))
  in
  RS.make ~schema:"levee-history/1" ~kind:(rand_string rng)
    ~commit:(rand_string rng) ~config:(rand_string rng)
    ~seed:(R.range rng (-100) 100_000) ~wall_us:(R.int rng 1_000_000)
    metrics

let has_float r =
  List.exists (fun (_, v) -> match v with RS.Float _ -> true | _ -> false)
    r.RS.metrics

(* ---------- round trips ---------- *)

let check_roundtrip what r =
  let line = RS.to_line r in
  match RS.of_line line with
  | Error e -> Alcotest.failf "%s: of_line rejected its own bytes: %s" what e
  | Ok r' ->
    Alcotest.(check string) (what ^ ": re-encoded line") line (RS.to_line r');
    Alcotest.(check bool) (what ^ ": key preserved") true (RS.key r = RS.key r');
    (* One-decimal floats are exact in both directions, so the decoded
       record is structurally identical, not just byte-identical. *)
    Alcotest.(check bool) (what ^ ": record preserved") true (r = r');
    ignore (has_float r)

let test_roundtrip_all_schemas () =
  List.iter
    (fun seed ->
      let rng = R.create seed in
      check_roundtrip "journal/4" (gen_journal rng);
      check_roundtrip "rates/1" (gen_rates rng);
      check_roundtrip "faults/3" (gen_faults rng);
      check_roundtrip "history/1" (gen_history rng))
    (List.init 50 (fun i -> 1000 + (i * 7)))

(* ---------- malformed input ---------- *)

let expect_error what line =
  match RS.of_line line with
  | Ok _ -> Alcotest.failf "%s: expected rejection, got Ok" what
  | Error msg ->
    Alcotest.(check bool)
      (what ^ ": error message is non-empty") true
      (String.length msg > 0)

let test_truncated_rejected () =
  let rng = R.create 99 in
  let r = gen_journal rng in
  let line = RS.to_line r in
  (* Every proper prefix is a truncated record: a precise Error, never
     an exception, never a bogus Ok. *)
  List.iter
    (fun cut ->
      expect_error
        (Printf.sprintf "truncated at %d" cut)
        (String.sub line 0 cut))
    [ 1; String.length line / 4; String.length line / 2;
      String.length line - 1 ]

let test_malformed_rejected () =
  let good = RS.to_line (gen_rates (R.create 7)) in
  expect_error "empty line is no record" "{}";
  expect_error "trailing garbage" (good ^ "}");
  expect_error "not JSON" "truncated{";
  expect_error "array, not object" "[1,2,3]";
  (* wrong envelope version: parseable JSON, still rejected *)
  (match
     RS.of_line
       "{\"v\":\"levee-history/0\",\"schema\":\"x\",\"kind\":\"k\",\
        \"commit\":\"c\",\"config\":\"g\",\"seed\":0,\"wall_us\":0,\
        \"metrics\":{}}"
   with
   | Ok _ -> Alcotest.fail "unknown version accepted"
   | Error msg ->
     Alcotest.(check bool) "version named in error" true
       (String.length msg > 0
       && String.sub msg 0 7 = "unknown"));
  expect_error "metrics must be an object"
    "{\"v\":\"levee-history/1\",\"schema\":\"x\",\"kind\":\"k\",\
     \"commit\":\"c\",\"config\":\"g\",\"seed\":0,\"wall_us\":0,\
     \"metrics\":[1]}";
  expect_error "missing seed"
    "{\"v\":\"levee-history/1\",\"schema\":\"x\",\"kind\":\"k\",\
     \"commit\":\"c\",\"config\":\"g\",\"wall_us\":0,\"metrics\":{}}"

(* ---------- the file contract ---------- *)

let with_store f =
  let path = Filename.temp_file "runstore" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_append_load () =
  with_store (fun path ->
      Sys.remove path;
      (match RS.load ~path () with
       | Error _ -> ()
       | Ok _ -> Alcotest.fail "missing store should be an error");
      let rng = R.create 5 in
      let r1 = gen_journal rng and r2 = gen_faults rng in
      RS.append ~path r1;
      RS.append ~path r2;
      match RS.load ~path () with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok rs ->
        Alcotest.(check bool) "append order preserved" true (rs = [ r1; r2 ]))

let test_load_reports_bad_line () =
  with_store (fun path ->
      let rng = R.create 6 in
      RS.append ~path (gen_journal rng);
      RS.append ~path (gen_rates rng);
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "{\"v\":\"levee-history/1\",\"schema\":\"trunc";
      close_out oc;
      match RS.load ~path () with
      | Ok _ -> Alcotest.fail "corrupt tail line accepted"
      | Error msg ->
        let expected = Printf.sprintf "%s:3:" path in
        Alcotest.(check bool)
          (Printf.sprintf "error pinpoints line 3 (%s)" msg)
          true
          (String.length msg >= String.length expected
          && String.sub msg 0 (String.length expected) = expected))

let test_find_specs () =
  let rng = R.create 8 in
  let mk config seed =
    RS.make ~schema:"s/1" ~kind:"k" ~commit:"c" ~config ~seed
      [ ("cycles", RS.Int (rand_int rng)) ]
  in
  let rs = [ mk "alpha" 0; mk "beta" 1; mk "alpha" 2 ] in
  let get spec =
    match RS.find rs spec with
    | Ok r -> r
    | Error e -> Alcotest.failf "find %s: %s" spec e
  in
  Alcotest.(check int) "index 1" 1 (get "1").RS.seed;
  Alcotest.(check int) "negative index" 2 (get "-1").RS.seed;
  Alcotest.(check int) "last" 2 (get "last").RS.seed;
  Alcotest.(check int) "prev" 1 (get "prev").RS.seed;
  Alcotest.(check int) "config picks most recent" 2 (get "alpha").RS.seed;
  (match RS.find rs "7" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "out-of-range index accepted");
  (match RS.find rs "nosuch" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "unknown config accepted")

(* ---------- the regression gate ---------- *)

let rec_with_cycles ?(wall = 0) cycles =
  RS.make ~schema:"levee-bench-journal/4" ~kind:"bench" ~commit:"c"
    ~config:"g" ~wall_us:wall
    [ ("cycles", RS.Int cycles); ("races", RS.Int 0) ]

let test_gate_flags_cycle_regression () =
  (* 10% > the 5% default tolerance: the gate must fire and must name
     the offending field. *)
  let vs = RS.gate (rec_with_cycles 1000) (rec_with_cycles 1100) in
  (match vs with
   | [ v ] ->
     Alcotest.(check string) "offending field named" "cycles" v.RS.vfield;
     Alcotest.(check bool) "tolerance carried" true (v.RS.vtol = 5.0);
     Alcotest.(check bool) "delta is +10%" true (abs_float (v.RS.vpct -. 10.0) < 1e-9)
   | vs -> Alcotest.failf "expected exactly one violation, got %d" (List.length vs));
  let human = RS.gate_human vs in
  Alcotest.(check bool) "human verdict says FAIL + field" true
    (String.length human >= 10
    && String.sub human 0 10 = "gate: FAIL"
    && String.length human
       > (match String.index_opt human '\n' with Some i -> i | None -> 0))

let test_gate_within_tolerance_passes () =
  Alcotest.(check bool) "3% cycle delta passes" true
    (RS.gate (rec_with_cycles 1000) (rec_with_cycles 1030) = []);
  Alcotest.(check bool) "improvements beyond tolerance still flagged" true
    (RS.gate (rec_with_cycles 1000) (rec_with_cycles 500) <> []);
  Alcotest.(check bool) "zero-to-zero wall passes" true
    (RS.gate (rec_with_cycles ~wall:0 1000) (rec_with_cycles ~wall:0 1000) = [])

let test_gate_wall_clock () =
  let vs =
    RS.gate (rec_with_cycles ~wall:1000 100) (rec_with_cycles ~wall:2000 100)
  in
  (match vs with
   | [ v ] -> Alcotest.(check string) "wall_us gated" "wall_us" v.RS.vfield
   | _ -> Alcotest.fail "expected one wall_us violation");
  Alcotest.(check bool) "49% wall delta within default 50%" true
    (RS.gate (rec_with_cycles ~wall:1000 100) (rec_with_cycles ~wall:1490 100)
    = [])

let test_gate_tolerance_override () =
  let a = rec_with_cycles 1000 and b = rec_with_cycles 2000 in
  Alcotest.(check bool) "default tolerance fires" true (RS.gate a b <> []);
  (* blessing an intentional regression: a first-match override *)
  let tolerances = ("cycles", 200.0) :: RS.default_tolerances in
  Alcotest.(check bool) "blessed by --tol override" true
    (RS.gate ~tolerances a b = []);
  (* ungated fields never fire, whatever the delta *)
  let big_races =
    RS.make ~schema:"s/1" ~kind:"k" ~commit:"c" ~config:"g"
      [ ("cycles", RS.Int 1000); ("races", RS.Int 999) ]
  in
  Alcotest.(check bool) "races not gated by default" true
    (RS.gate (rec_with_cycles 1000) big_races = [])

(* ---------- the keyed gate ---------- *)

let keyed ?(schema = "levee-bench-journal/4") ?(commit = "c") ?(seed = 0)
    config cycles =
  RS.make ~schema ~kind:"k" ~commit ~config ~seed [ ("cycles", RS.Int cycles) ]

let gate_since rs since =
  match RS.gate_since rs since with
  | Ok steps -> steps
  | Error e -> Alcotest.failf "gate_since %d: %s" since e

let baselines steps =
  List.map (fun st -> (st.RS.index, st.RS.baseline)) steps

let test_gate_since_mixed_keys () =
  (* Interleaved schemas, configs and seeds: each new record finds the
     newest earlier record with its own (schema, config, seed). *)
  let rs =
    [ keyed "table1" 100;                          (* 0 *)
      keyed ~seed:7 "table1" 200;                  (* 1 *)
      keyed ~schema:"levee-faults/3" "table1" 300; (* 2 *)
      keyed "ripe" 400;                            (* 3 *)
      keyed "table1" 101;                          (* 4: stale baseline *)
      keyed ~seed:7 "table1" 201;                  (* since = 5 *)
      keyed "ripe" 401;
      keyed ~schema:"levee-faults/3" "table1" 301;
      keyed "table1" 102 ]
  in
  let steps = gate_since rs 5 in
  Alcotest.(check (list (pair int (option int))))
    "each record gated against its own key"
    [ (5, Some 1); (6, Some 3); (7, Some 2); (8, Some 4) ]
    (baselines steps);
  Alcotest.(check bool) "all within tolerance" true
    (List.for_all (fun st -> st.RS.violations = []) steps);
  Alcotest.(check (list (pair int (option int))))
    "negative SINCE counts from the end" [ (8, Some 4) ]
    (baselines (gate_since rs (-1)));
  Alcotest.(check (list (pair int (option int))))
    "SINCE = length gates nothing" [] (baselines (gate_since rs 9));
  (match RS.gate_since rs 10 with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "out-of-range SINCE accepted")

let test_gate_since_seeds_baseline () =
  (* A key with no earlier record is skipped, never a failure; and a
     record after SINCE is no baseline for another one after SINCE. *)
  let rs = [ keyed "table1" 100; keyed "serve" 5; keyed "serve" 9000 ] in
  let steps = gate_since rs 1 in
  Alcotest.(check (list (pair int (option int))))
    "both new records seed" [ (1, None); (2, None) ] (baselines steps);
  Alcotest.(check bool) "no violations" true
    (List.for_all (fun st -> st.RS.violations = []) steps);
  let human = RS.gate_since_human rs steps in
  Alcotest.(check bool) "reported as baseline seeded" true
    (List.length (String.split_on_char '\n' human) = 3
    && List.for_all
         (fun l -> l = "" || Helpers.contains l "baseline seeded")
         (String.split_on_char '\n' human))

let test_gate_since_schema_bump () =
  (* A schema bump with doubled cycles: the new shape seeds a fresh
     baseline instead of failing against the old one. *)
  let rs =
    [ keyed ~schema:"levee-bench-journal/4" "table1" 100;
      keyed ~schema:"levee-bench-journal/5" "table1" 200 ]
  in
  Alcotest.(check (list (pair int (option int))))
    "bumped schema not gated" [ (1, None) ] (baselines (gate_since rs 1))

let test_gate_since_across_commits () =
  (* The gate key leaves the commit out: the next commit's run of the
     same config is gated, and a >5% cycle regression names the field. *)
  let rs =
    [ keyed ~commit:"aaaa111" "table1" 1000;
      keyed ~commit:"bbbb222" "table1" 1100 ]
  in
  match gate_since rs 1 with
  | [ { RS.index = 1; baseline = Some 0; violations = [ v ] } ] ->
    Alcotest.(check string) "offending field named" "cycles" v.RS.vfield;
    let human = RS.gate_since_human rs (gate_since rs 1) in
    Alcotest.(check bool) "human verdict names the field" true
      (Helpers.contains human "gate: FAIL"
      && Helpers.contains human "cycles: 1000 -> 1100")
  | steps ->
    Alcotest.failf "expected one gated violation, got %d step(s)"
      (List.length steps)

(* ---------- journal projection ---------- *)

let entry workload cycles wall : Journal.entry =
  { Journal.workload; protection = "cpi"; store = "array";
    outcome = "exit(0)"; status = 0; cycles; instrs = 2 * cycles;
    mem_ops = 3; instrumented_mem_ops = 1; store_accesses = 4;
    store_footprint = 5; heap_peak = 6; checksum = 7; checks_elided = 8;
    mem_ops_demoted = 9; threads = 1; ctx_switches = 0; races = 0;
    attempts = 1; wall_us = wall }

let test_summary_line_fuel_capped () =
  let j = Journal.create ~target:"table1" () in
  let add outcome status =
    Journal.record j
      { (entry "w" 10 0) with
        Journal.outcome = M.Trap.outcome_to_string outcome; status }
  in
  add (M.Trap.Exit 0) 0;
  add M.Trap.Fuel_exhausted 1;
  add (M.Trap.Trapped M.Trap.Cookie_smashed) 1;
  Alcotest.(check string) "capped reported apart from failed"
    "[journal] table1: 3 runs (1 failed, 1 fuel-capped), 30 model cycles, \
     0.0 ms wall, jobs=1"
    (Journal.summary_line j);
  Alcotest.(check int) "record still counts the capped run as a failure" 2
    (List.length (Journal.failures j))

let test_journal_to_record () =
  let j = Journal.create ~jobs:2 ~target:"table1" () in
  Journal.record j (entry "a" 100 7);
  Journal.record j (entry "b" 250 9);
  let r = Journal.to_record ~kind:"bench" ~commit:"c0" j in
  Alcotest.(check string) "config is the target" "table1" r.RS.config;
  Alcotest.(check bool) "cells" true
    (List.assoc "cells" r.RS.metrics = RS.Int 2);
  Alcotest.(check bool) "cycles summed" true
    (List.assoc "cycles" r.RS.metrics = RS.Int 350);
  Alcotest.(check bool) "checks_elided summed" true
    (List.assoc "checks_elided" r.RS.metrics = RS.Int 16);
  Alcotest.(check int) "wall summed" 16 r.RS.wall_us;
  let z = Journal.to_record ~kind:"bench" ~commit:"c0" ~zero_wall:true j in
  Alcotest.(check int) "zero_wall drops wall" 0 z.RS.wall_us;
  Alcotest.(check bool) "zero_wall is the only difference" true
    (RS.to_line { z with RS.wall_us = 16 } = RS.to_line r)

(* ---------- the float dialect ---------- *)

let test_float_str_pinned () =
  let check expected v =
    Alcotest.(check string)
      (Printf.sprintf "float_str %h" v)
      expected (J.float_str v)
  in
  check "0.0" 0.0;
  check "0.0" (-0.0);                 (* negative zero normalized *)
  check "0.0" nan;                    (* non-finite collapses *)
  check "0.0" infinity;
  check "0.0" neg_infinity;
  check "-2.4" (-2.4);
  check "-12.5" (-12.5);
  check "197.4" 197.4;
  check "1000000000000000.0" 1e15;    (* large, still fixed-point *)
  check "-1000000000000000.0" (-1e15);
  Alcotest.(check string) "float1 combinator uses the dialect"
    "\"cells_per_sec\":197.4"
    (J.float1 "cells_per_sec" 197.4)

let test_float_roundtrip_seeded () =
  List.iter
    (fun seed ->
      let rng = R.create seed in
      for _ = 1 to 200 do
        let f = rand_float rng in
        let s = J.float_str f in
        Alcotest.(check string)
          (Printf.sprintf "re-parse of %s is stable" s)
          s
          (J.float_str (float_of_string s))
      done)
    [ 11; 12; 13 ]

let () =
  Alcotest.run "runstore"
    [ ( "roundtrip",
        [ Alcotest.test_case "all record schemas, 50 seeds" `Quick
            test_roundtrip_all_schemas ] );
      ( "malformed",
        [ Alcotest.test_case "truncated lines rejected" `Quick
            test_truncated_rejected;
          Alcotest.test_case "malformed lines rejected" `Quick
            test_malformed_rejected;
          Alcotest.test_case "load pinpoints the bad line" `Quick
            test_load_reports_bad_line ] );
      ( "store",
        [ Alcotest.test_case "append/load order" `Quick test_append_load;
          Alcotest.test_case "run specs" `Quick test_find_specs ] );
      ( "gate",
        [ Alcotest.test_case "cycle regression flagged" `Quick
            test_gate_flags_cycle_regression;
          Alcotest.test_case "within tolerance passes" `Quick
            test_gate_within_tolerance_passes;
          Alcotest.test_case "wall-clock gated at 50%" `Quick
            test_gate_wall_clock;
          Alcotest.test_case "tolerance overrides / ungated fields" `Quick
            test_gate_tolerance_override ] );
      ( "keyed gate",
        [ Alcotest.test_case "mixed schemas, configs, seeds" `Quick
            test_gate_since_mixed_keys;
          Alcotest.test_case "no earlier record seeds" `Quick
            test_gate_since_seeds_baseline;
          Alcotest.test_case "schema bump re-baselines" `Quick
            test_gate_since_schema_bump;
          Alcotest.test_case "gated across commits" `Quick
            test_gate_since_across_commits ] );
      ( "journal",
        [ Alcotest.test_case "aggregate projection" `Quick
            test_journal_to_record;
          Alcotest.test_case "summary separates fuel-capped" `Quick
            test_summary_line_fuel_capped ] );
      ( "floats",
        [ Alcotest.test_case "pinned dialect" `Quick test_float_str_pinned;
          Alcotest.test_case "seeded stability" `Quick
            test_float_roundtrip_seeded ] ) ]
