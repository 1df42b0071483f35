(* Unit tests for the Domain worker pool and the run-journal round trip
   (the observability layer under bench/main.exe). *)

module Pool = Levee_support.Pool
module Journal = Levee_support.Journal

exception Boom of int

let results_testable =
  Alcotest.(list (result int Helpers.exn_testable))

(* Make early tasks slow so out-of-order completion is likely: result
   order must still match submission order. *)
let staggered_square n i =
  let spin = (n - i) * 10_000 in
  let acc = ref 0 in
  for k = 1 to spin do
    acc := (!acc + k) land 0xffff
  done;
  ignore !acc;
  i * i

let test_order jobs () =
  let xs = List.init 20 Fun.id in
  Pool.with_pool ~jobs (fun p ->
      let got = Pool.map p (staggered_square 20) xs in
      Alcotest.(check (list int)) "submission order"
        (List.map (fun i -> i * i) xs)
        got)

let test_exception_isolated () =
  Pool.with_pool ~jobs:4 (fun p ->
      let got =
        Pool.run p
          (List.map
             (fun i () -> if i = 2 then raise (Boom i) else i + 100)
             [ 0; 1; 2; 3; 4 ])
      in
      Alcotest.check results_testable "raising task captured in its slot"
        [ Ok 100; Ok 101; Error (Boom 2); Ok 103; Ok 104 ]
        got;
      (* the pool must survive the exception and accept another batch *)
      let again = Pool.map p (fun i -> i * 2) [ 1; 2; 3 ] in
      Alcotest.(check (list int)) "pool not poisoned" [ 2; 4; 6 ] again)

(* [map] is fail-fast but not short-circuiting: every task runs, then the
   first failure in submission order (not completion order) is raised. *)
let test_map_first_failure jobs () =
  Pool.with_pool ~jobs (fun p ->
      let ran = Atomic.make 0 in
      let f i =
        (* the later failure finishes first when tasks run in parallel *)
        if i = 1 then ignore (staggered_square 100 0);
        Atomic.incr ran;
        if i = 1 || i = 3 then raise (Boom i) else i
      in
      (match Pool.map p f [ 0; 1; 2; 3; 4; 5 ] with
       | _ -> Alcotest.fail "expected Boom 1"
       | exception Boom k ->
         Alcotest.(check int) "first failure in submission order" 1 k);
      Alcotest.(check int) "every task ran" 6 (Atomic.get ran);
      Alcotest.(check (list int)) "pool usable afterwards" [ 7; 8 ]
        (Pool.map p (fun i -> i + 6) [ 1; 2 ]))

let test_matches_sequential () =
  let xs = List.init 57 (fun i -> (i * 7919) land 1023) in
  let f x = (x * x) + (x lsr 3) in
  let seq = List.map f xs in
  Pool.with_pool ~jobs:1 (fun p ->
      Alcotest.(check (list int)) "jobs=1 equals List.map" seq
        (Pool.map p f xs));
  Pool.with_pool ~jobs:4 (fun p ->
      Alcotest.(check (list int)) "jobs=4 equals List.map" seq
        (Pool.map p f xs))

let test_empty_and_defaults () =
  Pool.with_pool ~jobs:3 (fun p ->
      Alcotest.(check int) "size" 3 (Pool.jobs p);
      Alcotest.check results_testable "empty batch" [] (Pool.run p []));
  Alcotest.(check bool) "default_jobs >= 1" true (Pool.default_jobs () >= 1)

(* ---------- journal round trip ---------- *)

let entry i : Journal.entry =
  { Journal.workload = Printf.sprintf "w%d \"quoted\"\n" i;
    protection = "cpi"; store = "two-level";
    outcome = (if i mod 2 = 0 then "exit(0)" else "trapped: bounds");
    status = i mod 2; cycles = 1000 + i; instrs = 900 + i;
    mem_ops = 40 * i; instrumented_mem_ops = 7 * i; store_accesses = 3 * i;
    store_footprint = 4096 + i; heap_peak = 2 * i; checksum = -i;
    checks_elided = 5 * i; mem_ops_demoted = i; threads = 1 + (i mod 3);
    ctx_switches = 6 * i; races = i mod 2; attempts = 1 + (i mod 2);
    wall_us = 31337 * i }

let test_journal_roundtrip () =
  let j = Journal.create ~jobs:4 ~target:"table1" () in
  List.iter (fun i -> Journal.record j (entry i)) [ 0; 1; 2; 3; 4 ];
  let j' = Journal.of_json (Journal.to_json j) in
  Alcotest.(check string) "target" "table1" (Journal.target j');
  Alcotest.(check int) "jobs" 4 (Journal.jobs j');
  Alcotest.(check int) "entry count" 5 (List.length (Journal.entries j'));
  Alcotest.(check bool) "exact equality (wall included)" true
    (Journal.equal ~ignore_wall:false j j');
  Alcotest.(check int) "failures counted" 2
    (List.length (Journal.failures j'))

let test_journal_equal_modulo_wall () =
  let mk wall =
    let j = Journal.create ~target:"x" () in
    Journal.record j { (entry 1) with Journal.wall_us = wall };
    j
  in
  Alcotest.(check bool) "wall ignored by default" true
    (Journal.equal (mk 1) (mk 99));
  Alcotest.(check bool) "wall respected when asked" false
    (Journal.equal ~ignore_wall:false (mk 1) (mk 99))

let test_journal_rejects_garbage () =
  let bad s =
    match Journal.of_json s with
    | exception Failure _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "not json" true (bad "nonsense");
  Alcotest.(check bool) "wrong schema" true
    (bad "{\"schema\":\"other/9\",\"target\":\"t\",\"jobs\":1,\"entries\":[]}");
  Alcotest.(check bool) "truncated" true
    (bad "{\"schema\":\"levee-bench-journal/3\",\"target\":\"t\"");
  Alcotest.(check bool) "old schema version" true
    (bad
       "{\"schema\":\"levee-bench-journal/1\",\"target\":\"t\",\"jobs\":1,\
        \"entries\":[]}");
  (* /2 journals lack the attempts field; the parser must not guess. *)
  Alcotest.(check bool) "previous schema version" true
    (bad
       "{\"schema\":\"levee-bench-journal/2\",\"target\":\"t\",\"jobs\":1,\
        \"entries\":[]}")

(* ---------- re-entrancy ---------- *)

let test_reentrant_rejected jobs () =
  Pool.with_pool ~jobs (fun p ->
      let got = Pool.run p [ (fun () -> Pool.run p [ (fun () -> 1) ]) ] in
      (match got with
       | [ Error (Invalid_argument msg) ] ->
         Alcotest.(check bool) "message names Pool.run" true
           (String.length msg >= 8 && String.sub msg 0 8 = "Pool.run")
       | _ -> Alcotest.fail "expected Error Invalid_argument");
      (* the pool survives the rejected call *)
      Alcotest.(check (list int)) "pool not poisoned" [ 5 ]
        (Pool.map p (fun i -> i + 4) [ 1 ]))

let () =
  Alcotest.run "pool"
    [ ( "pool",
        [ Alcotest.test_case "order jobs=1" `Quick (test_order 1);
          Alcotest.test_case "order jobs=4" `Quick (test_order 4);
          Alcotest.test_case "exception isolated" `Quick
            test_exception_isolated;
          Alcotest.test_case "map raises first failure jobs=1" `Quick
            (test_map_first_failure 1);
          Alcotest.test_case "map raises first failure jobs=4" `Quick
            (test_map_first_failure 4);
          Alcotest.test_case "equals sequential map" `Quick
            test_matches_sequential;
          Alcotest.test_case "empty batch & defaults" `Quick
            test_empty_and_defaults ] );
      ( "resilience",
        [ Alcotest.test_case "re-entrant run rejected jobs=1" `Quick
            (test_reentrant_rejected 1);
          Alcotest.test_case "re-entrant run rejected jobs=2" `Quick
            (test_reentrant_rejected 2) ] );
      ( "journal",
        [ Alcotest.test_case "round trip" `Quick test_journal_roundtrip;
          Alcotest.test_case "equal modulo wall" `Quick
            test_journal_equal_modulo_wall;
          Alcotest.test_case "rejects garbage" `Quick
            test_journal_rejects_garbage ] ) ]
