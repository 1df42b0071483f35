(* The resilient-server campaign: availability fault kinds on the
   machine, the Serve harness invariants, golden rows for one cell of
   the smoke matrix, --jobs determinism of the levee-serve/1 document,
   and the simulation itself: whole-document digests of more matrix
   shapes, the count-based latency tail, and no allocation per
   request. *)

module M = Levee_machine
module P = Levee_core.Pipeline
module A = Levee_attacks
module H = Levee_harness
module W = Levee_workloads

let t name f = Alcotest.test_case name `Quick f

(* ---------- Stall / Worker_kill on the machine ---------- *)

let image src =
  let prog = Helpers.compile src in
  let b = P.build P.Vanilla prog in
  M.Loader.load b.P.prog b.P.config

let stall_src =
  {|int main() {
      int i; int s;
      s = 0;
      for (i = 0; i < 100; i = i + 1) { s = (s + i) & 65535; }
      checksum(s);
      return 0;
    }|}

let test_stall_adds_cycles () =
  let img = image stall_src in
  let base = M.Interp.run img in
  let stalled =
    M.Interp.run ~faults:[ (50, M.Interp.Stall { cycles = 777 }) ] img
  in
  Alcotest.(check int) "outcome preserved" 0
    (match stalled.M.Interp.outcome with M.Trap.Exit c -> c | _ -> -1);
  Alcotest.(check int) "checksum untouched" base.M.Interp.checksum
    stalled.M.Interp.checksum;
  Alcotest.(check int) "exactly the stall cycles added"
    (base.M.Interp.cycles + 777)
    stalled.M.Interp.cycles

let kill_src =
  {|int worker(int x) {
      int i; int s;
      s = 0;
      for (i = 0; i < 500; i = i + 1) { s = (s + i) & 65535; }
      return 42;
    }
    int main() {
      int t; int r;
      t = thread_spawn(worker, 1);
      r = thread_join(t);
      checksum(r);
      print_int(r);
      return 0;
    }|}

let test_worker_kill_join_observes () =
  let img = image kill_src in
  let base = M.Interp.run img in
  Alcotest.(check int) "baseline joins 42" 42 base.M.Interp.checksum;
  (* Kill the spawned worker mid-loop: the join must observe -1, and the
     machine keeps running to a normal exit. *)
  let killed =
    M.Interp.run ~faults:[ (300, M.Interp.Worker_kill { tid = 1 }) ] img
  in
  (match killed.M.Interp.outcome with
   | M.Trap.Exit 0 -> ()
   | o -> Alcotest.failf "killed-worker run: %s" (M.Trap.outcome_to_string o));
  (* the checksum fold masks words to 62 bits, so -1 lands as the mask *)
  Alcotest.(check int) "join observes -1" 0x3FFF_FFFF_FFFF_FFFF
    killed.M.Interp.checksum;
  Alcotest.(check string) "main printed the -1" "-1\n" killed.M.Interp.output

let test_worker_kill_main_crashes () =
  let img = image kill_src in
  match
    (M.Interp.run ~faults:[ (300, M.Interp.Worker_kill { tid = 0 }) ] img)
      .M.Interp.outcome
  with
  | M.Trap.Crash msg when Helpers.contains msg "worker-kill" -> ()
  | o -> Alcotest.failf "kill main: %s" (M.Trap.outcome_to_string o)

let test_worker_kill_invalid_tid_noop () =
  let img = image kill_src in
  let base = M.Interp.run img in
  let r =
    M.Interp.run ~faults:[ (300, M.Interp.Worker_kill { tid = 5 }) ] img
  in
  Alcotest.(check int) "invalid tid is a no-op (checksum)"
    base.M.Interp.checksum r.M.Interp.checksum;
  Alcotest.(check int) "invalid tid is a no-op (cycles)" base.M.Interp.cycles
    r.M.Interp.cycles

(* ---------- Faultplan availability actions ---------- *)

let test_faultplan_availability () =
  let open A.Faultplan in
  let degrade =
    make ~name:"degrade"
      [ { step = 10; action = Stall { cycles = 100 } };
        { step = 20; action = Kill_worker { tid = 1 } } ]
  in
  let corrupt =
    make ~name:"corrupt"
      [ { step = 10; action = Write { site = Stack 4; value = Value 1 } } ]
  in
  Alcotest.(check bool) "stall/kill stay inside the attacker model" true
    (within_attacker_model degrade);
  Alcotest.(check bool) "degrade plan detected" true
    (has_availability_faults degrade);
  Alcotest.(check bool) "write-only plan is not a degrade plan" false
    (has_availability_faults corrupt);
  Alcotest.(check bool) "availability faults are not safe tampers" false
    (pure_safe_tamper degrade);
  let img = image stall_src in
  match resolve ~reference:img ~deployed:img degrade with
  | [ (10, M.Interp.Stall { cycles = 100 });
      (20, M.Interp.Worker_kill { tid = 1 }) ] -> ()
  | _ -> Alcotest.fail "resolve must map Stall/Kill_worker verbatim"

(* ---------- the campaign: golden rows + invariants ---------- *)

(* One shared smoke run (12k requests/cell, seeds 0-1, faults on): the
   golden rows below pin the vanilla seed-0 cell byte-for-byte, so any
   change to the simulator, the cost model or the calibration workload
   shows up as an explicit re-baseline. *)
let smoke_report = lazy (H.Serve.run ~jobs:2 H.Serve.smoke)

let vanilla0 () =
  match Lazy.force smoke_report with
  | { H.Serve.rep_cells = c :: _; _ } -> c
  | _ -> Alcotest.fail "smoke report has no cells"

let test_golden_calibration () =
  let c = vanilla0 () in
  Alcotest.(check (array int)) "per-class service cycles (vanilla)"
    [| 215; 681; 1495 |] c.H.Serve.c_svc

let test_golden_accounting () =
  let c = vanilla0 () in
  Alcotest.(check int) "arrivals" 12_000 c.H.Serve.c_arrivals;
  Alcotest.(check int) "served" 8006 c.H.Serve.c_served;
  Alcotest.(check int) "shed" 3899 c.H.Serve.c_shed;
  Alcotest.(check int) "timed out" 95 c.H.Serve.c_timed_out;
  Alcotest.(check int) "retried" 712 c.H.Serve.c_retried;
  Alcotest.(check int) "workers killed" 2 c.H.Serve.c_killed;
  Alcotest.(check int) "breaker trips" 22 c.H.Serve.c_trips

let test_golden_latency_histogram () =
  let c = vanilla0 () in
  Alcotest.(check int) "p50" 2537 c.H.Serve.c_p50;
  Alcotest.(check int) "p99" 31600 c.H.Serve.c_p99;
  Alcotest.(check int) "p999" 38346 c.H.Serve.c_p999;
  Alcotest.(check int) "max" 39612 c.H.Serve.c_max;
  Alcotest.(check (list (pair int int))) "log2 latency histogram"
    [ (128, 598); (256, 385); (512, 1328); (1024, 1586); (2048, 262);
      (4096, 518); (8192, 2813); (16384, 459); (32768, 57) ]
    c.H.Serve.c_hist

let test_invariants_hold () =
  let rep = Lazy.force smoke_report in
  List.iter
    (fun (_, name, ok) ->
      Alcotest.(check bool) ("invariant: " ^ name) true ok)
    (H.Serve.invariants rep);
  Alcotest.(check bool) "invariants_ok" true (H.Serve.invariants_ok rep)

let test_accounting_every_cell () =
  let rep = Lazy.force smoke_report in
  List.iter
    (fun c ->
      Alcotest.(check int)
        (Printf.sprintf "cell (%s, seed %d) accounts every request"
           (P.protection_name c.H.Serve.c_protection)
           c.H.Serve.c_seed)
        c.H.Serve.c_arrivals
        (c.H.Serve.c_served + c.H.Serve.c_shed + c.H.Serve.c_timed_out))
    rep.H.Serve.rep_cells;
  (* the faulted smoke matrix really exercises degradation *)
  Alcotest.(check bool) "some cell shed or retried" true
    (List.exists
       (fun c -> c.H.Serve.c_shed + c.H.Serve.c_retried > 0)
       rep.H.Serve.rep_cells)

let test_cpi_probes_never_hijacked () =
  let rep = Lazy.force smoke_report in
  List.iter
    (fun c ->
      if c.H.Serve.c_protection = P.Cpi then
        List.iter
          (fun p ->
            Alcotest.(check bool)
              (Printf.sprintf "cpi seed %d plan %s not hijacked"
                 c.H.Serve.c_seed p.H.Serve.p_plan)
              true
              (p.H.Serve.p_class <> "hijacked"))
          c.H.Serve.c_probes)
    rep.H.Serve.rep_cells

let test_jobs_determinism () =
  let j2 = H.Serve.to_json (Lazy.force smoke_report) in
  let j1 = H.Serve.to_json (H.Serve.run ~jobs:1 H.Serve.smoke) in
  Alcotest.(check string) "levee-serve/1 byte-identical across jobs" j2 j1

let test_records_shape () =
  let rep = Lazy.force smoke_report in
  let recs = H.Serve.to_records ~commit:"test" rep in
  Alcotest.(check int) "one record per cell"
    (List.length rep.H.Serve.rep_cells)
    (List.length recs);
  let module R = Levee_support.Runstore in
  let r = List.hd recs in
  Alcotest.(check string) "kind" "serve" r.R.kind;
  Alcotest.(check string) "config names the cell"
    "serve-vanilla-w4-sh4-r12000" r.R.config;
  List.iter
    (fun field ->
      Alcotest.(check bool) ("metric present: " ^ field) true
        (List.mem_assoc field r.R.metrics))
    [ "arrivals"; "served"; "shed"; "timed_out"; "retried";
      "killed_workers"; "breaker_trips"; "p50_cycles"; "p99_cycles";
      "p999_cycles"; "invariants_ok" ];
  (* every gated serve metric has a tolerance entry out of the box *)
  List.iter
    (fun field ->
      Alcotest.(check bool) ("tolerance covers " ^ field) true
        (List.mem_assoc field R.default_tolerances))
    [ "arrivals"; "served"; "shed"; "timed_out"; "retried";
      "killed_workers"; "breaker_trips"; "p50_cycles"; "p99_cycles";
      "p999_cycles" ]

(* Whole-document digests of three more matrix shapes, captured on the
   array-based simulator this one replaced: faults off, a single worker
   and shard (the kill plan is a no-op), and a wide 7-worker, 16-shard,
   3-seed matrix. Any drift in the simulation, its draws or the tail
   summary changes the digest. *)
let digest_of cfg =
  Digest.to_hex (Digest.string (H.Serve.to_json (H.Serve.run ~jobs:2 cfg)))

let test_golden_digests () =
  let small = { H.Serve.smoke with H.Serve.requests = 20_000 } in
  List.iter
    (fun (name, cfg, want) ->
      Alcotest.(check string) (name ^ ": levee-serve/1 digest") want
        (digest_of cfg))
    [ ( "no faults",
        { small with H.Serve.faulted = false },
        "c6b65f1218f84a8d7e61243e59a87111" );
      ( "1 worker, 1 shard",
        { small with H.Serve.workers = 1; shards = 1 },
        "30aeb1f34ae1d3828f59c6d20c371b0d" );
      ( "7 workers, 16 shards, 3 seeds",
        { small with H.Serve.workers = 7; shards = 16; seeds = [ 0; 1; 2 ] },
        "5cf8ae8379b7ef43267b377b93c21790" ) ]

let test_single_request () =
  (* One arrival lands in an idle system after the kills have fired, so
     it is always served: the tail collapses onto its one latency. *)
  let cfg = { H.Serve.smoke with H.Serve.requests = 1 } in
  let rep = H.Serve.run ~jobs:2 cfg in
  Alcotest.(check string) "levee-serve/1 digest"
    "95da10e717d0d7815535bf3c902d3e44"
    (Digest.to_hex (Digest.string (H.Serve.to_json rep)));
  let c = List.hd rep.H.Serve.rep_cells in
  Alcotest.(check (list int)) "served/shed/timed out" [ 1; 0; 0 ]
    [ c.H.Serve.c_served; c.H.Serve.c_shed; c.H.Serve.c_timed_out ];
  Alcotest.(check (list int)) "p50/p99/p999/max" [ 215; 215; 215; 215 ]
    [ c.H.Serve.c_p50; c.H.Serve.c_p99; c.H.Serve.c_p999; c.H.Serve.c_max ];
  Alcotest.(check (list (pair int int))) "histogram" [ (128, 1) ]
    c.H.Serve.c_hist

let tail_row (tl : H.Serve.tail) =
  [ tl.H.Serve.t_p50; tl.H.Serve.t_p99; tl.H.Serve.t_p999; tl.H.Serve.t_max ]

let test_tail_nothing_served () =
  let tl = H.Serve.tail (Array.make 100 0) in
  Alcotest.(check (list int)) "p50/p99/p999/max" [ 0; 0; 0; 0 ]
    (tail_row tl);
  Alcotest.(check (list (pair int int))) "histogram" [] tl.H.Serve.t_hist

(* The count-based tail against the definition: nearest rank on the
   sorted latency vector, and the log2 bucket of every latency. *)
let test_tail_matches_sorted () =
  let rng = Levee_support.Rng.create 11 in
  for trial = 1 to 200 do
    let len = 1 + Levee_support.Rng.int rng 300 in
    let counts = Array.make len 0 in
    for _ = 1 to Levee_support.Rng.int rng (1 + (trial * 10)) do
      let l = Levee_support.Rng.int rng len in
      counts.(l) <- counts.(l) + 1
    done;
    let sorted =
      Array.of_list
        (List.concat
           (List.init len (fun l -> List.init counts.(l) (fun _ -> l))))
    in
    let n = Array.length sorted in
    let rank num den =
      if n = 0 then 0
      else sorted.(max 0 (min (n - 1) ((((n * num) + den - 1) / den) - 1)))
    in
    let bucket l =
      let rec go k = if 1 lsl (k + 1) > max 1 l then k else go (k + 1) in
      1 lsl go 0
    in
    let hist =
      List.filter_map
        (fun k ->
          let c =
            Array.fold_left
              (fun a l -> if bucket l = 1 lsl k then a + 1 else a)
              0 sorted
          in
          if c > 0 then Some (1 lsl k, c) else None)
        (List.init 10 Fun.id)
    in
    let tl = H.Serve.tail counts in
    let what = Printf.sprintf "trial %d (%d latencies)" trial n in
    Alcotest.(check (list int)) (what ^ ": p50/p99/p999/max")
      [ rank 50 100; rank 99 100; rank 999 1000;
        (if n = 0 then 0 else sorted.(n - 1)) ]
      (tail_row tl);
    Alcotest.(check (list (pair int int))) (what ^ ": histogram") hist
      tl.H.Serve.t_hist
  done

(* The simulation allocates nothing per request: two runs that differ
   only in [requests] differ by (almost) no minor words. A warm-up run
   first takes every one-time allocation out of the comparison. *)
let test_no_allocation_per_request () =
  let cfg requests =
    { H.Serve.smoke with
      H.Serve.requests; protections = [ P.Vanilla ]; seeds = [ 0 ] }
  in
  let minor_words requests =
    let before = Gc.minor_words () in
    ignore (H.Serve.run ~jobs:1 (cfg requests) : H.Serve.report);
    Gc.minor_words () -. before
  in
  ignore (minor_words 20_000 : float);
  let small = minor_words 20_000 in
  let large = minor_words 120_000 in
  let per_request = (large -. small) /. 100_000. in
  Alcotest.(check bool)
    (Printf.sprintf "%.3f minor words per extra request" per_request)
    true (per_request < 1.0)

let test_arg_validation () =
  let rejects msg f =
    match f () with
    | exception Invalid_argument m when Helpers.contains m msg -> ()
    | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
    | _ -> Alcotest.failf "expected Invalid_argument naming %s" msg
  in
  rejects "--workers" (fun () ->
      H.Serve.run { H.Serve.smoke with H.Serve.workers = 0 });
  rejects "--workers" (fun () ->
      H.Serve.run
        { H.Serve.smoke with H.Serve.workers = W.Webstack.max_workers + 1 });
  rejects "--shards" (fun () ->
      H.Serve.run { H.Serve.smoke with H.Serve.shards = 99 });
  rejects "--threads" (fun () -> W.Webstack.concurrent ~threads:8)

let () =
  Alcotest.run "serve"
    [ ( "machine faults",
        [ t "stall adds cycles" test_stall_adds_cycles;
          t "worker kill: join observes -1" test_worker_kill_join_observes;
          t "worker kill: main crashes" test_worker_kill_main_crashes;
          t "worker kill: invalid tid no-op"
            test_worker_kill_invalid_tid_noop;
          t "faultplan availability actions" test_faultplan_availability ] );
      ( "campaign",
        [ t "golden calibration" test_golden_calibration;
          t "golden accounting row" test_golden_accounting;
          t "golden latency histogram" test_golden_latency_histogram;
          t "invariants hold" test_invariants_hold;
          t "every cell accounts every request" test_accounting_every_cell;
          t "cpi probes never hijacked" test_cpi_probes_never_hijacked;
          t "byte-identical across jobs" test_jobs_determinism;
          t "run-store records + tolerances" test_records_shape;
          t "argument validation names the flag" test_arg_validation ] );
      ( "simulation",
        [ t "golden digests of three matrix shapes" test_golden_digests;
          t "single request: one-latency tail" test_single_request;
          t "tail of nothing served is empty" test_tail_nothing_served;
          t "tail equals nearest rank on the sorted vector"
            test_tail_matches_sorted;
          t "no allocation per simulated request"
            test_no_allocation_per_request ] ) ]
