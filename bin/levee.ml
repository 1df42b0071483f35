(* The levee command-line driver: the analogue of the paper's Levee
   compiler wrapper. Compiles a MiniC source file, applies the requested
   protection (the paper's -fcpi / -fcps / -fstack-protector-safe flags),
   and runs it on the machine simulator.

     levee [options] file.c
       -fcpi                    code-pointer integrity (default)
       -fcps                    code-pointer separation
       -fstack-protector-safe   safe stack only
       -fsoftbound              full spatial memory safety baseline
       -fcfi | -fcfi-type | -fcookies | -fvanilla | -fhardened | -fcpi-debug
       -fcpi-crypt              in-place pointer encryption (no safe region)
       -emit-ir                 print the (instrumented) IR and exit
       -stats                   print Table-2-style instrumentation stats
       -input 1,2,3             input words fed to read_int/gets
       -fuel N                  instruction budget (default 50M)
       -store array|two-level|hash   safe-pointer-store organisation
       -sfi                     use SFI isolation instead of info hiding
       -time                    print cycle counts
       -matrix                  run under ALL protections via the worker
                                pool and print a comparison table
       -jobs N                  pool width for -matrix (default 1)
       -json FILE               write a BENCH-style JSON run journal

     levee analyze [--json] [--races] [--record FILE] file.c...
       Static lint over each file: unsafe casts, Castflow-forced loads,
       dead instrumentation (provably data-only sensitive accesses),
       unreachable blocks, never-code indirect calls, and per-function
       Table-2-style statistics, plus the CPI pipeline's authoritative
       check-elision/demotion counts. --races additionally runs the
       static lockset race detector over the source program and the
       safe-region separation prover over the CPI build (certificates
       replayed through Verify). --json emits the levee-analyze/2
       document instead of the human table. Output is deterministic;
       exits 1 on error-severity findings (internal inconsistencies).
       --record appends one analyze record per file to the run-store.

     levee crossval [--json] [--jobs N] [--seeds N] [--record FILE]
       Cross-validate the static race analyzer against the dynamic
       Eraser detector: run the built-in racy/race-free corpus under
       vanilla and CPI across scheduler seeds 0..N-1 (default 8) and
       check that every dynamically-observed race is statically flagged,
       that verdicts match the corpus expectations, and that the
       fault-campaign subjects' separation proofs agree with their
       measured CPI hijack immunity. Deterministic for any --jobs;
       exits 1 iff an invariant is violated.

     levee faults [--json] [--jobs N] [--seed S]
       Run the deterministic fault-injection smoke campaign: seeded
       corruption plans swept over defense configs x store organisations,
       every run classified against its un-faulted baseline. --json emits
       the levee-faults/1 document (byte-identical for any --jobs).
       Exits 1 iff a campaign invariant is violated.

     levee conc [--threads N] [--sched-seed S] [--jobs N] [--json]
       Run the concurrent web-serving workload with N worker threads
       under the deterministic scheduler, across the protection matrix
       (CPI additionally across all three store organisations). --json
       emits a levee-bench-journal/4 document with wall_us zeroed, so
       the output is a pure function of (--threads, --sched-seed):
       byte-identical for any --jobs. Exits 1 if any run fails, any
       protection diverges from vanilla, or a race is reported.
       --record FILE additionally appends one levee-history/1 record to
       the run-store at FILE (conc and faults both take it).

     levee serve [--json] [--jobs N] [--seeds N] [--workers N] [--shards N]
                 [--requests N] [--no-faults] [--record FILE]
       Run the resilient-server campaign: per-class service costs
       calibrated on the machine, hijack/degradation fault-plan probes
       per (protection, seed) cell, then a deterministic discrete-event
       simulation of an open-loop arrival process (default 10^6 requests
       per cell) with deadlines, bounded retries, per-shard circuit
       breakers, admission shedding, and injected worker kills + a
       hot-shard stall window. --json emits the levee-serve/1 document
       (simulated cycles only, byte-identical for any --jobs). --record
       appends one record per cell to the run-store. Exits 1 iff a
       campaign invariant is violated.

     levee history [--file FILE] [--diff A B] [--gate [A B | SINCE]]
                   [--tol f=p]
       Read the append-only run-store (RUNS.jsonl by default; bench,
       conc, faults, serve, crossval and analyze runs append records)
       and print the trajectory. --diff compares two runs
       field-by-field; --gate A B additionally checks per-field
       tolerances (cycles 5%, wall_us 50% unless overridden with --tol
       field=pct) and exits 1 naming each offending field when a delta
       exceeds its tolerance. A and B are 0-based indices (negative
       counts from the end), "last"/"prev", or a config name (most
       recent match); --gate alone compares prev vs last. --gate SINCE
       gates every run at index >= SINCE against the newest run before
       SINCE with the same (schema, config, seed); a run with no such
       predecessor seeds the baseline and passes. Malformed store lines
       are precise errors (file:line), exit 2. *)

module P = Levee_core.Pipeline
module M = Levee_machine
module Pool = Levee_support.Pool
module Journal = Levee_support.Journal
module Runstore = Levee_support.Runstore
module Faults = Levee_harness.Faults
module Engine = Levee_harness.Engine

let usage () =
  prerr_endline
    "usage: levee [-fcpi|-fcps|-fstack-protector-safe|-fsoftbound|-fcfi|\n\
    \              -fcfi-type|-fcpi-crypt|-fcookies|-fvanilla|-fhardened|\n\
    \              -fcpi-debug]\n\
    \             [-emit-ir] [-stats] [-time] [-sfi] [-matrix] [-jobs N]\n\
    \             [-json FILE]\n\
    \             [-input w1,w2,...] [-fuel N] [-store array|two-level|hash]\n\
    \             [-sched-seed N]\n\
    \             file.c\n\
    \       levee analyze [--json] [--races] [--record FILE] file.c...\n\
    \       levee crossval [--json] [--jobs N] [--seeds N] [--record FILE]\n\
    \       levee faults [--json] [--jobs N] [--seed S] [--record FILE]\n\
    \       levee conc [--threads N] [--sched-seed S] [--jobs N] [--json]\n\
    \                  [--record FILE]\n\
    \       levee serve [--json] [--jobs N] [--seeds N] [--workers N]\n\
    \                   [--shards N] [--requests N] [--no-faults]\n\
    \                   [--record FILE]\n\
    \       levee history [--file FILE] [--diff A B] [--gate [A B | SINCE]]\n\
    \                     [--tol field=pct]";
  exit 2

let read_file file =
  let ic = open_in_bin file in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let compile_or_die file =
  try Levee_minic.Lower.compile_checked ~name:file (read_file file) with
  | Failure msg ->
    prerr_endline msg;
    exit 1

(* levee analyze [--json] [--races] [--record FILE] file.c... *)
let run_analyze args =
  let json = ref false in
  let races = ref false in
  let record = ref None in
  let files = ref [] in
  let rec parse = function
    | [] -> ()
    | ("--json" | "-json") :: rest -> json := true; parse rest
    | ("--races" | "-races") :: rest -> races := true; parse rest
    | ("--record" | "-record") :: path :: rest ->
      record := Some path;
      parse rest
    | f :: rest when String.length f > 0 && f.[0] <> '-' ->
      files := f :: !files;
      parse rest
    | _ -> usage ()
  in
  parse args;
  let files = List.rev !files in
  if files = [] then usage ();
  let any_errors = ref false in
  List.iter
    (fun file ->
      let checked, prog = compile_or_die file in
      let annotated = checked.Levee_minic.Typecheck.sensitive_structs in
      let report =
        Levee_analysis.Diag.analyze ~annotated
          ~name:(Filename.basename file) prog
      in
      (* The instrumented build supplies the authoritative pipeline
         counts: what elision and demotion actually did under CPI. *)
      let built = P.build ~annotated P.Cpi prog in
      let report =
        if not !races then report
        else
          (* Race verdicts come from the uninstrumented program (what the
             programmer wrote); the separation proof is about the CPI
             build (what actually runs). *)
          let rs = Levee_analysis.Racecheck.races ~annotated prog in
          let sep = Levee_analysis.Racecheck.separation built.P.prog in
          Levee_analysis.Diag.add_separation
            (Levee_analysis.Diag.add_races report rs)
            sep
      in
      let elided = built.P.stats.Levee_core.Stats.checks_elided in
      let demoted = built.P.stats.Levee_core.Stats.mem_ops_demoted in
      print_string
        (if !json then Levee_analysis.Diag.to_json ~elided ~demoted report
         else Levee_analysis.Diag.to_human ~elided ~demoted report);
      (match !record with
       | Some path ->
         Runstore.append ~path
           (Levee_analysis.Diag.to_record ~name:(Filename.basename file) report)
       | None -> ());
      if Levee_analysis.Diag.has_errors report then any_errors := true)
    files;
  exit (if !any_errors then 1 else 0)

(* levee crossval [--json] [--jobs N] [--seeds N] [--record FILE] *)
let run_crossval args =
  let module X = Levee_harness.Crossval in
  let json = ref false in
  let jobs = ref 1 in
  let nseeds = ref 8 in
  let record = ref None in
  let rec parse = function
    | [] -> ()
    | ("--json" | "-json") :: rest -> json := true; parse rest
    | ("--jobs" | "-jobs") :: n :: rest ->
      (match int_of_string_opt n with
       | Some n when n >= 1 -> jobs := n
       | _ -> usage ());
      parse rest
    | ("--seeds" | "-seeds") :: n :: rest ->
      (match int_of_string_opt n with
       | Some n when n >= 1 && n <= 64 -> nseeds := n
       | _ -> usage ());
      parse rest
    | ("--record" | "-record") :: path :: rest ->
      record := Some path;
      parse rest
    | _ -> usage ()
  in
  parse args;
  let seeds = List.init !nseeds (fun i -> i) in
  let rep = X.run ~jobs:!jobs ~seeds X.corpus in
  let faults = X.faults_cross ~jobs:!jobs () in
  print_string
    (if !json then X.to_json ~faults rep else X.to_human ~faults rep);
  (match !record with
   | Some path -> Runstore.append ~path (X.to_record rep)
   | None -> ());
  exit (if X.invariants_ok rep && X.faults_consistent faults then 0 else 1)

(* levee faults [--json] [--jobs N] [--seed S] [--record FILE] *)
let run_faults args =
  let json = ref false in
  let jobs = ref 1 in
  let seed = ref 42 in
  let record = ref None in
  let rec parse = function
    | [] -> ()
    | ("--json" | "-json") :: rest -> json := true; parse rest
    | ("--jobs" | "-jobs") :: n :: rest ->
      (match int_of_string_opt n with
       | Some n when n >= 1 -> jobs := n
       | _ -> usage ());
      parse rest
    | ("--seed" | "-seed") :: n :: rest ->
      (match int_of_string_opt n with
       | Some n -> seed := n
       | None -> usage ());
      parse rest
    | ("--record" | "-record") :: path :: rest ->
      record := Some path;
      parse rest
    | _ -> usage ()
  in
  parse args;
  let rep = Faults.run ~jobs:!jobs (Faults.smoke ~seed:!seed ()) in
  print_string (if !json then Faults.to_json rep else Faults.to_human rep);
  (match !record with
   | Some path -> Runstore.append ~path (Faults.to_record rep)
   | None -> ());
  exit (if Faults.invariants_ok rep then 0 else 1)

(* levee history [--file FILE] [--diff A B] [--gate [A B | SINCE]]
   [--tol f=p] *)
let run_history args =
  let file = ref Runstore.default_path in
  let diff = ref None in
  let gate = ref None in
  let tols = ref [] in
  (* A run spec never starts with '-' except a negative index. *)
  let is_spec s =
    String.length s > 0
    && (s.[0] <> '-' || int_of_string_opt s <> None)
  in
  let parse_tol spec =
    match String.index_opt spec '=' with
    | Some i ->
      let f = String.sub spec 0 i in
      let v = String.sub spec (i + 1) (String.length spec - i - 1) in
      (match float_of_string_opt v with
       | Some p when f <> "" -> Some (f, p)
       | _ -> None)
    | None -> None
  in
  let rec parse = function
    | [] -> ()
    | ("--file" | "-file") :: p :: rest -> file := p; parse rest
    | ("--diff" | "-diff") :: a :: b :: rest when is_spec a && is_spec b ->
      diff := Some (a, b);
      parse rest
    | ("--gate" | "-gate") :: a :: b :: rest when is_spec a && is_spec b ->
      gate := Some (`Pair (a, b));
      parse rest
    | ("--gate" | "-gate") :: since :: rest
      when int_of_string_opt since <> None ->
      gate := Some (`Since (int_of_string since));
      parse rest
    | ("--gate" | "-gate") :: rest ->
      gate := Some (`Pair ("prev", "last"));
      parse rest
    | ("--tol" | "-tol") :: spec :: rest ->
      (match parse_tol spec with
       | Some t -> tols := t :: !tols
       | None -> usage ());
      parse rest
    | ("--list" | "-list") :: rest -> parse rest
    | _ -> usage ()
  in
  parse args;
  match Runstore.load ~path:!file () with
  | Error msg ->
    Printf.eprintf "levee history: %s\n" msg;
    exit 2
  | Ok rs ->
    let get spec =
      match Runstore.find rs spec with
      | Ok r -> r
      | Error msg ->
        Printf.eprintf "levee history: %s: %s\n" spec msg;
        exit 2
    in
    (* --tol overrides win: tolerances are consulted first-match. *)
    let tolerances = List.rev !tols @ Runstore.default_tolerances in
    (match (!gate, !diff) with
     | Some (`Pair (a, b)), _ ->
       let a = get a and b = get b in
       print_string (Runstore.diff_human a b);
       let violations = Runstore.gate ~tolerances a b in
       print_string (Runstore.gate_human violations);
       exit (if violations = [] then 0 else 1)
     | Some (`Since since), _ ->
       (match Runstore.gate_since ~tolerances rs since with
        | Error msg ->
          Printf.eprintf "levee history: --gate %d: %s\n" since msg;
          exit 2
        | Ok steps ->
          print_string (Runstore.gate_since_human rs steps);
          let ok =
            List.for_all (fun st -> st.Runstore.violations = []) steps
          in
          exit (if ok then 0 else 1))
     | None, Some (a, b) ->
       print_string (Runstore.diff_human (get a) (get b));
       exit 0
     | None, None ->
       print_string (Runstore.list_human rs);
       exit 0)

(* levee conc [--threads N] [--sched-seed S] [--jobs N] [--json]
   [--record FILE] *)
let run_conc args =
  let module W = Levee_workloads in
  let json = ref false in
  let jobs = ref 1 in
  let threads = ref 4 in
  let seed = ref 0 in
  let record = ref None in
  let rec parse = function
    | [] -> ()
    | ("--json" | "-json") :: rest -> json := true; parse rest
    | ("--record" | "-record") :: path :: rest ->
      record := Some path;
      parse rest
    | ("--jobs" | "-jobs") :: n :: rest ->
      (match int_of_string_opt n with
       | Some n when n >= 1 -> jobs := n
       | _ -> usage ());
      parse rest
    | ("--threads" | "-threads") :: n :: rest ->
      (match int_of_string_opt n with
       | Some n -> threads := n
       | None -> usage ());
      parse rest
    | ("--sched-seed" | "-sched-seed") :: n :: rest ->
      (match int_of_string_opt n with
       | Some n -> seed := n
       | None -> usage ());
      parse rest
    | _ -> usage ()
  in
  parse args;
  (* The worker cap lives with the workload (Webstack.max_workers), so
     the conc and serve CLIs can't drift from what the machine supports. *)
  (try W.Webstack.check_workers ~flag:"--threads" !threads with
   | Invalid_argument msg ->
     Printf.eprintf "levee conc: %s\n" msg;
     exit 2);
  let w = W.Webstack.concurrent ~threads:!threads in
  let prog = W.Workload.compile w in
  let stores =
    [ M.Safestore.Simple_array; M.Safestore.Two_level; M.Safestore.Hashtable ]
  in
  let cells =
    List.concat_map
      (fun prot ->
        (* CPI is the store client: sweep its organisations; the other
           protections only see the default array. *)
        if prot = P.Cpi then List.map (fun s -> (prot, s)) stores
        else [ (prot, M.Safestore.Simple_array) ])
      [ P.Vanilla; P.Safe_stack; P.Cps; P.Cpi ]
  in
  let pool = Pool.create ~jobs:!jobs in
  let outcomes =
    Pool.map pool
      (fun (prot, store_impl) ->
        let b = P.build ~store_impl prot prog in
        let r =
          M.Interp.run_program ~sched_seed:!seed ~fuel:w.W.Workload.fuel
            b.P.prog b.P.config
        in
        (b.P.stats, r))
      cells
  in
  Pool.shutdown pool;
  let runs =
    List.map2
      (fun (prot, store_impl) outcome ->
        match outcome with
        | Ok (st, r) -> (prot, store_impl, st, r)
        | Error e -> raise e)
      cells outcomes
  in
  let base =
    match runs with (_, _, _, r) :: _ -> r | [] -> assert false
  in
  let bad = ref 0 in
  let check (r : M.Interp.result) =
    r.M.Interp.outcome = M.Trap.Exit 0
    && r.M.Interp.checksum = base.M.Interp.checksum
    && r.M.Interp.output = base.M.Interp.output
    && r.M.Interp.races = 0
  in
  (* The journal is a pure function of (--threads, --sched-seed): results
     are integrated in cell order whatever the pool width, and wall_us is
     zeroed, so any --jobs emits the identical document. *)
  let j =
    Journal.create
      ~target:(Printf.sprintf "%s-s%d" w.W.Workload.name !seed) ()
  in
  List.iter
    (fun (prot, store_impl, (st : Levee_core.Stats.t), (r : M.Interp.result)) ->
      if not (check r) then incr bad;
      Journal.record j
        (Engine.journal_entry ~workload:w.W.Workload.name ~protection:prot
           ~store:store_impl ~status:(if check r then 0 else 1) ~attempts:1
           ~wall_us:0 st r))
    runs;
  if !json then print_string (Journal.to_json j)
  else begin
    Printf.printf "%-18s %-10s %-12s %10s %8s %6s %6s\n" "protection" "store"
      "outcome" "cycles" "ctxsw" "races" "ok";
    List.iter
      (fun (prot, store_impl, _, (r : M.Interp.result)) ->
        Printf.printf "%-18s %-10s %-12s %10d %8d %6d %6s\n"
          (P.protection_name prot) (M.Safestore.impl_name store_impl)
          (M.Trap.outcome_to_string r.M.Interp.outcome)
          r.M.Interp.cycles r.M.Interp.ctx_switches r.M.Interp.races
          (if check r then "yes" else "NO"))
      runs;
    Printf.printf "[conc] threads=%d sched-seed=%d checksum=%d\n" !threads
      !seed base.M.Interp.checksum
  end;
  (* wall_us is already zeroed in every entry, so the appended record is
     byte-identical whatever --jobs was (the @jobs-smoke contract). *)
  (match !record with
   | Some path ->
     Runstore.append ~path (Journal.to_record ~kind:"conc" ~seed:!seed j)
   | None -> ());
  exit (if !bad = 0 then 0 else 1)

(* levee serve [--json] [--jobs N] [--seeds N] [--workers N] [--shards N]
   [--requests N] [--no-faults] [--record FILE] *)
let run_serve args =
  let module Serve = Levee_harness.Serve in
  let json = ref false in
  let jobs = ref 1 in
  let cfg = ref Serve.default in
  let record = ref None in
  let int_arg n k rest parse =
    match int_of_string_opt n with
    | Some n -> k n; parse rest
    | None -> usage ()
  in
  let rec parse = function
    | [] -> ()
    | ("--json" | "-json") :: rest -> json := true; parse rest
    | ("--no-faults" | "-no-faults") :: rest ->
      cfg := { !cfg with Serve.faulted = false };
      parse rest
    | ("--record" | "-record") :: path :: rest ->
      record := Some path;
      parse rest
    | ("--jobs" | "-jobs") :: n :: rest ->
      int_arg n (fun n -> if n >= 1 then jobs := n else usage ()) rest parse
    | ("--seeds" | "-seeds") :: n :: rest ->
      int_arg n
        (fun n ->
          if n >= 1 then cfg := { !cfg with Serve.seeds = List.init n Fun.id }
          else usage ())
        rest parse
    | ("--workers" | "-workers") :: n :: rest ->
      int_arg n (fun n -> cfg := { !cfg with Serve.workers = n }) rest parse
    | ("--shards" | "-shards") :: n :: rest ->
      int_arg n (fun n -> cfg := { !cfg with Serve.shards = n }) rest parse
    | ("--requests" | "-requests") :: n :: rest ->
      int_arg n (fun n -> cfg := { !cfg with Serve.requests = n }) rest parse
    | _ -> usage ()
  in
  parse args;
  let rep =
    try Serve.run ~jobs:!jobs !cfg with
    | Invalid_argument msg ->
      Printf.eprintf "levee serve: %s\n" msg;
      exit 2
  in
  if !json then print_string (Serve.to_json rep)
  else print_string (Serve.to_human rep);
  (* Every metric is in simulated cycles (wall_us is zero), so the
     appended records are byte-identical whatever --jobs was. *)
  (match !record with
   | Some path -> List.iter (Runstore.append ~path) (Serve.to_records rep)
   | None -> ());
  exit (if Serve.invariants_ok rep then 0 else 1)

let () =
  let protection = ref P.Cpi in
  let emit_ir = ref false in
  let stats = ref false in
  let time = ref false in
  let input = ref [||] in
  let fuel = ref 50_000_000 in
  let store_impl = ref M.Safestore.Simple_array in
  let isolation = ref M.Config.Info_hiding in
  let file = ref None in
  let matrix = ref false in
  let jobs = ref 1 in
  let json_out = ref None in
  let sched_seed = ref 0 in
  (match Array.to_list Sys.argv with
   | _ :: "analyze" :: rest -> run_analyze rest
   | _ :: "crossval" :: rest -> run_crossval rest
   | _ :: "faults" :: rest -> run_faults rest
   | _ :: "conc" :: rest -> run_conc rest
   | _ :: "serve" :: rest -> run_serve rest
   | _ :: "history" :: rest -> run_history rest
   | _ -> ());
  let rec parse = function
    | [] -> ()
    | "-matrix" :: rest -> matrix := true; parse rest
    | "-jobs" :: n :: rest ->
      (match int_of_string_opt n with
       | Some n when n >= 1 -> jobs := n
       | _ -> usage ());
      parse rest
    | "-json" :: f :: rest -> json_out := Some f; parse rest
    | "-fcpi" :: rest -> protection := P.Cpi; parse rest
    | "-fcps" :: rest -> protection := P.Cps; parse rest
    | "-fstack-protector-safe" :: rest -> protection := P.Safe_stack; parse rest
    | "-fsoftbound" :: rest -> protection := P.Softbound; parse rest
    | "-fcfi" :: rest -> protection := P.Cfi; parse rest
    | "-fcfi-type" :: rest -> protection := P.Cfi_type; parse rest
    | "-fcpi-crypt" :: rest -> protection := P.Cpi_crypt; parse rest
    | "-fcookies" :: rest -> protection := P.Cookies; parse rest
    | "-fvanilla" :: rest -> protection := P.Vanilla; parse rest
    | "-fhardened" :: rest -> protection := P.Hardened; parse rest
    | "-fcpi-debug" :: rest -> protection := P.Cpi_debug; parse rest
    | "-emit-ir" :: rest -> emit_ir := true; parse rest
    | "-stats" :: rest -> stats := true; parse rest
    | "-time" :: rest -> time := true; parse rest
    | "-sfi" :: rest -> isolation := M.Config.Sfi; parse rest
    | "-input" :: spec :: rest ->
      input :=
        Array.of_list
          (List.map int_of_string
             (List.filter (fun s -> s <> "") (String.split_on_char ',' spec)));
      parse rest
    | "-fuel" :: n :: rest -> fuel := int_of_string n; parse rest
    | ("-sched-seed" | "--sched-seed") :: n :: rest ->
      (match int_of_string_opt n with
       | Some n -> sched_seed := n
       | None -> usage ());
      parse rest
    | "-store" :: s :: rest ->
      (store_impl :=
         match s with
         | "array" -> M.Safestore.Simple_array
         | "two-level" -> M.Safestore.Two_level
         | "hash" -> M.Safestore.Hashtable
         | _ -> usage ());
      parse rest
    | f :: rest when String.length f > 0 && f.[0] <> '-' ->
      file := Some f;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let file = match !file with Some f -> f | None -> usage () in
  let checked, prog = compile_or_die file in
  let annotated = checked.Levee_minic.Typecheck.sensitive_structs in
  let journal_entry prot st r wall_us =
    Engine.journal_entry ~workload:(Filename.basename file) ~protection:prot
      ~store:!store_impl ~status:(Engine.exit_status r) ~attempts:1 ~wall_us
      st r
  in
  let write_journal entries =
    match !json_out with
    | None -> ()
    | Some path ->
      let j =
        Journal.create ~jobs:!jobs ~target:(Filename.basename file) ()
      in
      List.iter (Journal.record j) entries;
      (try
         let oc = open_out path in
         output_string oc (Journal.to_json j);
         close_out oc
       with Sys_error msg ->
         Printf.eprintf "levee: cannot write journal: %s\n" msg;
         exit 2)
  in
  if !matrix then begin
    (* Build + run the file under every protection, fanned out over the
       pool; vanilla is the behavioural reference. *)
    let pool = Pool.create ~jobs:!jobs in
    let prots = P.all_protections in
    let outcomes =
      Pool.map pool
        (fun prot ->
          let t0 = Unix.gettimeofday () in
          let b =
            P.build ~annotated ~store_impl:!store_impl ~isolation:!isolation
              prot prog
          in
          let r =
            M.Interp.run_program ~input:!input ~fuel:!fuel
              ~sched_seed:!sched_seed b.P.prog b.P.config
          in
          (b.P.stats, r, int_of_float ((Unix.gettimeofday () -. t0) *. 1e6)))
        prots
    in
    Pool.shutdown pool;
    let runs =
      List.map2
        (fun prot outcome ->
          match outcome with
          | Ok (st, r, wall) -> (prot, st, r, wall)
          | Error e -> raise e)
        prots outcomes
    in
    let base =
      match List.find_opt (fun (p, _, _, _) -> p = P.Vanilla) runs with
      | Some (_, _, r, _) -> r
      | None -> assert false
    in
    Printf.printf "%-18s %-14s %10s %9s %8s  %s\n" "protection" "outcome"
      "cycles" "overhead" "memops" "agrees";
    let divergent = ref 0 in
    List.iter
      (fun (prot, _, (r : M.Interp.result), _) ->
        let agrees =
          r.M.Interp.checksum = base.M.Interp.checksum
          && r.M.Interp.output = base.M.Interp.output
          && r.M.Interp.outcome = base.M.Interp.outcome
        in
        if not agrees then incr divergent;
        Printf.printf "%-18s %-14s %10d %8.1f%% %8d  %s\n"
          (P.protection_name prot)
          (M.Trap.outcome_to_string r.M.Interp.outcome)
          r.M.Interp.cycles
          (Levee_support.Stats.overhead_pct ~base:base.M.Interp.cycles
             ~instrumented:r.M.Interp.cycles)
          r.M.Interp.mem_ops
          (if agrees then "yes" else "NO"))
      runs;
    write_journal
      (List.map (fun (p, st, r, wall) -> journal_entry p st r wall) runs);
    (match base.M.Interp.outcome with
     | M.Trap.Exit 0 -> ()
     | o ->
       Printf.eprintf "[levee] vanilla run: %s\n" (M.Trap.outcome_to_string o);
       exit 101);
    exit (if !divergent = 0 then 0 else 1)
  end;
  let built =
    P.build ~annotated ~store_impl:!store_impl ~isolation:!isolation !protection
      prog
  in
  if !stats then begin
    let s = built.P.stats in
    Printf.printf "protection:            %s\n" (P.protection_name !protection);
    Printf.printf "functions:             %d\n" s.Levee_core.Stats.funcs_total;
    Printf.printf "FNUStack:              %.1f%%\n"
      (100. *. Levee_core.Stats.fnustack s);
    Printf.printf "memory ops:            %d\n" s.Levee_core.Stats.mem_ops_total;
    Printf.printf "instrumented mem ops:  %d (%.1f%%)\n"
      s.Levee_core.Stats.mem_ops_instrumented
      (100. *. Levee_core.Stats.mo_instrumented s);
    Printf.printf "checked mem ops:       %d\n" s.Levee_core.Stats.mem_ops_checked;
    Printf.printf "checks elided:         %d\n" s.Levee_core.Stats.checks_elided;
    Printf.printf "demoted mem ops:       %d\n" s.Levee_core.Stats.mem_ops_demoted;
    Printf.printf "indirect calls:        %d\n" s.Levee_core.Stats.indirect_calls
  end;
  if !emit_ir then begin
    print_string (Levee_ir.Printer.program built.P.prog);
    exit 0
  end;
  let t0 = Unix.gettimeofday () in
  let r =
    M.Interp.run_program ~input:!input ~fuel:!fuel ~sched_seed:!sched_seed
      built.P.prog built.P.config
  in
  write_journal
    [ journal_entry !protection built.P.stats r
        (int_of_float ((Unix.gettimeofday () -. t0) *. 1e6)) ];
  print_string r.M.Interp.output;
  if !time then begin
    Printf.printf "[levee] cycles:  %d\n" r.M.Interp.cycles;
    Printf.printf "[levee] instrs:  %d\n" r.M.Interp.instrs;
    Printf.printf "[levee] mem ops: %d (%d instrumented)\n" r.M.Interp.mem_ops
      r.M.Interp.instrumented_mem_ops
  end;
  match r.M.Interp.outcome with
  | M.Trap.Exit n -> exit n
  | o ->
    Printf.eprintf "[levee] %s\n" (M.Trap.outcome_to_string o);
    exit 101
