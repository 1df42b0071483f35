(* The repository benchmark: three workloads that call the levee libraries
   directly and time every layer call from outside the library.

     levee_bench.exe --workload spec-run|build-corpus|campaigns --seed N
                     [--seconds S] [--trace 0|1] [--size full|small]
                     [--setup-only] [--spans FILE] [--commit ID]

   The workload's inputs are a pure function of --seed. After a set-up
   (drawing and preparing the inputs), whole rounds of the workload run
   until --seconds have passed (at least one round; two with --trace 1,
   one untraced and one traced). Every round's outputs are checked.

   The last line of stdout is one JSON object with the keys correct,
   attempted, failed and metrics. With --trace 0 the metrics are the
   end-to-end ones except setup_s, which run.py measures by spawning this
   program with --setup-only. With --trace 1 they are the per-layer ones:
   workload rates from the untraced rounds, self times from the spans of
   the traced rounds. The spans go to --spans at exit. README.md has the
   metric definitions. Exit code 1 when any check failed. *)

module P = Levee_core.Pipeline
module W = Levee_workloads
module M = Levee_machine
module V = Levee_ir.Verify
module Prog = Levee_ir.Prog
module An = Levee_analysis
module Ripe = Levee_attacks.Ripe
module Faults = Levee_harness.Faults
module Crossval = Levee_harness.Crossval
module Serve = Levee_harness.Serve

let now = Unix.gettimeofday

(* ---------- spans ---------- *)

type span = {
  id : int;
  name : string;
  cell : string;
  parent : int;  (** -1 for a root span *)
  start : float;
  mutable stop : float;
}

let tracing = ref false
let spans : span list ref = ref []
let setup_spans : span list ref = ref []
let open_spans : int list ref = ref []
let next_id = ref 0

(* Spans are only taken in the bench's own domain, around calls into a
   layer; what happens inside a library call (Pool workers, Serve's
   calibration) is not split here. *)
let span ?(cell = "") name f =
  if not !tracing then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    let s = { id; name; cell; parent; start = now (); stop = 0. } in
    open_spans := id :: !open_spans;
    Fun.protect f ~finally:(fun () ->
        s.stop <- now ();
        open_spans := List.tl !open_spans;
        spans := s :: !spans)
  end

(* Self time of every span name, in seconds: duration minus the time its
   children cover. Children of one span never overlap (one domain). *)
let self_times spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          ((s.stop -. s.start)
           +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  let self = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let d =
        s.stop -. s.start
        -. Option.value ~default:0. (Hashtbl.find_opt child s.id)
      in
      Hashtbl.replace self s.name
        (d +. Option.value ~default:0. (Hashtbl.find_opt self s.name)))
    spans;
  self

let write_spans path =
  let esc = Levee_support.Jsonenc.escape in
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"id\":%d,\"name\":\"%s\",\"cell\":\"%s\",\"parent\":%d,\
         \"start_us\":%.1f,\"end_us\":%.1f}"
        s.id (esc s.name) (esc s.cell) s.parent (s.start *. 1e6)
        (s.stop *. 1e6))
    (List.rev_append !setup_spans (List.rev !spans));
  output_string oc "\n]\n";
  close_out oc

(* ---------- shared helpers ---------- *)

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let median l =
  match List.sort compare l with
  | [] -> 0.
  | s ->
    let n = List.length s in
    if n mod 2 = 1 then List.nth s (n / 2)
    else (List.nth s (n / 2 - 1) +. List.nth s (n / 2)) /. 2.

(* Nearest-rank percentile. *)
let percentile p l =
  match List.sort compare l with
  | [] -> 0.
  | s ->
    let n = List.length s in
    let k = int_of_float (Float.ceil (p /. 100. *. float n)) in
    List.nth s (max 0 (min (n - 1) (k - 1)))

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let pname = P.protection_name

(* The six table1 protections, vanilla first: every other cell of a
   program is checked against its vanilla cell. *)
let spec_protections =
  [ P.Vanilla; P.Safe_stack; P.Cps; P.Cpi; P.Cfi_type; P.Cpi_crypt ]

(* RIPE runs over every protection but the CPI debug mode. *)
let ripe_protections =
  [ P.Vanilla; P.Hardened; P.Cookies; P.Safe_stack; P.Cfi; P.Cps; P.Cpi;
    P.Softbound; P.Cfi_type; P.Cpi_crypt ]

(* Front end in its three layers, as Lower.compile_checked runs it. *)
let front_end ~cell ~name src =
  let ast =
    span ~cell "minic.parse" (fun () ->
        Levee_minic.Parser.parse_program_exn ~name src)
  in
  let checked =
    span ~cell "minic.typecheck" (fun () ->
        Levee_minic.Typecheck.check_program ast)
  in
  let prog =
    span ~cell "minic.lower" (fun () -> Levee_minic.Lower.lower checked)
  in
  (checked.Levee_minic.Typecheck.sensitive_structs, prog)

let static_instrs prog =
  Prog.fold_funcs prog
    (fun a fn ->
      Array.fold_left
        (fun a (b : Prog.block) -> a + Array.length b.Prog.instrs + 1)
        a fn.Prog.blocks)
    0

(* ---------- metric tables ---------- *)

(* Counters and timers of one round; traced rounds also fill the GC
   fields. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable fuel_exhausted : int;
  mutable failures : string list;
  mutable untimed_s : float;  (** housekeeping inside the round's clock *)
  mutable interp_s : float;
  mutable sim_instrs : int;
  mutable sim_cycles : int;
  mutable mem_ops : int;
  mutable instrumented_mem_ops : int;
  mutable store_accesses : int;
  mutable ctx_switches : int;
  mutable races : int;
  per_prot_s : (string, float) Hashtbl.t;
  per_prot_instrs : (string, int) Hashtbl.t;
  per_prot_minor : (string, float) Hashtbl.t;
  mutable promoted_words : float;
  mutable major_collections : int;
  mutable builds : int;
  mutable build_samples : float list;  (** seconds, build + load *)
  mutable instrs_static : int;
  mutable checks_elided : int;
  mutable mem_ops_demoted : int;
  mutable campaign_s : float;
  mutable serve_requests : int;
  mutable serve_s : float;
  mutable ripe_runs : int;
  mutable faults_runs : int;
  mutable crossval_runs : int;
  mutable digest_parts : string list;  (** model fingerprint, reversed *)
  cell_cycles : (string * string, int) Hashtbl.t;  (** (program, protection) *)
}

let new_tally () =
  { attempted = 0; failed = 0; fuel_exhausted = 0; failures = []; untimed_s = 0.;
    interp_s = 0.; sim_instrs = 0; sim_cycles = 0; mem_ops = 0;
    instrumented_mem_ops = 0; store_accesses = 0; ctx_switches = 0;
    races = 0; per_prot_s = Hashtbl.create 8;
    per_prot_instrs = Hashtbl.create 8; per_prot_minor = Hashtbl.create 8;
    promoted_words = 0.; major_collections = 0; builds = 0;
    build_samples = []; instrs_static = 0; checks_elided = 0;
    mem_ops_demoted = 0; campaign_s = 0.;
    serve_requests = 0; serve_s = 0.; ripe_runs = 0; faults_runs = 0;
    crossval_runs = 0; digest_parts = []; cell_cycles = Hashtbl.create 64 }

let check t ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    t.failures <- what :: t.failures
  end

let add_f tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))

let add_i tbl k v =
  Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k))

(* Every timed unit (a spec-run cell, a campaign call) starts from a
   collected heap, as in a fresh process: the machine's out-of-heap pages
   and the worker domains' garbage of earlier units are freed first, so
   neither a unit's time nor the memory peak depends on what ran before
   it. The collection is left out of the round's time. *)
let collect t =
  let (), dt = timed (fun () -> span "bench.collect" Gc.full_major) in
  t.untimed_s <- t.untimed_s +. dt

let digest_part t fmt = Printf.ksprintf (fun s -> t.digest_parts <- s :: t.digest_parts) fmt

(* ---------- spec-run ---------- *)

(* The draw: 403.gcc and 483.xalancbmk, plus one program of each pair
   below, taken from the twelve SPEC programs whose six-protection run is
   shortest. The two members of a pair take about as long (within 0.45 s
   for the six cells on a 2-core Xeon), so every draw costs about the
   same. gcc is always drawn because its images are the largest (a draw
   without it peaks ~20% lower in memory); xalancbmk is the shortest and
   allocates the most per instruction. The seven longest programs (namd,
   omnetpp, hmmer, povray, soplex, astar, lbm; 6-13 s each) would make
   one draw cost twice another. *)
let spec_fixed = [ "403.gcc"; "483.xalancbmk" ]

let spec_pairs =
  [ ("400.perlbench", "445.gobmk"); ("462.libquantum", "433.milc");
    ("464.h264ref", "429.mcf"); ("458.sjeng", "401.bzip2");
    ("447.dealII", "482.sphinx3") ]

type spec_cell = {
  sc_w : W.Workload.t;
  sc_prot : P.protection;
  sc_image : M.Loader.image;
}

let spec_setup ~seed ~small =
  let rng = Random.State.make [| seed; 0x5bec |] in
  let fixed, pairs =
    if small then ([], [ List.hd spec_pairs ]) else (spec_fixed, spec_pairs)
  in
  let drawn =
    List.map W.Spec.find
      (fixed
      @ List.map (fun (a, b) -> if Random.State.bool rng then a else b) pairs)
  in
  List.concat_map
    (fun (w : W.Workload.t) ->
      let cell = w.W.Workload.name in
      let annotated, prog = front_end ~cell ~name:cell w.W.Workload.source in
      List.map
        (fun prot ->
          let b =
            span ~cell ("core.build." ^ pname prot) (fun () ->
                P.build ~annotated prot prog)
          in
          let image =
            span ~cell "machine.load" (fun () ->
                M.Loader.load b.P.prog b.P.config)
          in
          { sc_w = w; sc_prot = prot; sc_image = image })
        spec_protections)
    (shuffle rng drawn)

let spec_round cells t =
  let vanilla = Hashtbl.create 8 in
  List.iter
    (fun c ->
      let w = c.sc_w in
      let name = w.W.Workload.name and prot = pname c.sc_prot in
      let cell = name ^ "/" ^ prot in
      collect t;
      let g0 = if !tracing then Some (Gc.quick_stat ()) else None in
      let r, dt =
        timed (fun () ->
            span ~cell "machine.interp" (fun () ->
                M.Interp.run ~input:w.W.Workload.input ~fuel:w.W.Workload.fuel
                  c.sc_image))
      in
      let instrs = r.M.Interp.instrs in
      (match g0 with
       | Some g0 ->
         let g1 = Gc.quick_stat () in
         add_f t.per_prot_minor prot (g1.Gc.minor_words -. g0.Gc.minor_words);
         t.promoted_words <-
           t.promoted_words +. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
         t.major_collections <-
           t.major_collections + g1.Gc.major_collections
           - g0.Gc.major_collections
       | None -> ());
      t.interp_s <- t.interp_s +. dt;
      add_f t.per_prot_s prot dt;
      add_i t.per_prot_instrs prot instrs;
      t.sim_instrs <- t.sim_instrs + instrs;
      t.sim_cycles <- t.sim_cycles + r.M.Interp.cycles;
      t.mem_ops <- t.mem_ops + r.M.Interp.mem_ops;
      t.instrumented_mem_ops <-
        t.instrumented_mem_ops + r.M.Interp.instrumented_mem_ops;
      t.store_accesses <- t.store_accesses + r.M.Interp.store_accesses;
      t.ctx_switches <- t.ctx_switches + r.M.Interp.ctx_switches;
      t.races <- t.races + r.M.Interp.races;
      Hashtbl.replace t.cell_cycles (name, prot) r.M.Interp.cycles;
      if c.sc_prot = P.Vanilla then Hashtbl.replace vanilla name r;
      if r.M.Interp.outcome = M.Trap.Fuel_exhausted then begin
        (* Counted apart from failures; still not correct (fuel_ok). *)
        t.attempted <- t.attempted + 1;
        t.fuel_exhausted <- t.fuel_exhausted + 1
      end
      else
        let same_as_vanilla =
          match Hashtbl.find_opt vanilla name with
          | Some v ->
            v.M.Interp.checksum = r.M.Interp.checksum
            && v.M.Interp.output = r.M.Interp.output
          | None -> false
        in
        check t
          (r.M.Interp.outcome = M.Trap.Exit 0 && same_as_vanilla)
          (Printf.sprintf "%s: %s%s" cell
             (M.Trap.outcome_to_string r.M.Interp.outcome)
             (if same_as_vanilla then "" else ", output differs from vanilla"));
      digest_part t "%s|%s|%d|%d|%s" name prot r.M.Interp.cycles
        r.M.Interp.checksum (Digest.to_hex (Digest.string r.M.Interp.output)))
    cells

(* Simulated cycle overhead of each protection over vanilla, geometric
   mean over the drawn programs, in percent. *)
let spec_overheads cells t_cycles =
  List.filter_map
    (fun prot ->
      if prot = P.Vanilla then None
      else
        let logs =
          List.filter_map
            (fun c ->
              if c.sc_prot <> prot then None
              else
                let n = c.sc_w.W.Workload.name in
                Some
                  (log
                     (float (Hashtbl.find t_cycles (n, pname prot))
                     /. float (Hashtbl.find t_cycles (n, "vanilla")))))
            cells
        in
        let g = exp (List.fold_left ( +. ) 0. logs /. float (List.length logs)) in
        Some (pname prot, (g -. 1.) *. 100.))
    spec_protections

(* ---------- build-corpus ---------- *)

let examples_dir = "examples/minic"

let corpus_setup ~seed ~small =
  let rng = Random.State.make [| seed; 0xb111d |] in
  let workloads =
    List.map
      (fun (w : W.Workload.t) -> (w.W.Workload.name, w.W.Workload.source))
      (W.Spec.all @ W.Phoronix.all @ W.Webstack.all @ W.Base_system.all)
  in
  let examples =
    Sys.readdir examples_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".c")
    |> List.sort compare
    |> List.map (fun f ->
           ( "examples/" ^ f,
             In_channel.with_open_bin (Filename.concat examples_dir f)
               In_channel.input_all ))
  in
  let all = shuffle rng (workloads @ examples) in
  if small then List.filteri (fun i _ -> i < 4) all else all

let corpus_round entries t =
  let built = ref [] in
  List.iter
    (fun (name, src) ->
      let annotated, prog = front_end ~cell:name ~name src in
      t.instrs_static <- t.instrs_static + static_instrs prog;
      ignore
        (span ~cell:name "analysis.diag" (fun () ->
             An.Diag.analyze ~annotated ~name prog));
      ignore
        (span ~cell:name "analysis.races" (fun () ->
             An.Racecheck.races ~annotated prog));
      let cpi = ref None in
      List.iter
        (fun prot ->
          let cell = name ^ "/" ^ pname prot in
          let (b, _image), dt =
            timed (fun () ->
                let b =
                  span ~cell ("core.build." ^ pname prot) (fun () ->
                      P.build ~annotated prot prog)
                in
                (b, span ~cell "machine.load" (fun () ->
                     M.Loader.load b.P.prog b.P.config)))
          in
          let verified =
            span ~cell "ir.verify" (fun () -> V.program_result b.P.prog)
          in
          check t (verified = Ok ()) (cell ^ ": verify failed");
          t.builds <- t.builds + 1;
          t.build_samples <- dt :: t.build_samples;
          t.checks_elided <-
            t.checks_elided + b.P.stats.Levee_core.Stats.checks_elided;
          t.mem_ops_demoted <-
            t.mem_ops_demoted + b.P.stats.Levee_core.Stats.mem_ops_demoted;
          if prot = P.Cpi then cpi := Some b;
          built := (cell, b.P.prog) :: !built)
        P.all_protections;
      match !cpi with
      | Some b ->
        let sep =
          span ~cell:name "analysis.separation" (fun () ->
              An.Racecheck.separation b.P.prog)
        in
        check t (sep.An.Racecheck.sp_replay = Ok ())
          (name ^ ": separation certificates do not replay")
      | None -> ())
    entries;
  List.rev !built

(* The built programs' digests go into the model fingerprint; taken after
   the round's clock stops, since printing is not a layer under test. *)
let digest_builds built t =
  List.iter
    (fun (cell, prog) ->
      digest_part t "%s|%s" cell
        (Digest.to_hex (Digest.string (Levee_ir.Printer.program prog))))
    built

(* ---------- campaigns ---------- *)


type campaign_input = {
  faults : Faults.campaign list;
  serve : Serve.config;
}

let jobs = 2

let campaigns_setup ~seed ~small =
  let rng = Random.State.make [| seed; 0xca3b |] in
  let nseeds = if small then 1 else 3 in
  let seeds = List.init nseeds (fun _ -> Random.State.int rng 1_000_000) in
  { faults = List.map (fun s -> Faults.smoke ~seed:s ()) seeds;
    serve = (if small then Serve.smoke else Serve.default) }

let campaigns_round inp t =
  collect t;
  let (summaries : Ripe.summary list), ripe_s =
    timed (fun () ->
        span "attacks.ripe" (fun () ->
            Ripe.run_matrix ~protections:ripe_protections ()))
  in
  let hijacks prot =
    match List.find_opt (fun (s : Ripe.summary) -> s.Ripe.protection = prot) summaries with
    | Some s -> s.Ripe.hijacked
    | None -> -1
  in
  let ripe_runs =
    List.fold_left (fun a (s : Ripe.summary) -> a + s.Ripe.total) 0 summaries
  in
  check t
    (hijacks P.Cfi >= hijacks P.Cfi_type
     && hijacks P.Cfi_type > hijacks P.Cpi
     && hijacks P.Cpi = 0 && hijacks P.Cpi_crypt = 0)
    (Printf.sprintf "ripe hijacks cfi=%d cfi-type=%d cpi=%d cpi-crypt=%d"
       (hijacks P.Cfi) (hijacks P.Cfi_type) (hijacks P.Cpi)
       (hijacks P.Cpi_crypt));
  List.iter
    (fun (s : Ripe.summary) ->
      digest_part t "ripe|%s|%d|%d|%d|%d" (pname s.Ripe.protection)
        s.Ripe.total s.Ripe.hijacked s.Ripe.trapped_count s.Ripe.crashed)
    summaries;
  let faults_runs = ref 0 and faults_s = ref 0. in
  List.iter
    (fun (c : Faults.campaign) ->
      collect t;
      let rep, dt =
        timed (fun () ->
            span ~cell:(string_of_int c.Faults.seed) "harness.faults"
              (fun () -> Faults.run ~jobs c))
      in
      faults_s := !faults_s +. dt;
      let runs = Faults.runs rep in
      faults_runs := !faults_runs + List.length runs;
      List.iter
        (fun (r : Faults.run) ->
          t.sim_instrs <- t.sim_instrs + r.Faults.r_instrs;
          t.sim_cycles <- t.sim_cycles + r.Faults.r_cycles;
          if r.Faults.r_class = "fuel-exhausted" then
            t.fuel_exhausted <- t.fuel_exhausted + 1)
        runs;
      check t (Faults.invariants_ok rep)
        (Printf.sprintf "faults seed %d: invariants violated" c.Faults.seed);
      digest_part t "faults|%s" (Digest.to_hex (Digest.string (Faults.to_json rep))))
    inp.faults;
  collect t;
  let xrep, crossval_s =
    timed (fun () ->
        span "harness.crossval" (fun () ->
            Crossval.run ~jobs Crossval.corpus))
  in
  let crossval_runs =
    List.fold_left
      (fun a (v : Crossval.verdict) -> a + List.length v.Crossval.v_cells)
      0 (Crossval.verdicts xrep)
  in
  check t (Crossval.invariants_ok xrep) "crossval: invariants violated";
  digest_part t "crossval|%s"
    (Digest.to_hex (Digest.string (Crossval.to_json xrep)));
  collect t;
  let srep, serve_s =
    timed (fun () -> span "harness.serve" (fun () -> Serve.run ~jobs inp.serve))
  in
  check t (Serve.invariants_ok srep) "serve: invariants violated";
  digest_part t "serve|%s" (Digest.to_hex (Digest.string (Serve.to_json srep)));
  let requests =
    List.fold_left (fun a (c : Serve.cell) -> a + c.Serve.c_arrivals) 0
      srep.Serve.rep_cells
  in
  t.ripe_runs <- t.ripe_runs + ripe_runs;
  t.faults_runs <- t.faults_runs + !faults_runs;
  t.crossval_runs <- t.crossval_runs + crossval_runs;
  t.campaign_s <- t.campaign_s +. ripe_s +. !faults_s +. crossval_s;
  t.serve_requests <- t.serve_requests + requests;
  t.serve_s <- t.serve_s +. serve_s;
  (* Each machine run counted above is one checked operation. *)
  t.attempted <- t.attempted + ripe_runs + !faults_runs + crossval_runs

(* ---------- rounds and report ---------- *)

type prepared =
  | Spec of spec_cell list
  | Corpus of (string * string) list
  | Campaigns of campaign_input

let setup workload ~seed ~small =
  span "bench.setup" (fun () ->
      match workload with
      | "spec-run" -> Spec (spec_setup ~seed ~small)
      | "build-corpus" -> Corpus (corpus_setup ~seed ~small)
      | "campaigns" -> Campaigns (campaigns_setup ~seed ~small)
      | w -> invalid_arg ("unknown workload " ^ w))

let draw_names = function
  | Spec cells ->
    List.sort_uniq compare
      (List.map (fun c -> c.sc_w.W.Workload.name) cells)
  | Corpus entries -> List.map fst entries
  | Campaigns inp ->
    List.map (fun (c : Faults.campaign) -> "faults-seed-" ^ string_of_int c.Faults.seed)
      inp.faults

(* One round; returns its wall time and its tally. Digests of the built
   programs are taken after the clock stops. *)
let round prepared ~traced =
  let t = new_tally () in
  tracing := traced;
  let wall, built =
    let t0 = now () in
    let built =
      span "bench.round" (fun () ->
          match prepared with
          | Spec cells -> spec_round cells t; []
          | Corpus entries -> corpus_round entries t
          | Campaigns inp -> campaigns_round inp t; [])
    in
    (now () -. t0 -. t.untimed_s, built)
  in
  tracing := false;
  digest_builds built t;
  (* Start every round from a collected heap, so its time and the peak
     memory do not depend on how much garbage earlier rounds left. *)
  Gc.full_major ();
  (wall, t)

let vm_hwm_mb () =
  let v =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec loop () =
          match In_channel.input_line ic with
          | None -> 0.
          | Some l ->
            if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %f" Fun.id
            else loop ()
        in
        loop ())
  in
  v /. 1024.

let cpu_model () =
  try
    In_channel.with_open_text "/proc/cpuinfo" (fun ic ->
        let rec loop () =
          match In_channel.input_line ic with
          | None -> "unknown"
          | Some l -> (
            match String.index_opt l ':' with
            | Some i when String.trim (String.sub l 0 i) = "model name" ->
              String.trim (String.sub l (i + 1) (String.length l - i - 1))
            | _ -> loop ())
        in
        loop ())
  with Sys_error _ -> "unknown"

let json_str s = "\"" ^ Levee_support.Jsonenc.escape s ^ "\""

let main () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.
  and trace = ref false and small = ref false and setup_only = ref false
  and spans_file = ref "" and commit = ref "unknown" in
  let usage () =
    prerr_endline
      "usage: levee_bench.exe --workload spec-run|build-corpus|campaigns \
       --seed N [--seconds S] [--trace 0|1] [--size full|small] \
       [--setup-only] [--spans FILE] [--commit ID]";
    exit 2
  in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: r -> workload := w; parse r
    | "--seed" :: n :: r -> seed := int_of_string n; parse r
    | "--seconds" :: n :: r -> seconds := float_of_string n; parse r
    | "--trace" :: ("0" | "1" as v) :: r -> trace := v = "1"; parse r
    | "--size" :: ("full" | "small" as v) :: r -> small := v = "small"; parse r
    | "--setup-only" :: r -> setup_only := true; parse r
    | "--spans" :: f :: r -> spans_file := f; parse r
    | "--commit" :: c :: r -> commit := c; parse r
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (List.mem !workload [ "spec-run"; "build-corpus"; "campaigns" ]) then
    usage ();
  let small = !small and seed = !seed in
  if !setup_only then begin
    ignore (setup !workload ~seed ~small);
    exit 0
  end;
  Printf.printf "host: {\"nproc\":%d,\"cpu\":%s,\"ocaml\":%s,\"commit\":%s}\n%!"
    (Domain.recommended_domain_count ())
    (json_str (cpu_model ()))
    (json_str Sys.ocaml_version) (json_str !commit);
  tracing := !trace;
  let prepared = setup !workload ~seed ~small in
  tracing := false;
  setup_spans := !spans;
  spans := [];
  Gc.full_major ();
  (* Rounds run while the next one is expected to end within --seconds;
     with --trace 1 they alternate untraced / traced, starting untraced. *)
  let min_rounds = if !trace then 2 else 1 in
  let t_start = now () in
  let rec loop i acc =
    let traced = !trace && i mod 2 = 1 in
    let wall, t = round prepared ~traced in
    let acc = (traced, wall, t) :: acc in
    let elapsed = now () -. t_start in
    if i + 1 < min_rounds || elapsed +. wall <= !seconds then loop (i + 1) acc
    else List.rev acc
  in
  let rounds = loop 0 [] in
  let all_t = List.map (fun (_, _, t) -> t) rounds in
  let untraced = List.filter (fun (tr, _, _) -> not tr) rounds in
  let traced = List.filter (fun (tr, _, _) -> tr) rounds in
  let sum f l = List.fold_left (fun a (_, _, t) -> a + f t) 0 l in
  let sumf f l = List.fold_left (fun a (_, _, t) -> a +. f t) 0. l in
  let attempted = List.fold_left (fun a t -> a + t.attempted) 0 all_t in
  let failed = List.fold_left (fun a t -> a + t.failed) 0 all_t in
  let fuel_exhausted = List.fold_left (fun a t -> a + t.fuel_exhausted) 0 all_t in
  (* Every round must produce the same model: same cycles, checksums,
     outputs, built programs and campaign reports. *)
  let digests =
    List.map
      (fun t -> Digest.to_hex (Digest.string (String.concat "\n" (List.rev t.digest_parts))))
      all_t
  in
  let digest = List.hd digests in
  let rounds_agree = List.for_all (( = ) digest) digests in
  let failed = failed + if rounds_agree then 0 else 1 in
  let attempted = attempted + 1 in
  (* At full fuel no spec-run cell may run out of fuel; a faulted
     campaign run that loops is an expected class, counted only. *)
  let fuel_ok = !workload = "campaigns" || fuel_exhausted = 0 in
  let correct = failed = 0 && fuel_ok in
  let first = List.hd all_t in
  let nrounds = List.length rounds in
  Printf.printf
    "model: {\"workload\":%s,\"seed\":%d,\"draw\":[%s],\"sim_instrs\":%d,\
     \"sim_cycles\":%d,\"digest\":%s}\n"
    (json_str !workload) seed
    (String.concat "," (List.map json_str (draw_names prepared)))
    first.sim_instrs first.sim_cycles (json_str digest);
  Printf.printf
    "summary: %d rounds, %d checks attempted, %d failed, %d fuel-exhausted%s\n"
    nrounds attempted failed fuel_exhausted
    (if rounds_agree then "" else ", rounds disagree on the model digest");
  Printf.printf "round_s: [%s]\n"
    (String.concat ","
       (List.map (fun (tr, w, _) -> Printf.sprintf "%s%.4f" (if tr then "t" else "") w) rounds));
  List.iter
    (fun t -> List.iter (Printf.printf "failure: %s\n") (List.rev t.failures))
    all_t;
  let wall_med l = median (List.map (fun (_, w, _) -> w) l) in
  let metrics = ref [] in
  let put name unit v = metrics := (name, unit, v) :: !metrics in
  let per_round x = x /. float (max 1 (List.length untraced)) in
  if not !trace then begin
    put "wall_s" "s" (wall_med untraced);
    put "peak_rss_mb" "MB" (vm_hwm_mb ())
  end
  else begin
    (* Workload rates, from the untraced rounds. *)
    let interp_s = sumf (fun t -> t.interp_s) untraced in
    let instrs = sum (fun t -> t.sim_instrs) untraced in
    put "sim_minstr_per_s" "Minstr/s"
      (if interp_s > 0. then float instrs /. interp_s /. 1e6 else 0.);
    let builds = sum (fun t -> t.builds) untraced in
    put "builds_per_s" "1/s"
      (if builds > 0 then per_round (float builds) /. wall_med untraced else 0.);
    let samples =
      List.concat_map (fun (_, _, t) -> t.build_samples) untraced
    in
    put "build_ms_p50" "ms" (1e3 *. percentile 50. samples);
    put "build_ms_p99" "ms" (1e3 *. percentile 99. samples);
    let cs = sumf (fun t -> t.campaign_s) untraced in
    put "campaign_runs_per_s" "1/s"
      (if cs > 0. then
         float (sum (fun t -> t.ripe_runs + t.faults_runs + t.crossval_runs) untraced)
         /. cs
       else 0.);
    let ss = sumf (fun t -> t.serve_s) untraced in
    put "serve_mreq_per_s" "Mreq/s"
      (if ss > 0. then float (sum (fun t -> t.serve_requests) untraced) /. ss /. 1e6
       else 0.);
    put "fail_ratio" "ratio" (float failed /. float attempted);
    put "fuel_exhausted" "count" (float fuel_exhausted);
    put "trace.overhead_pct" "%"
      ((wall_med traced /. wall_med untraced -. 1.) *. 100.);
    (* Per-layer self times: mean over the traced rounds, plus the
       traced set-up (the only place spec-run compiles and loads). *)
    let self = self_times !spans and setup_self = self_times !setup_spans in
    let ntr = float (List.length traced) in
    let self_ms name =
      let get tbl = Option.value ~default:0. (Hashtbl.find_opt tbl name) in
      1e3 *. (get setup_self +. get self /. ntr)
    in
    List.iter
      (fun l -> put (l ^ "_ms") "ms" (self_ms l))
      [ "bench.setup"; "bench.round"; "bench.collect"; "minic.parse";
        "minic.typecheck"; "minic.lower"; "analysis.diag"; "analysis.races"; "analysis.separation";
        "ir.verify"; "machine.load"; "machine.interp"; "attacks.ripe";
        "harness.faults"; "harness.crossval"; "harness.serve" ];
    (* Metric names allow no '+' (hardened is "dep+aslr+cookies"). *)
    let key p = String.map (fun c -> if c = '+' then '-' else c) (pname p) in
    List.iter
      (fun p -> put ("core.build_ms." ^ key p) "ms" (self_ms ("core.build." ^ pname p)))
      P.all_protections;
    let tr = List.map (fun (_, _, t) -> t) traced in
    let tsum f = List.fold_left (fun a t -> a + f t) 0 tr in
    let tsumf f = List.fold_left (fun a t -> a +. f t) 0. tr in
    let per_tr x = float x /. ntr in
    let ratio a b = if b = 0 then 0. else a /. float b in
    put "ir.instrs_static" "count" (per_tr (tsum (fun t -> t.instrs_static)));
    put "core.checks_elided" "count" (per_tr (tsum (fun t -> t.checks_elided)));
    put "core.mem_ops_demoted" "count"
      (per_tr (tsum (fun t -> t.mem_ops_demoted)));
    let prot_f sel p =
      tsumf (fun t -> Option.value ~default:0. (Hashtbl.find_opt (sel t) (pname p)))
    in
    let prot_i sel p =
      tsum (fun t -> Option.value ~default:0 (Hashtbl.find_opt (sel t) (pname p)))
    in
    List.iter
      (fun p ->
        let n = prot_i (fun t -> t.per_prot_instrs) p in
        put ("machine.ns_per_instr." ^ pname p) "ns"
          (1e9 *. ratio (prot_f (fun t -> t.per_prot_s) p) n);
        put ("machine.minor_words_per_instr." ^ pname p) "words"
          (ratio (prot_f (fun t -> t.per_prot_minor) p) n))
      spec_protections;
    let tinstrs = tsum (fun t -> t.sim_instrs) in
    put "machine.promoted_words_per_instr" "words"
      (ratio (tsumf (fun t -> t.promoted_words)) tinstrs);
    put "machine.major_collections" "count"
      (per_tr (tsum (fun t -> t.major_collections)));
    put "machine.sim_instrs" "count" (float first.sim_instrs);
    put "machine.sim_cycles" "count" (float first.sim_cycles);
    let overheads =
      match prepared with
      | Spec cells -> spec_overheads cells first.cell_cycles
      | _ -> []
    in
    List.iter
      (fun p ->
        if p <> P.Vanilla then
          put ("machine.overhead_pct." ^ pname p) "%"
            (Option.value ~default:0. (List.assoc_opt (pname p) overheads)))
      spec_protections;
    put "machine.store_accesses_per_instr" "ratio"
      (ratio (float first.store_accesses) first.sim_instrs);
    put "machine.instrumented_mem_ops_ratio" "ratio"
      (ratio (float first.instrumented_mem_ops) first.mem_ops);
    put "machine.ctx_switches" "count" (float first.ctx_switches);
    put "machine.races" "count" (float first.races);
    put "attacks.ripe_runs" "count" (float first.ripe_runs);
    put "harness.faults_runs" "count" (float first.faults_runs);
    put "harness.crossval_runs" "count" (float first.crossval_runs);
    put "harness.serve_requests" "count" (float first.serve_requests)
  end;
  if !spans_file <> "" then write_spans !spans_file;
  let metrics =
    List.rev_map
      (fun (n, u, v) ->
        Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (json_str n)
          (Printf.sprintf "%.17g" v) (json_str u))
      !metrics
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n"
    correct attempted failed (String.concat "," metrics);
  exit (if correct then 0 else 1)

let () = main ()
