(* Structured run journal: a thread-safe accumulator of per-cell records
   plus a self-contained JSON emitter/parser (the toolchain has no JSON
   library; the schema only needs objects, arrays, strings and ints). *)

type entry = {
  workload : string;
  protection : string;
  store : string;
  outcome : string;
  status : int;
  cycles : int;
  instrs : int;
  mem_ops : int;
  instrumented_mem_ops : int;
  store_accesses : int;
  store_footprint : int;
  heap_peak : int;
  checksum : int;
  checks_elided : int;
  mem_ops_demoted : int;
  threads : int;
  ctx_switches : int;
  races : int;
  attempts : int;
  wall_us : int;
}

type t = {
  target_name : string;
  jobs_used : int;
  m : Mutex.t;
  mutable rev_entries : entry list;
}

let schema_id = "levee-bench-journal/4"

let create ?(jobs = 1) ~target () =
  { target_name = target; jobs_used = jobs; m = Mutex.create ();
    rev_entries = [] }

let target t = t.target_name
let jobs t = t.jobs_used

let record t e =
  Mutex.lock t.m;
  t.rev_entries <- e :: t.rev_entries;
  Mutex.unlock t.m

let entries t =
  Mutex.lock t.m;
  let es = List.rev t.rev_entries in
  Mutex.unlock t.m;
  es

let failures t = List.filter (fun e -> e.status <> 0) (entries t)

(* ---------- emitter ---------- *)

let escape = Jsonenc.escape

let entry_to_json e =
  Printf.sprintf
    "{\"workload\":\"%s\",\"protection\":\"%s\",\"store\":\"%s\",\
     \"outcome\":\"%s\",\"status\":%d,\"cycles\":%d,\"instrs\":%d,\
     \"mem_ops\":%d,\"instrumented_mem_ops\":%d,\"store_accesses\":%d,\
     \"store_footprint\":%d,\"heap_peak\":%d,\"checksum\":%d,\
     \"checks_elided\":%d,\"mem_ops_demoted\":%d,\"threads\":%d,\
     \"ctx_switches\":%d,\"races\":%d,\"attempts\":%d,\
     \"wall_us\":%d}"
    (escape e.workload) (escape e.protection) (escape e.store)
    (escape e.outcome) e.status e.cycles e.instrs e.mem_ops
    e.instrumented_mem_ops e.store_accesses e.store_footprint e.heap_peak
    e.checksum e.checks_elided e.mem_ops_demoted e.threads e.ctx_switches
    e.races e.attempts e.wall_us

let to_json t =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "{\n\"schema\":\"%s\",\n\"target\":\"%s\",\n\"jobs\":%d,\n\"entries\":[\n"
       schema_id (escape t.target_name) t.jobs_used);
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b (entry_to_json e))
    (entries t);
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

(* ---------- parser ---------- *)

(* The recursive-descent JSON reader lives in Jsonenc, shared with the
   run-store; only the entry projection is journal-specific. *)

exception Bad = Jsonenc.Bad

let parse_json = Jsonenc.parse
let field = Jsonenc.field
let as_str = Jsonenc.as_str
let as_int = Jsonenc.as_int
let as_list = Jsonenc.as_list

let entry_of_json j =
  let str k = as_str (field k j) and int k = as_int (field k j) in
  { workload = str "workload"; protection = str "protection";
    store = str "store"; outcome = str "outcome"; status = int "status";
    cycles = int "cycles"; instrs = int "instrs"; mem_ops = int "mem_ops";
    instrumented_mem_ops = int "instrumented_mem_ops";
    store_accesses = int "store_accesses";
    store_footprint = int "store_footprint"; heap_peak = int "heap_peak";
    checksum = int "checksum"; checks_elided = int "checks_elided";
    mem_ops_demoted = int "mem_ops_demoted"; threads = int "threads";
    ctx_switches = int "ctx_switches"; races = int "races";
    attempts = int "attempts"; wall_us = int "wall_us" }

let of_json s =
  try
    let j = parse_json s in
    let schema = as_str (field "schema" j) in
    if schema <> schema_id then
      raise (Bad ("unknown schema " ^ schema));
    let t =
      create ~jobs:(as_int (field "jobs" j))
        ~target:(as_str (field "target" j)) ()
    in
    List.iter (fun e -> record t (entry_of_json e)) (as_list (field "entries" j));
    t
  with
  | Bad msg -> failwith ("Journal.of_json: " ^ msg)
  | Failure msg -> failwith ("Journal.of_json: " ^ msg)

(* ---------- comparison / reporting ---------- *)

let equal ?(ignore_wall = true) a b =
  let strip e = if ignore_wall then { e with wall_us = 0 } else e in
  a.target_name = b.target_name
  && List.map strip (entries a) = List.map strip (entries b)

(* [Trap.outcome_to_string Fuel_exhausted]: a run stopped by the
   instruction budget (a deliberate --fuel-cap), not a failure. *)
let fuel_exhausted = "fuel exhausted"

let summary_line t =
  let es = entries t in
  let count p = List.length (List.filter p es) in
  let capped = count (fun e -> e.outcome = fuel_exhausted) in
  let failed = count (fun e -> e.status <> 0 && e.outcome <> fuel_exhausted) in
  let cycles = List.fold_left (fun acc e -> acc + e.cycles) 0 es in
  let wall = List.fold_left (fun acc e -> acc + e.wall_us) 0 es in
  Printf.sprintf
    "[journal] %s: %d runs (%d failed, %d fuel-capped), %d model cycles, \
     %.1f ms wall, jobs=%d"
    t.target_name (List.length es) failed capped cycles
    (float_of_int wall /. 1000.) t.jobs_used

let write ?(dir = ".") t =
  let path = Filename.concat dir ("BENCH_" ^ t.target_name ^ ".json") in
  let oc = open_out path in
  output_string oc (to_json t);
  close_out oc;
  path

(* ---------- run-store projection ---------- *)

(* One aggregate record per journal: the trajectory tracks whole-target
   totals, the per-cell detail stays in BENCH_<target>.json. Metric
   order is fixed, so the record's bytes are deterministic. *)
let to_record ?(kind = "bench") ?commit ?(seed = 0) ?(zero_wall = false) t =
  let es = entries t in
  let sum f = List.fold_left (fun acc e -> acc + f e) 0 es in
  let wall_us = if zero_wall then 0 else sum (fun e -> e.wall_us) in
  Runstore.make ~schema:schema_id ~kind ?commit ~config:t.target_name ~seed
    ~wall_us
    [ ("cells", Runstore.Int (List.length es));
      ("failures", Runstore.Int (List.length (failures t)));
      ("cycles", Runstore.Int (sum (fun e -> e.cycles)));
      ("instrs", Runstore.Int (sum (fun e -> e.instrs)));
      ("mem_ops", Runstore.Int (sum (fun e -> e.mem_ops)));
      ("instrumented_mem_ops", Runstore.Int (sum (fun e -> e.instrumented_mem_ops)));
      ("store_accesses", Runstore.Int (sum (fun e -> e.store_accesses)));
      ("checks_elided", Runstore.Int (sum (fun e -> e.checks_elided)));
      ("mem_ops_demoted", Runstore.Int (sum (fun e -> e.mem_ops_demoted)));
      ("ctx_switches", Runstore.Int (sum (fun e -> e.ctx_switches)));
      ("races", Runstore.Int (sum (fun e -> e.races)));
      ("checksum", Runstore.Int (sum (fun e -> e.checksum))) ]
