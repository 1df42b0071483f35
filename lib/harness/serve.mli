(** The resilient-server campaign behind `levee serve`.

    Two coupled layers reproduce the "millions of users" version of the
    paper's Table 4 web-stack story:

    {b Machine layer.} The {!Levee_workloads.Webstack.server} kernel — N
    worker threads over a sharded, per-shard-mutex KV store, dispatching
    every request through a function-pointer handler table — runs on the
    deterministic machine under each protection. Per-class service costs
    are calibrated once per protection from single-threaded runs
    (marginal cycles per request; seed-independent), and
    per-(protection, seed) {e probes} replay the server
    under a hijack plan (arbitrary write of the handler table) and a
    degradation plan (worker kill + stall + the same hijack write) to
    check that CPI is never hijacked even mid-degradation.

    {b Simulation layer.} A deterministic discrete-event simulation
    drives an open-loop arrival process of [requests] requests per cell
    through the calibrated server model: bounded queue with admission
    shedding, per-request deadlines, bounded retries with seeded
    exponential backoff, a circuit breaker per shard, injected worker
    kills and a hot-shard stall window. Every number it produces is in
    simulated cycles — no wall clock — so output is byte-identical
    across [--jobs] and across runs. It allocates nothing per request:
    a cell holds O(queue + deadline) memory whatever [requests] is, and
    its latency tail is read exactly off a per-cycle count vector. *)

module P = Levee_core.Pipeline

type config = {
  workers : int;   (** worker threads, 1..{!Levee_workloads.Webstack.max_workers} *)
  shards : int;    (** KV shards, 1..{!Levee_workloads.Webstack.max_shards} *)
  requests : int;  (** simulated arrivals per cell (open-loop) *)
  protections : P.protection list;
  seeds : int list;       (** cell seeds; also the probes' scheduler seeds *)
  faulted : bool;  (** inject worker kills + a hot-shard stall window *)
}

(** The campaign the ROADMAP asks for: ~10^6 requests per cell across
    {vanilla, safestack, cpi, cfi-type, cpi-crypt} x seeds [0; 1],
    faults on. *)
val default : config

(** A small matrix for tests and the [@jobs-smoke] alias: same shape,
    12k requests per cell. *)
val smoke : config

(** One machine-layer probe run (plan x protection x seed). *)
type probe = {
  p_plan : string;
  p_class : string;    (** hijacked/trapped/crash/masked/benign/fuel-exhausted *)
  p_outcome : string;
  p_cycles : int;
  p_checksum : int;
}

(** One (protection, seed) cell: calibration, probes, and the simulated
    campaign's terminal accounting + latency tail. *)
type cell = {
  c_protection : P.protection;
  c_seed : int;
  c_svc : int array;       (** calibrated cycles/request per class (3) *)
  c_probes : probe list;
  c_arrivals : int;
  c_served : int;
  c_shed : int;
  c_timed_out : int;
  c_retried : int;         (** retry attempts scheduled (non-terminal) *)
  c_killed : int;          (** workers killed by the fault plan *)
  c_trips : int;           (** circuit-breaker openings *)
  c_p50 : int;
  c_p99 : int;
  c_p999 : int;
  c_max : int;
  c_hist : (int * int) list;  (** (power-of-two bucket floor, count) *)
}

type report = { rep_config : config; rep_cells : cell list }

(** A latency tail: nearest-rank percentiles, maximum, and the log2
    histogram as in {!cell}. *)
type tail = {
  t_p50 : int;
  t_p99 : int;
  t_p999 : int;
  t_max : int;
  t_hist : (int * int) list;
}

(** [tail counts] summarises a latency count vector ([counts.(l)] is the
    number of served requests with latency [l] cycles) exactly as
    sorting the full latency vector would; all zeros when nothing was
    served. A served latency never exceeds the deadline (50 x the mean
    service time), so the vector stays small however many requests a
    cell simulates. *)
val tail : int array -> tail

(** Run the campaign. Cells are executed on a worker pool but integrated
    in submission order, so the report is independent of [jobs]. *)
val run : ?jobs:int -> config -> report

(** The campaign invariants, in order: CPI never hijacked (including
    mid-degradation), every admitted request terminally accounted
    (served + shed + timed out = arrivals, per cell), vanilla hijack
    witnessed, and — when faults are on — every cell kept serving while
    at least one cell actually degraded (shed/retried/timed out). Each is
    [(json_key, description, ok)]: the JSON document, the human table
    and {!invariants_ok} all derive from this one list. *)
val invariants : report -> (string * string * bool) list

val invariants_ok : report -> bool

(** Deterministic [levee-serve/1] JSON document (no wall-clock). *)
val to_json : report -> string

(** One run-store record per cell (kind ["serve"]), fully deterministic:
    counts at 0% tolerance, latency percentiles gated at 5%. *)
val to_records : ?commit:string -> report -> Levee_support.Runstore.record list

val to_human : report -> string
