(** Structured run journal for the benchmark harness.

    Every (workload x protection x store) execution is recorded as one
    [entry]; a whole bench target serializes to [BENCH_<target>.json] so
    the performance trajectory can be tracked machine-readably across
    commits. The cost model is deterministic, so two journals for the same
    target are equal modulo the [wall_us] field whatever [--jobs] was. *)

type entry = {
  workload : string;           (** workload name, e.g. ["400.perlbench"] *)
  protection : string;         (** [Pipeline.protection_name] *)
  store : string;              (** [Safestore.impl_name] *)
  outcome : string;            (** [Trap.outcome_to_string] *)
  status : int;                (** 0 iff the run ended in [Exit 0] *)
  cycles : int;
  instrs : int;
  mem_ops : int;
  instrumented_mem_ops : int;
  store_accesses : int;        (** safe-pointer-store get/set/clear ops *)
  store_footprint : int;
  heap_peak : int;
  checksum : int;
  checks_elided : int;         (** checks removed by static elision *)
  mem_ops_demoted : int;       (** accesses demoted by points-to refinement *)
  threads : int;               (** total threads, including main (>= 1) *)
  ctx_switches : int;          (** deterministic-scheduler context switches *)
  races : int;                 (** lockset-detector race reports *)
  attempts : int;              (** executions before this result (>= 1) *)
  wall_us : int;               (** wall-clock microseconds for this cell *)
}

type t

val create : ?jobs:int -> target:string -> unit -> t
val target : t -> string
val jobs : t -> int

(** Append an entry; thread-safe. *)
val record : t -> entry -> unit

(** Entries in the order they were recorded. *)
val entries : t -> entry list

(** Entries whose [status] is non-zero. *)
val failures : t -> entry list

(** Serialize to the [BENCH_*.json] schema (see EXPERIMENTS.md). *)
val to_json : t -> string

(** JSON string escaping, shared with the other emitters in the repo so
    every schema agrees on one dialect. *)
val escape : string -> string

(** Parse [to_json] output back. @raise Failure on malformed input. *)
val of_json : string -> t

(** Structural equality; [ignore_wall] (default true) zeroes the
    nondeterministic [wall_us] fields before comparing. *)
val equal : ?ignore_wall:bool -> t -> t -> bool

(** One-line human summary: entry count, failures, fuel-capped runs,
    total cycles. A run whose outcome is ["fuel exhausted"] (the
    instruction budget ran out, e.g. under [--fuel-cap]) counts as
    fuel-capped, never as failed. *)
val summary_line : t -> string

(** Write [BENCH_<target>.json] under [dir] (default ["."]) and return
    the path. *)
val write : ?dir:string -> t -> string

(** Project the journal to one aggregate {!Runstore.record} (sums over
    the entries; [config] is the journal's target) for appending to the
    run-store. [zero_wall] drops the only nondeterministic field so the
    record's bytes are a pure function of the run; deterministic
    producers (e.g. `levee conc`) already record [wall_us = 0]. *)
val to_record :
  ?kind:string ->
  ?commit:string ->
  ?seed:int ->
  ?zero_wall:bool ->
  t ->
  Runstore.record
