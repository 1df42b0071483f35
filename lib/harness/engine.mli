(** The parallel benchmark execution engine.

    Owns a {!Levee_support.Pool} of worker domains, a pool-safe memo of
    (workload, protection, store) cell results, and an optional
    {!Levee_support.Journal} that every fresh execution is recorded to.
    The cost model is deterministic, so any [jobs] setting produces the
    same results and the same journal (modulo wall-clock fields); cells
    are journalled in canonical submission order, not completion order. *)

module P = Levee_core.Pipeline
module W = Levee_workloads
module M = Levee_machine

type cell = {
  workload : W.Workload.t;
  protection : P.protection;
  store_impl : M.Safestore.impl;
}

val cell :
  ?store_impl:M.Safestore.impl -> W.Workload.t -> P.protection -> cell

type t

(** [create ~jobs ()] builds an engine around a [jobs]-wide pool.
    [fuel_cap], if given, clamps every workload's instruction budget (the
    tiny-fuel CI smoke path). [task_timeout] arms the pool's per-cell
    watchdog (seconds; needs [jobs > 1]): a stuck cell is journalled as
    [timed-out(..)] instead of hanging the batch. [retries] re-runs a
    cell whose harness task raised, with deterministic backoff.
    [quarantine_after] (default 3) stops executing a workload once that
    many of its cells failed in the harness (exceptions or timeouts, not
    simulated traps); further cells are journalled as [quarantined]. *)
val create :
  ?fuel_cap:int -> ?task_timeout:float -> ?retries:int ->
  ?quarantine_after:int -> jobs:int -> unit -> t

val jobs : t -> int
val pool : t -> Levee_support.Pool.t

(** 0 iff the run ended in [Exit 0], else 1: the journal's default
    [status]. *)
val exit_status : M.Interp.result -> int

(** The one constructor of a {!Levee_support.Journal.entry} from a
    built program's statistics and its run; callers that judge a run by
    more than its exit (e.g. `levee conc`) pass their own [status]. *)
val journal_entry :
  workload:string -> protection:P.protection -> store:M.Safestore.impl ->
  status:int -> attempts:int -> wall_us:int ->
  Levee_core.Stats.t -> M.Interp.result -> Levee_support.Journal.entry

(** Route subsequent executions' records to [j] (one journal per bench
    target). *)
val set_journal : t -> Levee_support.Journal.t option -> unit

(** [prefetch t cells] executes every not-yet-memoized cell through the
    pool and memoizes + journals the results in submission order. With
    [jobs = 1] the cells run inline, in order, in the calling domain. *)
val prefetch : t -> cell list -> unit

(** Memoized lookup; computes (and journals) inline on a miss. *)
val run_workload :
  t -> ?store_impl:M.Safestore.impl -> W.Workload.t -> P.protection ->
  M.Interp.result

(** Percent cycle overhead of [protection] over vanilla for [w]. *)
val overhead : t -> W.Workload.t -> P.protection -> float

(** Workloads whose *vanilla* run did not end in [Exit 0], in the order
    they were discovered. A non-empty list means the harness itself is
    broken and the process should exit non-zero. *)
val vanilla_failures : t -> (string * M.Trap.outcome) list

(** Cells the harness itself failed to execute (exception, timeout or
    quarantine), as [("workload/protection", reason)] pairs in discovery
    order. These are also journalled with status 1, so the journal still
    covers the full matrix. *)
val harness_failures : t -> (string * string) list

(** Shut the pool down (joins the worker domains). *)
val shutdown : t -> unit
