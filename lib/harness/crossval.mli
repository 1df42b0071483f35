(** Cross-validation of the static race/soundness analyzer against the
    dynamic detectors.

    The harness runs a fixed racy/race-free corpus through both sides:

    - {b static}: {!Levee_analysis.Racecheck.races} over the
      uninstrumented program;
    - {b dynamic}: the machine's Eraser detector across
      (protection × scheduler seed) cells, every dynamic report
      projected back onto its program object ({!Levee_machine.Raceproj}).

    The headline invariant is the analyzer's empirical soundness: every
    dynamically-observed race is statically flagged, in every cell. The
    converse direction is checked as corpus expectations (racy subjects
    are statically flagged *and* dynamically witnessed; guarded subjects
    are silent on both sides).

    A second link ties the separation pass to the fault campaigns: on
    the {!Faults.smoke} subjects, a CPI build whose plain stores are all
    certified (and whose certificates replay) must never be hijacked by
    an attacker-model plan. Everything is deterministic and independent
    of [jobs]. *)

module P = Levee_core.Pipeline
module M = Levee_machine
module An = Levee_analysis

(** A corpus program: self-contained MiniC whose benign run exits 0
    under every protection and scheduler seed. [x_racy] is the expected
    static verdict. *)
type subject = {
  xname : string;
  source : string;
  fuel : int;
  x_racy : bool;
}

(** The built-in corpus: an unguarded shared counter, broken
    double-checked locking, a properly-guarded web-stack fragment, and
    the single-spawn handler registry (mirrors [examples/minic]). *)
val corpus : subject list

(** One dynamic execution cell. *)
type cell = {
  c_subject : string;
  c_prot : P.protection;
  c_seed : int;
  c_outcome : string;
  c_races : string list;      (** projected dynamic race keys, sorted *)
  c_uncovered : string list;  (** dynamic keys no static verdict covers *)
}

type verdict = {
  v_subject : string;
  v_racy : bool;                      (** corpus expectation *)
  v_static : string list;             (** static racy-object keys *)
  v_races : An.Racecheck.race list;   (** full static verdicts *)
  v_cells : cell list;
}

type report

val verdicts : report -> verdict list

(** Does this static key set cover a dynamic race key? Exact for
    globals; heap/stack dynamic keys are covered by any malloc/alloca
    site key (one address cannot single out the site); ["<unknown>"]
    covers everything. *)
val covers : string list -> string -> bool

(** Run the corpus over [protections × seeds] on a [jobs]-wide pool.
    Defaults: Vanilla and CPI, seeds 0..7. Deterministic across [jobs]. *)
val run :
  ?jobs:int ->
  ?protections:P.protection list ->
  ?seeds:int list ->
  subject list ->
  report

(** The static-vs-faults link for one {!Faults.smoke} subject. *)
type faults_cross = {
  fc_subject : string;
  fc_plain : int;
  fc_certified : int;
  fc_unproven : int;
  fc_replay_ok : bool;
  fc_cpi_hijacked : bool;
      (** some attacker-model plan ended [Hijacked] under CPI *)
}

(** Run the {!Faults.smoke} campaign and the separation pass side by
    side. Deterministic. *)
val faults_cross : ?jobs:int -> ?seed:int -> unit -> faults_cross list

(** A fully-certified CPI subject is never hijacked by an
    attacker-model plan. *)
val faults_consistent : faults_cross list -> bool

(** The invariants, in order: soundness (every dynamic race statically
    covered), static-verdict-matches-corpus, racy-subjects-witnessed,
    guarded-subjects-silent, all-runs-exit-0. Each is
    [(json_key, description, ok)], the key being the description. *)
val invariants : report -> (string * string * bool) list

val invariants_ok : report -> bool

(** The [levee-crossval/1] JSON document. [faults] appends the
    static-vs-faults section. *)
val to_json : ?faults:faults_cross list -> report -> string

val to_human : ?faults:faults_cross list -> report -> string

(** One aggregate run-store record (schema [levee-crossval/1], kind
    ["crossval"], config ["corpus"], [wall_us = 0]); deterministic
    across runs and [jobs] widths. *)
val to_record : ?commit:string -> report -> Levee_support.Runstore.record
