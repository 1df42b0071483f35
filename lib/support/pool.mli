(** A fixed-size Domain-based worker pool.

    The harness fans independent cells (benchmark workload x protection x
    store, fault/serve/crossval campaign cells, matrix protections) out
    across OCaml 5 domains. Every cell is a deterministic function of the
    program and its seeds, so a raising cell raises again on every run:
    the pool offers no timeouts or retries, only one ordered path.

    - results come back ordered by submission index, regardless of which
      worker finished first, so a parallel run is bit-for-bit comparable
      with a sequential one;
    - a raising task is captured in its own slot and does not kill the
      worker or poison the rest of the batch;
    - [jobs = 1] executes every task inline in the submitting domain, in
      submission order, spawning no domains at all — the sequential
      baseline path;
    - calling [run] from inside a pool task is detected and rejected with
      [Invalid_argument] instead of deadlocking the pool. *)

type t

(** [create ~jobs] spawns [jobs] worker domains when [jobs > 1];
    [jobs <= 1] creates an inline pool that runs tasks in the caller and
    spawns nothing. *)
val create : jobs:int -> t

(** The pool's configured size (>= 1). *)
val jobs : t -> int

(** [Domain.recommended_domain_count ()], the default for [--jobs]. *)
val default_jobs : unit -> int

(** [run p thunks] executes every thunk and returns their results in
    submission order, each task's exception captured in its own slot.
    Blocks until the whole batch has run.

    @raise Invalid_argument when called from inside a task of [p]. *)
val run : t -> (unit -> 'a) list -> ('a, exn) result list

(** [map p f xs] is the fail-fast form: it runs [f] on every element
    (the whole batch, even past a failure), then returns the plain
    results in order or re-raises the first failure in submission
    order. The pool stays usable afterwards.

    @raise Invalid_argument when called from inside a task of [p]. *)
val map : t -> ('a -> 'b) -> 'a list -> 'b list

(** Stop the workers and join their domains. The pool must not be used
    afterwards; idempotent. *)
val shutdown : t -> unit

(** [with_pool ~jobs f] runs [f] on a fresh pool and shuts it down when
    [f] returns or raises. *)
val with_pool : jobs:int -> (t -> 'a) -> 'a
