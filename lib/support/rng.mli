(** Deterministic pseudo-random number generation (SplitMix64).

    All randomized components of the reproduction draw from this generator
    so every run is bit-for-bit reproducible. *)

type t

val create : int -> t
val copy : t -> t

(** [split t] derives an independent child generator and advances [t] by
    one step. Split streams are deterministic (same parent seed and split
    order ⇒ same children) and pairwise decorrelated from each other and
    from the parent's later outputs. *)
val split : t -> t

val next_int64 : t -> int64

(** Uniform in [0, bound). Requires [bound > 0]. Allocates nothing. *)
val int : t -> int -> int

(** Uniform in [lo, hi] inclusive. Allocates nothing. *)
val range : t -> int -> int -> int

val bool : t -> bool
val pick : t -> 'a array -> 'a
val shuffle : t -> 'a array -> unit
