(** Shared JSON emission and parsing helpers.

    The toolchain has no JSON library; every schema in the repo
    ([levee-bench-journal/*], [levee-analyze/*], [levee-faults/*],
    [levee-serve/*], [levee-crossval/*], [levee-history/*]) emits objects, arrays, strings
    and numbers by hand. This module is the single definition of the
    string-escaping and float-formatting dialect, the field/object
    combinators, and the reader, so every emitter produces — and every
    consumer accepts — the same bytes for the same data. *)

(** Escape a string for inclusion inside JSON double quotes. *)
val escape : string -> string

(** The one float dialect every schema uses: fixed-point with one
    decimal ([197.4]), locale-independent. Negative zero normalizes to
    ["0.0"]; non-finite values (unrepresentable in JSON, never produced
    by a real schema) also collapse to ["0.0"]. *)
val float_str : float -> string

(** ["key":"escaped value"] *)
val str : string -> string -> string

(** ["key":42] *)
val int : string -> int -> string

(** ["key":3.1] — formatted with {!float_str}. *)
val float1 : string -> float -> string

(** ["key":true] *)
val bool : string -> bool -> string

(** [obj fields] = [{f1,f2,...}] on one line. *)
val obj : string list -> string

(** [arr elems] = [[e1,\ne2,\n...]] with one element per line, matching
    the journal emitter's layout. *)
val arr : string list -> string

(** {2 Parsing} *)

type json =
  | Jstr of string
  | Jint of int
  | Jfloat of float
  | Jbool of bool
  | Jnull
  | Jlist of json list
  | Jobj of (string * json) list

(** Raised by {!parse} and the accessors below, with a message that
    pinpoints the offset or the missing/ill-typed field. *)
exception Bad of string

(** Parse a complete JSON document (objects, arrays, strings, ints,
    floats, bools, null). Object member order is preserved.
    @raise Bad on malformed input, including trailing garbage. *)
val parse : string -> json

(** Project a field out of an object. @raise Bad if absent. *)
val field : string -> json -> json

val field_opt : string -> json -> json option
val as_str : json -> string
val as_int : json -> int

(** Accepts both [Jfloat] and [Jint]. *)
val as_float : json -> float

val as_bool : json -> bool
val as_list : json -> json list
