(** Based-on metadata attached to register values and resolved operands.

    Lives in its own module (rather than inside the interpreter) so the
    loader can pre-build metadata for resolved [Glob]/[Fun] operands when
    it prepares a program. The interpreter keeps register metadata
    unboxed, as [words] ints per register; a kind code of [k_none] there
    means "no metadata". *)

type t = { lower : int; upper : int; tid : int; kind : Safestore.kind }

(* Unboxed layout: word offsets within one register's metadata. *)
let words = 4
let w_lower = 0
let w_upper = 1
let w_tid = 2
let w_kind = 3

(* Kind codes. *)
let k_none = 0
let k_data = 1
let k_code = 2
let k_invalid = 3

let code_of_kind = function
  | Safestore.Data -> k_data
  | Safestore.Code -> k_code
  | Safestore.Invalid -> k_invalid

let kind_of_code c =
  if c = k_data then Safestore.Data
  else if c = k_code then Safestore.Code
  else Safestore.Invalid
