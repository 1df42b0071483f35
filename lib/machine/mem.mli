(** Paged word-granular memory. Pages are allocated lazily and zero-filled,
    which matches OS behaviour and lets the evaluation measure the memory
    footprint of each configuration. A direct-mapped page cache of
    {!cache_slots} slots fronts the page table. *)

(** Exposed read-only so the interpreter can inline the cache-hit path:
    slot [s] caches page [tags.(s)], whose words are [lines.(s)]. *)
type t = private {
  pages : (int, int array) Hashtbl.t;
  mutable pages_allocated : int;
  tags : int array;
  lines : int array array;
}

val create : unit -> t

(** [read t addr]: unmapped memory reads as 0 without allocating. *)
val read : t -> int -> int

val write : t -> int -> int -> unit

(** Words currently backed by allocated pages. *)
val footprint_words : t -> int

(** Drop every page and invalidate every cache slot. *)
val clear : t -> unit

val page_bits : int

(** Words per page. *)
val page_words : int

val page_mask : int

(** Number of page-cache slots. *)
val cache_slots : int

(** The cache slot the page holding [addr] maps to. *)
val slot_of : int -> int
