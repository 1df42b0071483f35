(** Unboxed, paged metadata shadow for safe-region addresses: four words
    per address in the register layout of {!Meta} ({!Meta.w_lower},
    {!Meta.w_upper}, {!Meta.w_tid}, {!Meta.w_kind}); kind
    {!Meta.k_none} means no metadata. *)

(** Exposed read-only so the interpreter can inline the cache-hit path of
    {!page}: slot [s] caches page [tags.(s)] as [lines.(s)]. *)
type t = private {
  pages : (int, int array) Hashtbl.t;
  mutable npages : int;
  tags : int array;
  lines : int array array;
}

(** Addresses per page, and the cache slot of page index [i] is
    [i land (cache_slots - 1)]. *)
val page_bits : int
val page_addrs : int
val cache_slots : int

(** The shared read-only all-zero page {!page} returns for unmapped
    addresses. *)
val absent : int array

val create : unit -> t

(** The page holding [addr]'s metadata words, or a shared read-only
    all-zero page when none is mapped. Never allocates. *)
val page : t -> int -> int array

(** Index of [addr]'s first metadata word within [page t addr]. *)
val offset : int -> int

(** Record metadata for [addr], allocating its page if needed. *)
val set : t -> int -> lower:int -> upper:int -> tid:int -> kind:int -> unit

(** Drop [addr]'s metadata. Allocates nothing, even on an unmapped page. *)
val clear_at : t -> int -> unit

(** Pages allocated so far. *)
val pages_allocated : t -> int
