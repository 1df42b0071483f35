(** Paged word-granular memory.

    Pages are allocated lazily and zero-filled, which both matches OS
    behaviour and lets the evaluation measure the memory footprint of each
    configuration (pages touched x page size).

    A 16-slot direct-mapped page cache fronts the page hashtable. The hot
    loop moves between a handful of pages (the regular- and safe-stack
    tops, the current heap object, globals), so the slot function mixes
    high index bits into the low ones: each region's hot pages land in a
    slot of their own, with or without the ASLR slide, and consecutive
    pages land in consecutive-looking distinct slots. A hit is a shift,
    a few xors, a compare and an array index; only a miss probes the
    hashtable. The cache is invalidated by [clear]; reads of unmapped
    memory never allocate a page and never populate the cache. *)

let page_bits = 12
let page_words = 1 lsl page_bits
let page_mask = page_words - 1

let cache_slots = 16

(* Sentinel page index that no address maps to: [addr lsr page_bits] is
   non-negative for every int, so [min_int] never matches. *)
let no_page_idx = min_int
let no_page : int array = [||]

type t = {
  pages : (int, int array) Hashtbl.t;
  mutable pages_allocated : int;
  tags : int array;             (* page cache: page index held by each slot *)
  lines : int array array;      (* .. and that page *)
}

let[@inline] slot_of_idx idx =
  (idx lxor (idx lsr 7) lxor (idx lsr 13) lxor (idx lsr 17)) land (cache_slots - 1)

let slot_of addr = slot_of_idx (addr lsr page_bits)

let create () =
  { pages = Hashtbl.create 64; pages_allocated = 0;
    tags = Array.make cache_slots no_page_idx;
    lines = Array.make cache_slots no_page }

let[@inline] fill t s idx p =
  Array.unsafe_set t.tags s idx;
  Array.unsafe_set t.lines s p

let[@inline never] read_miss t s idx addr =
  match Hashtbl.find_opt t.pages idx with
  | Some p ->
    fill t s idx p;
    Array.unsafe_get p (addr land page_mask)
  | None -> 0

(** [read t addr] returns the word at [addr]; unmapped memory reads as 0
    without allocating a page. *)
let[@inline] read t addr =
  let idx = addr lsr page_bits in
  let s = slot_of_idx idx in
  (* [s] < cache_slots and [addr land page_mask] < page_words by
     construction: unchecked. *)
  if Array.unsafe_get t.tags s = idx then
    Array.unsafe_get (Array.unsafe_get t.lines s) (addr land page_mask)
  else read_miss t s idx addr

let[@inline never] write_miss t s idx addr v =
  let p =
    match Hashtbl.find_opt t.pages idx with
    | Some p -> p
    | None ->
      let p = Array.make page_words 0 in
      Hashtbl.replace t.pages idx p;
      t.pages_allocated <- t.pages_allocated + 1;
      p
  in
  fill t s idx p;
  Array.unsafe_set p (addr land page_mask) v

let[@inline] write t addr v =
  let idx = addr lsr page_bits in
  let s = slot_of_idx idx in
  if Array.unsafe_get t.tags s = idx then
    Array.unsafe_set (Array.unsafe_get t.lines s) (addr land page_mask) v
  else write_miss t s idx addr v

(** Words of memory currently backed by allocated pages. *)
let footprint_words t = t.pages_allocated * page_words

let clear t =
  Hashtbl.reset t.pages;
  t.pages_allocated <- 0;
  Array.fill t.tags 0 cache_slots no_page_idx;
  Array.fill t.lines 0 cache_slots no_page
