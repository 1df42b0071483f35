(** Based-on metadata shadow for safe-region addresses.

    The safe stack is isolation-protected, so values stored there keep
    their metadata the way register-resident values do after mem2reg.
    The shadow holds that metadata unboxed, {!Meta.words} ints per
    address in the register layout ({!Meta.w_lower} .. {!Meta.w_kind}),
    in lazily allocated pages fronted by a small direct-mapped page cache
    like {!Mem}'s. Only a store that carries metadata allocates a page:
    reads of unmapped pages see a shared all-zero page (kind
    {!Meta.k_none}), and a metadata-free store to an unmapped page is a
    no-op. Pages are small (256 addresses) because only the few words
    around each thread's safe-stack top are ever touched. *)

let page_bits = 8
let page_addrs = 1 lsl page_bits
let page_len = page_addrs * Meta.words
let cache_slots = 4

let no_page_idx = min_int

(* Read-only: returned for unmapped pages and never written. *)
let absent : int array = Array.make page_len 0

type t = {
  pages : (int, int array) Hashtbl.t;
  mutable npages : int;
  tags : int array;
  lines : int array array;
}

let create () =
  { pages = Hashtbl.create 16; npages = 0;
    tags = Array.make cache_slots no_page_idx;
    lines = Array.make cache_slots absent }

(** Index of [addr]'s first metadata word within its page. *)
let[@inline] offset addr = (addr land (page_addrs - 1)) * Meta.words

let[@inline never] lookup_miss t s idx =
  match Hashtbl.find_opt t.pages idx with
  | Some p ->
    Array.unsafe_set t.tags s idx;
    Array.unsafe_set t.lines s p;
    p
  | None -> absent

(** The page holding [addr]'s metadata, or the shared all-zero page when
    none is mapped; read it at [offset addr]. Never allocates. *)
let page t addr =
  let idx = addr lsr page_bits in
  let s = idx land (cache_slots - 1) in
  if Array.unsafe_get t.tags s = idx then Array.unsafe_get t.lines s
  else lookup_miss t s idx

let set t addr ~lower ~upper ~tid ~kind =
  let p =
    let p = page t addr in
    if p != absent then p
    else begin
      let idx = addr lsr page_bits in
      let p = Array.make page_len 0 in
      Hashtbl.replace t.pages idx p;
      t.npages <- t.npages + 1;
      let s = idx land (cache_slots - 1) in
      Array.unsafe_set t.tags s idx;
      Array.unsafe_set t.lines s p;
      p
    end
  in
  let o = offset addr in
  Array.unsafe_set p (o + Meta.w_lower) lower;
  Array.unsafe_set p (o + Meta.w_upper) upper;
  Array.unsafe_set p (o + Meta.w_tid) tid;
  Array.unsafe_set p (o + Meta.w_kind) kind

(** Drop [addr]'s metadata; allocates nothing. *)
let clear_at t addr =
  let p = page t addr in
  if p != absent then Array.unsafe_set p (offset addr + Meta.w_kind) Meta.k_none

(** Pages allocated so far. *)
let pages_allocated t = t.npages
