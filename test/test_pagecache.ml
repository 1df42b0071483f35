(* Unit tests for the page caches that front the paged memory (a
   multi-slot direct-mapped cache), the safe-stack metadata shadow and the
   array/two-level safe-store backends (one-entry caches).

   The caches are pure host-side accelerators: they must never change what
   a read returns, never make an unmapped read allocate a page, and must
   be invalidated by [clear] / [reset]. The tests drive exactly the access
   patterns the cache could get wrong: hit-after-miss, interleaving across
   page boundaries and within one cache slot (each access evicts the other
   page's cache line), and reuse of a cleared store. *)

module M = Levee_machine
module L = M.Layout

let page_words = M.Mem.page_words

(* The first page-aligned address at or after [from] whose page maps to
   cache slot [slot]. *)
let page_in_slot ~from slot =
  let rec go a = if M.Mem.slot_of a = slot then a else go (a + page_words) in
  go (from land lnot (page_words - 1))

(* ---------- Mem ---------- *)

let test_mem_hit_after_miss () =
  let m = M.Mem.create () in
  let a = 0x0100_0000 in
  M.Mem.write m a 42;
  Alcotest.(check int) "read back (cached)" 42 (M.Mem.read m a);
  Alcotest.(check int) "neighbour on same page" 0 (M.Mem.read m (a + 1));
  M.Mem.write m (a + 1) 7;
  Alcotest.(check int) "second write same page" 7 (M.Mem.read m (a + 1));
  Alcotest.(check int) "first value survives" 42 (M.Mem.read m a)

let test_mem_unmapped_reads_free () =
  let m = M.Mem.create () in
  Alcotest.(check int) "unmapped reads as 0" 0 (M.Mem.read m 0x0200_0000);
  Alcotest.(check int) "no page allocated by a read" 0
    (M.Mem.footprint_words m);
  (* A read miss must not populate the cache with a phantom page either:
     the next write to the same page has to allocate for real. *)
  M.Mem.write m 0x0200_0000 1;
  Alcotest.(check int) "write after read-miss allocates one page" page_words
    (M.Mem.footprint_words m);
  Alcotest.(check int) "and the value sticks" 1 (M.Mem.read m 0x0200_0000)

let test_mem_cross_page_interleaving () =
  let m = M.Mem.create () in
  let a = 0x0100_0000 and b = 0x0100_0000 + (4 * page_words) in
  (* Alternate between two pages; values must never leak across. *)
  for i = 0 to 63 do
    M.Mem.write m (a + i) (1000 + i);
    M.Mem.write m (b + i) (2000 + i)
  done;
  for i = 0 to 63 do
    Alcotest.(check int) "page A value" (1000 + i) (M.Mem.read m (a + i));
    Alcotest.(check int) "page B value" (2000 + i) (M.Mem.read m (b + i))
  done

let test_mem_clear_invalidates () =
  let m = M.Mem.create () in
  let a = 0x0100_0000 in
  M.Mem.write m a 42;
  Alcotest.(check int) "cached read" 42 (M.Mem.read m a);
  M.Mem.clear m;
  (* A stale cache line here would return 42 from the dropped page. *)
  Alcotest.(check int) "cleared memory reads 0" 0 (M.Mem.read m a);
  Alcotest.(check int) "clear drops the footprint" 0 (M.Mem.footprint_words m);
  M.Mem.write m a 9;
  Alcotest.(check int) "memory is reusable after clear" 9 (M.Mem.read m a)

let test_mem_slot_collisions () =
  let m = M.Mem.create () in
  let a = L.heap_base in
  let b = page_in_slot ~from:(a + page_words) (M.Mem.slot_of a) in
  Alcotest.(check int) "same slot" (M.Mem.slot_of a) (M.Mem.slot_of b);
  for i = 0 to 63 do
    M.Mem.write m (a + i) (1000 + i);
    M.Mem.write m (b + i) (2000 + i)
  done;
  for i = 0 to 63 do
    Alcotest.(check int) "colliding page A" (1000 + i) (M.Mem.read m (a + i));
    Alcotest.(check int) "colliding page B" (2000 + i) (M.Mem.read m (b + i))
  done

(* The pages the hot loop alternates between — the top pages of the
   regular and safe stacks, the first heap and globals pages — each get a
   slot of their own, with and without the ASLR slide. *)
let test_mem_hot_pages_separate () =
  List.iter
    (fun slide ->
      let hot =
        [ ("stack top", L.stack_top - 1); ("safe stack top", L.safe_stack_top - 1);
          ("heap", L.heap_base); ("globals", L.globals_base) ]
      in
      let slots =
        List.map (fun (name, a) -> (name, M.Mem.slot_of (a + slide))) hot
      in
      List.iter
        (fun (n1, s1) ->
          List.iter
            (fun (n2, s2) ->
              if n1 < n2 && s1 = s2 then
                Alcotest.failf "slide %#x: %s and %s share slot %d" slide n1
                  n2 s1)
            slots)
        slots)
    [ 0; L.aslr_slide ]

let test_mem_miss_after_eviction () =
  let m = M.Mem.create () in
  let a = L.heap_base in
  let b = page_in_slot ~from:(a + page_words) (M.Mem.slot_of a) in
  M.Mem.write m a 5;
  let fp = M.Mem.footprint_words m in
  (* [b] shares [a]'s slot and is unmapped: the miss neither allocates nor
     caches a phantom page, and [a] is still readable afterwards. *)
  Alcotest.(check int) "unmapped colliding page reads 0" 0 (M.Mem.read m b);
  Alcotest.(check int) "miss allocates no page" fp (M.Mem.footprint_words m);
  Alcotest.(check int) "evicted page reads back" 5 (M.Mem.read m a);
  M.Mem.write m b 6;
  Alcotest.(check int) "write after the miss allocates" (fp + page_words)
    (M.Mem.footprint_words m);
  Alcotest.(check int) "and sticks" 6 (M.Mem.read m b)

let test_mem_clear_every_slot () =
  let m = M.Mem.create () in
  let pages =
    List.init M.Mem.cache_slots (fun s -> page_in_slot ~from:L.heap_base s)
  in
  List.iteri (fun i a -> M.Mem.write m a (i + 1)) pages;
  List.iteri
    (fun i a -> Alcotest.(check int) "cached before clear" (i + 1) (M.Mem.read m a))
    pages;
  M.Mem.clear m;
  List.iter
    (fun a -> Alcotest.(check int) "every slot invalidated" 0 (M.Mem.read m a))
    pages;
  Alcotest.(check int) "no pages left" 0 (M.Mem.footprint_words m)

(* ---------- Shadow ---------- *)

let shadow_meta sh addr =
  let p = M.Shadow.page sh addr and o = M.Shadow.offset addr in
  ( p.(o + M.Meta.w_lower), p.(o + M.Meta.w_upper), p.(o + M.Meta.w_tid),
    p.(o + M.Meta.w_kind) )

let test_shadow_store_load () =
  let sh = M.Shadow.create () in
  let a = L.safe_stack_top - 3 in
  M.Shadow.set sh a ~lower:100 ~upper:108 ~tid:4 ~kind:M.Meta.k_data;
  Alcotest.(check (list int)) "metadata reads back" [ 100; 108; 4; M.Meta.k_data ]
    (let l, u, t, k = shadow_meta sh a in [ l; u; t; k ]);
  let _, _, _, k = shadow_meta sh (a + 1) in
  Alcotest.(check int) "neighbour has none" M.Meta.k_none k;
  M.Shadow.clear_at sh a;
  let _, _, _, k = shadow_meta sh a in
  Alcotest.(check int) "store without metadata clears it" M.Meta.k_none k

let test_shadow_absent_and_free () =
  let sh = M.Shadow.create () in
  let a = L.safe_stack_top - 3 in
  let _, _, _, k = shadow_meta sh a in
  Alcotest.(check int) "absent entry reads none" M.Meta.k_none k;
  Alcotest.(check int) "read allocates no page" 0 (M.Shadow.pages_allocated sh);
  M.Shadow.clear_at sh a;
  Alcotest.(check int) "metadata-free store allocates no page" 0
    (M.Shadow.pages_allocated sh);
  M.Shadow.set sh a ~lower:1 ~upper:2 ~tid:0 ~kind:M.Meta.k_code;
  Alcotest.(check int) "store with metadata allocates one page" 1
    (M.Shadow.pages_allocated sh);
  let far = a - (1 lsl 16) in
  let _, _, _, k = shadow_meta sh far in
  Alcotest.(check int) "other pages still read none" M.Meta.k_none k;
  let _, _, _, k = shadow_meta sh a in
  Alcotest.(check int) "and the mapped one survives" M.Meta.k_code k

(* ---------- Safestore ---------- *)

let impls =
  [ M.Safestore.Simple_array; M.Safestore.Two_level; M.Safestore.Hashtable;
    M.Safestore.Mpx ]

let entry v =
  { M.Safestore.value = v; lower = v; upper = v + 8; tid = 0;
    kind = M.Safestore.Data }

let check_entry what expected actual =
  match (expected, actual) with
  | None, None -> ()
  | Some v, Some e -> Alcotest.(check int) what v e.M.Safestore.value
  | Some _, None -> Alcotest.failf "%s: expected an entry, got None" what
  | None, Some e ->
    Alcotest.failf "%s: expected None, got value %d" what e.M.Safestore.value

let each_impl f =
  List.iter (fun impl -> f (M.Safestore.impl_name impl) impl) impls

let test_store_set_get_clear () =
  each_impl (fun name impl ->
      let s = M.Safestore.create impl in
      let a = 0x0100_0000 in
      M.Safestore.set s a (entry 11);
      check_entry (name ^ ": get after set") (Some 11) (M.Safestore.get s a);
      check_entry (name ^ ": cached re-get") (Some 11) (M.Safestore.get s a);
      M.Safestore.clear_at s a;
      check_entry (name ^ ": get after clear_at") None (M.Safestore.get s a);
      check_entry (name ^ ": empty neighbour") None
        (M.Safestore.get s (a + 1)))

let test_store_cross_page_interleaving () =
  each_impl (fun name impl ->
      let s = M.Safestore.create impl in
      let a = 0x0100_0000 and b = 0x0100_0000 + (4 * page_words) in
      for i = 0 to 31 do
        M.Safestore.set s (a + i) (entry (1000 + i));
        M.Safestore.set s (b + i) (entry (2000 + i))
      done;
      for i = 0 to 31 do
        check_entry (name ^ ": page A entry") (Some (1000 + i))
          (M.Safestore.get s (a + i));
        check_entry (name ^ ": page B entry") (Some (2000 + i))
          (M.Safestore.get s (b + i))
      done)

let test_store_reset_invalidates () =
  each_impl (fun name impl ->
      let s = M.Safestore.create impl in
      let a = 0x0100_0000 in
      M.Safestore.set s a (entry 11);
      check_entry (name ^ ": populated") (Some 11) (M.Safestore.get s a);
      M.Safestore.reset s;
      Alcotest.(check int)
        (name ^ ": reset zeroes the access counter")
        0 (M.Safestore.access_count s);
      check_entry (name ^ ": reset drops entries") None (M.Safestore.get s a);
      Alcotest.(check int)
        (name ^ ": reset drops live entries")
        0 (M.Safestore.entry_count s);
      (* A stale backend page cache after reset would resurrect the old
         entry or write through to a dropped leaf. *)
      M.Safestore.set s a (entry 21);
      check_entry (name ^ ": store is reusable after reset") (Some 21)
        (M.Safestore.get s a))

let test_store_get_miss_allocates_nothing () =
  each_impl (fun name impl ->
      let s = M.Safestore.create impl in
      let base = M.Safestore.footprint_words s in
      check_entry (name ^ ": miss on empty store") None
        (M.Safestore.get s 0x0300_0000);
      Alcotest.(check int)
        (name ^ ": read miss does not grow the footprint")
        base
        (M.Safestore.footprint_words s))

let () =
  Alcotest.run "pagecache"
    [ ( "mem",
        [ Alcotest.test_case "hit after miss" `Quick test_mem_hit_after_miss;
          Alcotest.test_case "unmapped reads allocate nothing" `Quick
            test_mem_unmapped_reads_free;
          Alcotest.test_case "cross-page interleaving" `Quick
            test_mem_cross_page_interleaving;
          Alcotest.test_case "clear invalidates the cache" `Quick
            test_mem_clear_invalidates;
          Alcotest.test_case "pages colliding in one slot" `Quick
            test_mem_slot_collisions;
          Alcotest.test_case "hot pages use separate slots" `Quick
            test_mem_hot_pages_separate;
          Alcotest.test_case "read miss after eviction allocates nothing"
            `Quick test_mem_miss_after_eviction;
          Alcotest.test_case "clear invalidates every slot" `Quick
            test_mem_clear_every_slot ] );
      ( "shadow",
        [ Alcotest.test_case "store and load" `Quick test_shadow_store_load;
          Alcotest.test_case "absent entries and metadata-free stores"
            `Quick test_shadow_absent_and_free ] );
      ( "safestore",
        [ Alcotest.test_case "set/get/clear_at" `Quick
            test_store_set_get_clear;
          Alcotest.test_case "cross-page interleaving" `Quick
            test_store_cross_page_interleaving;
          Alcotest.test_case "reset invalidates the cache" `Quick
            test_store_reset_invalidates;
          Alcotest.test_case "get miss allocates nothing" `Quick
            test_store_get_miss_allocates_nothing ] ) ]
