(* Unit tests for Rng: the streams are pinned to golden values (every
   seeded workload, fault plan, schedule and serve cell depends on them),
   [int]/[range] allocate nothing, and split streams are deterministic
   (functions of the parent seed and split order alone) and pairwise
   disjoint over a sensible prefix, so per-thread/per-task streams never
   alias each other or the parent. *)

module Rng = Levee_support.Rng

let take n rng = List.init n (fun _ -> Rng.next_int64 rng)

(* ---------- golden streams ---------- *)

let test_golden_next_int64 () =
  List.iter
    (fun (seed, want) ->
      Alcotest.(check (list int64))
        (Printf.sprintf "seed %d: first 8 outputs" seed)
        want (take 8 (Rng.create seed)))
    [ ( 0,
        [ -2152535657050944081L; 7960286522194355700L; 487617019471545679L;
          -537132696929009172L; 1961750202426094747L; 6038094601263162090L;
          3207296026000306913L; -4214222208109204676L ] );
      ( 1,
        [ -7995527694508729151L; -4689498862643123097L; -534904783426661026L;
          8196980753821780235L; 8195237237126968761L; -4373826470845021568L;
          -2262517385565684571L; -8797857673641491083L ] );
      ( -7,
        [ 7790691224305936752L; 8829294814793142954L; -1715519743840680431L;
          2940488688193949890L; -8007545441867040463L; -3543770807805850555L;
          -8289486925083420040L; 122917513933346363L ] );
      ( max_int,
        [ 4890637089070741670L; 1157452369933151741L; -643383930175548127L;
          7976771587059178518L; -5092280845031213240L; -2271687024784822601L;
          -4834145098101050242L; 571570269043650935L ] ) ]

let test_golden_bounded () =
  (* [range lo hi] spans [hi - lo + 1 = bound] values, so each range row
     is the int row shifted by lo = -3 *)
  List.iter
    (fun (bound, want) ->
      let r = Rng.create 42 in
      Alcotest.(check (list int))
        (Printf.sprintf "int bound %d" bound)
        want (List.init 8 (fun _ -> Rng.int r bound));
      let r = Rng.create 42 in
      Alcotest.(check (list int))
        (Printf.sprintf "range -3..%d" (bound - 4))
        (List.map (fun v -> v - 3) want)
        (List.init 8 (fun _ -> Rng.range r (-3) (bound - 4))))
    [ (1, [ 0; 0; 0; 0; 0; 0; 0; 0 ]);
      (3, [ 2; 1; 2; 2; 1; 0; 1; 2 ]);
      (1000, [ 605; 291; 954; 860; 250; 350; 925; 196 ]);
      ( max_int,
        [ 4456085495900499605; 2949826092126892291; 527597730035375954;
          1737512041830867860; 701532786141963250; 2180923070380825350;
          4028864712777624925; 933993271705612196 ] ) ]

let test_golden_split () =
  let p = Rng.create 42 in
  let c = Rng.split p in
  Alcotest.(check (list int64)) "split child: first 8 outputs"
    [ 6332618229526065668L; -816328817471504299L; 8971565426155258802L;
      1242533817266198696L; -5959852680200513735L; 1245346008178237623L;
      3603600226484403572L; -4893543810735773810L ]
    (take 8 c);
  Alcotest.(check (list int64)) "parent after one split"
    [ 2949826092126892291L; 5139283748462763858L; 6349198060258255764L;
      701532786141963250L ]
    (take 4 p)

let test_int_allocates_nothing () =
  let r = Rng.create 5 in
  let calls = 100_000 in
  let before = Gc.minor_words () in
  let acc = ref 0 in
  for i = 1 to calls do
    acc := !acc + Rng.int r 1000 + Rng.range r 0 i
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words over %d int+range calls (sum %d)"
       words (2 * calls) !acc)
    true
    (words < 0.5 *. float (2 * calls))

(* ---------- split ---------- *)

let test_split_deterministic () =
  let a = Rng.create 42 in
  let b = Rng.create 42 in
  let a1 = Rng.split a and b1 = Rng.split b in
  let a2 = Rng.split a and b2 = Rng.split b in
  Alcotest.(check (list int64))
    "first split stream reproducible" (take 32 a1) (take 32 b1);
  Alcotest.(check (list int64))
    "second split stream reproducible" (take 32 a2) (take 32 b2);
  Alcotest.(check (list int64))
    "parent stream reproducible after splits" (take 32 a) (take 32 b)

let test_split_disjoint () =
  let parent = Rng.create 7 in
  let children = List.init 8 (fun _ -> Rng.split parent) in
  let streams = List.map (take 64) (parent :: children) in
  let seen = Hashtbl.create 1024 in
  List.iteri
    (fun i s ->
      List.iter
        (fun v ->
          (match Hashtbl.find_opt seen v with
           | Some j ->
             Alcotest.failf "streams %d and %d share output %Ld" j i v
           | None -> ());
          Hashtbl.replace seen v i)
        s)
    streams

let test_split_differs_by_order () =
  (* The nth split of a parent differs from the (n+1)th: split order is
     part of the stream identity. *)
  let p = Rng.create 99 in
  let c1 = Rng.split p in
  let c2 = Rng.split p in
  Alcotest.(check bool)
    "sibling streams differ" false
    (take 16 c1 = take 16 c2)

let () =
  Alcotest.run "rng"
    [ ( "golden",
        [ Alcotest.test_case "next_int64 streams" `Quick test_golden_next_int64;
          Alcotest.test_case "int and range draws" `Quick test_golden_bounded;
          Alcotest.test_case "split child" `Quick test_golden_split;
          Alcotest.test_case "int allocates nothing" `Quick
            test_int_allocates_nothing ] );
      ( "split",
        [ Alcotest.test_case "deterministic" `Quick test_split_deterministic;
          Alcotest.test_case "disjoint" `Quick test_split_disjoint;
          Alcotest.test_case "order-sensitive" `Quick test_split_differs_by_order
        ] )
    ]
