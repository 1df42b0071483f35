(* Interpreter semantics tests: traps, diversion decoding, cost model
   behaviour and memory accounting — the parts not covered by the
   language-feature tests. *)

open Helpers
module M = Levee_machine
module P = Levee_core.Pipeline

let t name f = Alcotest.test_case name `Quick f

let check_trap ?protection ?input src pred name =
  match outcome_of ?protection ?input src with
  | M.Trap.Trapped tr when pred tr -> ()
  | o -> Alcotest.failf "%s: got %s" name (M.Trap.outcome_to_string o)

let test_div_by_zero () =
  check_trap "int main() { int z = 0; return 5 / z; }"
    (function M.Trap.Division_by_zero -> true | _ -> false)
    "div by zero";
  check_trap "int main() { int z = 0; return 5 % z; }"
    (function M.Trap.Division_by_zero -> true | _ -> false)
    "mod by zero"

let test_null_deref () =
  (match outcome_of "int main() { int *p = 0; return *p; }" with
   | M.Trap.Crash _ -> ()
   | o -> Alcotest.failf "null deref: %s" (M.Trap.outcome_to_string o));
  match outcome_of "int main() { int *p = 0; *p = 1; return 0; }" with
  | M.Trap.Crash _ -> ()
  | o -> Alcotest.failf "null write: %s" (M.Trap.outcome_to_string o)

let test_fuel () =
  let r = run ~fuel:1000 "int main() { while (1) { } return 0; }" in
  Alcotest.check outcome_testable "fuel" M.Trap.Fuel_exhausted r.M.Interp.outcome

let test_stack_overflow () =
  match
    outcome_of ~fuel:200_000_000
      {|int boom(int n) { int pad[2048]; pad[0] = n; return boom(n + 1) + pad[0]; }
        int main() { return boom(0); }|}
  with
  | M.Trap.Crash msg when Helpers.contains msg "stack" -> ()
  | o -> Alcotest.failf "stack overflow: %s" (M.Trap.outcome_to_string o)

let test_oom () =
  check_trap
    {|int main() {
        while (1) { int *p = (int*) malloc(65536); p[0] = 1; }
        return 0;
      }|}
    (function M.Trap.Out_of_memory -> true | _ -> false)
    "heap exhaustion"

let test_double_free_traps () =
  check_trap
    {|int main() { int *p = (int*) malloc(4); free(p); free(p); return 0; }|}
    (function M.Trap.Double_free -> true | _ -> false)
    "double free"

let test_use_after_free_cpi () =
  (* A dangling sensitive pointer dereference must be caught by CPI's
     temporal id; vanilla silently reads reused memory. *)
  let src = {|
int target(int x) { return x + 1; }
int other(int x) { return x + 2; }
int main() {
  int (**slot)(int);
  slot = (int (**)(int)) malloc(1);
  *slot = target;
  free((void*) slot);
  // reallocate the same block: same address, new object
  int (**slot2)(int) = (int (**)(int)) malloc(1);
  *slot2 = other;
  return (*slot)(1);   // use after free through the stale pointer
}
|}
  in
  (match outcome_of ~protection:P.Cpi src with
   | M.Trap.Trapped M.Trap.Temporal_violation -> ()
   | o -> Alcotest.failf "cpi UAF: %s" (M.Trap.outcome_to_string o));
  (* vanilla executes the *wrong* function without noticing *)
  match outcome_of ~protection:P.Vanilla src with
  | M.Trap.Exit 3 -> ()
  | o -> Alcotest.failf "vanilla UAF: %s" (M.Trap.outcome_to_string o)

let test_oob_read_is_silent_vanilla () =
  (* out-of-bounds reads of non-sensitive data are not CPI's business *)
  let src =
    {|int main() { int a[4]; int b[4]; a[0] = 0; b[0] = 9; return a[5] < 99; }|}
  in
  Alcotest.(check int) "vanilla" 1 (exit_code (run ~protection:P.Vanilla src));
  Alcotest.(check int) "cpi ignores non-sensitive oob" 1
    (exit_code (run ~protection:P.Cpi src));
  (* ... but full memory safety traps it *)
  match outcome_of ~protection:P.Softbound src with
  | M.Trap.Trapped (M.Trap.Bounds_violation _) -> ()
  | o -> Alcotest.failf "softbound oob: %s" (M.Trap.outcome_to_string o)

let test_debug_mode_mirror () =
  (* CPI debug mode keeps both copies; a benign program runs identically *)
  let src = {|
int inc(int x) { return x + 1; }
int main() {
  int (*f)(int) = inc;
  int (*g[2])(int);
  g[0] = f;
  return g[0](41);
}
|}
  in
  Alcotest.(check int) "debug mode" 42 (exit_code (run ~protection:P.Cpi_debug src))

let test_costs_monotone () =
  let src = Helpers.compile "int main() { int i; int s = 0; for (i = 0; i < 100; i = i + 1) { s = s + i; } checksum(s); return 0; }" in
  let cycles prot =
    let b = P.build prot src in
    (M.Interp.run_program b.P.prog b.P.config).M.Interp.cycles
  in
  let v = cycles P.Vanilla in
  Alcotest.(check bool) "positive" true (v > 0);
  Alcotest.(check bool) "softbound costs more" true (cycles P.Softbound > v)

let test_sfi_isolation_cost () =
  let prog = Helpers.compile
      "int main() { int a[64]; int i; for (i = 0; i < 64; i = i + 1) { a[i] = i; } return a[63] - 63; }"
  in
  let cycles isolation =
    let b = P.build ~isolation P.Cpi prog in
    (M.Interp.run_program b.P.prog b.P.config).M.Interp.cycles
  in
  let seg = cycles M.Config.Segments in
  let sfi = cycles M.Config.Sfi in
  Alcotest.(check bool) "SFI strictly more expensive" true (sfi > seg);
  (* the paper reports the SFI variant stays under ~5% extra *)
  Alcotest.(check bool) "SFI under 8%" true
    (float_of_int (sfi - seg) /. float_of_int seg < 0.08)

let test_store_impl_costs () =
  let prog =
    Helpers.compile
      {|int f1(int x) { return x + 1; }
        int (*tbl[4])(int) = { f1, f1, f1, f1 };
        int main() { int i; int s = 0;
          for (i = 0; i < 200; i = i + 1) { s = s + tbl[i & 3](i); }
          return s & 127; }|}
  in
  let cycles impl =
    let b = P.build ~store_impl:impl P.Cpi prog in
    (M.Interp.run_program b.P.prog b.P.config).M.Interp.cycles
  in
  Alcotest.(check bool) "array fastest, hashtable slowest" true
    (cycles M.Safestore.Simple_array < cycles M.Safestore.Hashtable)

let test_memory_accounting () =
  let prog = Helpers.compile
      {|int h(int x) { return x; }
        int (*fp)(int) = h;
        int main() { int i; int s = 0;
          for (i = 0; i < 10; i = i + 1) { s = s + fp(i); }
          return s & 1; }|}
  in
  let b = P.build P.Cpi prog in
  let r = M.Interp.run_program b.P.prog b.P.config in
  Alcotest.(check bool) "safe store used" true (r.M.Interp.store_footprint > 0);
  let bv = P.build P.Vanilla prog in
  let rv = M.Interp.run_program bv.P.prog bv.P.config in
  Alcotest.(check int) "vanilla store empty" 0 rv.M.Interp.store_footprint

let test_output_capture () =
  let out =
    output
      {|int main() { print_int(42); print_str("done"); print_int(-1); return 0; }|}
  in
  Alcotest.(check string) "stdout" "42\ndone\n-1\n" out

(* ---- concurrency: the deterministic multithreaded machine ---- *)

(** Like [Helpers.run] but with a scheduler seed. *)
let runc ?(protection = P.Vanilla) ?(sched_seed = 0) ?(fuel = 5_000_000) src =
  let built = P.build protection (Helpers.compile src) in
  M.Interp.run_program ~sched_seed ~fuel built.P.prog built.P.config

let check_crash ?protection ?sched_seed src sub name =
  let r = runc ?protection ?sched_seed src in
  match r.M.Interp.outcome with
  | M.Trap.Crash m when contains m sub -> ()
  | o -> Alcotest.failf "%s: got %s" name (M.Trap.outcome_to_string o)

(* Two workers bump a shared counter 50 times each. With the mutex the
   final count is exactly 100 under every protection and seed; without it
   the lockset detector must report the race. *)
let counter_src ~locked =
  let lock, unlock =
    if locked then "mutex_lock(&lk);", "mutex_unlock(&lk);" else "", ""
  in
  Printf.sprintf
    {|int n; int lk;
      int worker(int w) {
        int i;
        for (i = 0; i < 50; i = i + 1) { %s n = n + 1; %s }
        return w;
      }
      int main() {
        int t1 = thread_spawn(worker, 11);
        int t2 = thread_spawn(worker, 21);
        int a = thread_join(t1);
        int b = thread_join(t2);
        print_int(n);
        return a + b + n;
      }|}
    lock unlock

let test_locked_counter () =
  List.iter
    (fun protection ->
       List.iter
         (fun sched_seed ->
            let r = runc ~protection ~sched_seed (counter_src ~locked:true) in
            Alcotest.(check int) "exit 132" 132 (exit_code r);
            Alcotest.(check string) "count" "100\n" r.M.Interp.output;
            Alcotest.(check int) "no races" 0 r.M.Interp.races;
            Alcotest.(check int) "three threads" 3 r.M.Interp.threads;
            Alcotest.(check bool) "preempted" true
              (r.M.Interp.ctx_switches > 0))
         [ 0; 1; 7 ])
    [ P.Vanilla; P.Cpi ]

let test_unlocked_counter_races () =
  let r = runc (counter_src ~locked:false) in
  (match r.M.Interp.outcome with
   | M.Trap.Exit _ -> ()
   | o -> Alcotest.failf "racy run: %s" (M.Trap.outcome_to_string o));
  Alcotest.(check bool) "race reported" true (r.M.Interp.races > 0);
  Alcotest.(check bool) "report describes shared data" true
    (List.exists (fun s -> contains s "shared-data") r.M.Interp.race_reports)

let test_atomic_add () =
  let src =
    {|int n;
      int worker(int w) {
        int i;
        for (i = 0; i < 50; i = i + 1) { atomic_add(&n, 1); }
        return w;
      }
      int main() {
        int t1 = thread_spawn(worker, 1);
        int t2 = thread_spawn(worker, 2);
        int a = thread_join(t1) + thread_join(t2);
        return n + a;
      }|}
  in
  List.iter
    (fun sched_seed ->
       let r = runc ~sched_seed src in
       Alcotest.(check int) "exact count" 103 (exit_code r);
       Alcotest.(check int) "atomics race-free" 0 r.M.Interp.races)
    [ 0; 3 ]

(* Same seed: byte-identical results. Different seed: same final state
   for a race-free program, but a different interleaving (cycles). *)
let test_sched_determinism () =
  let run seed = runc ~sched_seed:seed (counter_src ~locked:true) in
  let a = run 5 and b = run 5 and c = run 6 in
  Alcotest.(check bool) "same seed identical" true (a = b);
  Alcotest.(check int) "exit stable across seeds" (exit_code a) (exit_code c);
  Alcotest.(check string) "output stable across seeds"
    a.M.Interp.output c.M.Interp.output

let test_deadlock () =
  check_crash
    {|int lk;
      int worker(int w) { mutex_lock(&lk); return w; }
      int main() {
        mutex_lock(&lk);
        int t = thread_spawn(worker, 1);
        return thread_join(t);
      }|}
    "deadlock" "join vs held mutex"

let test_mutex_misuse () =
  check_crash
    "int lk; int main() { mutex_lock(&lk); mutex_lock(&lk); return 0; }"
    "recursive" "recursive lock";
  check_crash "int lk; int main() { mutex_unlock(&lk); return 0; }"
    "not the owner" "unlock unheld"

let test_thread_errors () =
  check_crash "int main() { return thread_join(3); }"
    "invalid thread id" "join of unspawned id";
  check_crash
    {|int worker(int w) {
        int i;
        for (i = 0; i < 1000; i = i + 1) { }
        return w;
      }
      int main() {
        int i;
        for (i = 0; i < 8; i = i + 1) { thread_spawn(worker, i); }
        return 0;
      }|}
    "thread limit" "spawn past the table"

(* thread_spawn through a function-pointer variable: under CPI the target
   must carry code metadata, so a spawned-to pointer is covered by the
   same integrity guarantee as a call. *)
let test_spawn_via_fptr () =
  let src =
    {|int f(int x) { return x + 41; }
      int (*fp)(int) = f;
      int main() {
        int t = thread_spawn(fp, 1);
        return thread_join(t);
      }|}
  in
  Alcotest.(check int) "vanilla" 42 (exit_code (runc src));
  Alcotest.(check int) "cpi" 42 (exit_code (runc ~protection:P.Cpi src))

(* The concurrent webstack workload is race-free and commutative by
   construction: every seed and protection must agree on checksum and
   output, and its thread count and preemptions must show up in the
   result. *)
let test_concurrent_workload () =
  let module W = Levee_workloads in
  let w = W.Webstack.concurrent ~threads:4 in
  let prog = W.Workload.compile w in
  let run protection sched_seed =
    let b = P.build protection prog in
    M.Interp.run_program ~sched_seed ~fuel:w.W.Workload.fuel
      b.P.prog b.P.config
  in
  let r0 = run P.Cpi 0 in
  Alcotest.(check int) "exit 0" 0 (exit_code r0);
  Alcotest.(check int) "threads" 5 r0.M.Interp.threads;
  Alcotest.(check bool) "preempted" true (r0.M.Interp.ctx_switches > 0);
  Alcotest.(check int) "race-free" 0 r0.M.Interp.races;
  let r1 = run P.Cpi 9 and rv = run P.Vanilla 0 in
  Alcotest.(check int) "checksum seed-independent"
    r0.M.Interp.checksum r1.M.Interp.checksum;
  Alcotest.(check string) "output seed-independent"
    r0.M.Interp.output r1.M.Interp.output;
  Alcotest.(check int) "checksum protection-independent"
    r0.M.Interp.checksum rv.M.Interp.checksum

(* ---------- Allocation guard ---------- *)

(* The hot path — straight-line code, GEPs, calls and returns, safe-stack
   slots — allocates nothing per simulated instruction: registers carry
   unboxed metadata and frames are pooled. A re-boxed register file or a
   per-call allocation costs several minor words per instruction and
   trips this bound; the run is fuel-capped, so machine set-up is a small
   constant against 200k instructions. *)
let call_heavy_src =
  {|int add3(int a, int b, int *c) { return a + b + *c; }
    int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
    int main() {
      int k = 1; int acc = 0; int i = 0;
      while (1) { acc = acc + add3(i, acc, &k) + fib(8); i = i + 1; }
      return acc;
    }|}

let gep_heavy_src =
  {|struct cell { int a; int b[4]; struct cell *next; };
    int main() {
      struct cell *cs = (struct cell *) malloc(sizeof(struct cell) * 32);
      struct cell local[4];
      int i = 0; int s = 0;
      while (1) {
        for (i = 0; i < 32; i = i + 1) {
          cs[i].b[i % 4] = i;
          cs[i].next = &cs[(i + 1) % 32];
          local[i % 4].a = s;
          s = s + cs[i].next->b[(i + 3) % 4] + local[(i + 1) % 4].a % 7;
        }
      }
      return s;
    }|}

let test_alloc_guard () =
  let fuel = 200_000 in
  List.iter
    (fun (name, src) ->
      let prog = compile src in
      List.iter
        (fun protection ->
          let b = P.build protection prog in
          let image = M.Loader.load b.P.prog b.P.config in
          let w0 = Gc.minor_words () in
          let r = M.Interp.run ~fuel image in
          let words = Gc.minor_words () -. w0 in
          let label = name ^ "/" ^ P.protection_name protection in
          Alcotest.check outcome_testable (label ^ " runs to the cap")
            M.Trap.Fuel_exhausted r.M.Interp.outcome;
          let per_instr = words /. float_of_int r.M.Interp.instrs in
          if per_instr >= 0.5 then
            Alcotest.failf "%s: %.3f minor words per instruction (bound 0.5)"
              label per_instr)
        [ P.Vanilla; P.Cpi ])
    [ ("call-heavy", call_heavy_src); ("gep-heavy", gep_heavy_src) ]

(* ---------- Frame reuse ---------- *)

(* Frames are pooled per call depth, so a callee runs in the register file
   an earlier callee at the same depth left behind. Every register it has
   not written yet must read 0 with no metadata, whatever that earlier
   callee held there. [fill] leaves every one of its registers holding a
   pointer to its local array, with that array's bounds; [fill] returns
   the array's address as a plain integer (a multiply drops the
   metadata). *)
module B = Levee_ir.Builder
module I = Levee_ir.Instr
module Ty = Levee_ir.Ty

let fill_func () =
  let b = B.create ~name:"fill" ~params:[] ~ret_ty:Ty.Int in
  let base = B.alloca b (Ty.Arr (Ty.Int, 8)) in
  for _ = 1 to 24 do
    ignore (B.cast b I.Bitcast (Ty.Ptr Ty.Int) (I.Reg base))
  done;
  let plain = B.bin b I.Mul (I.Reg base) (I.Imm 1) in
  B.set_term b (I.Ret (Some (I.Reg plain)));
  B.finish b

(* [main] calls [fill], then [probe] with fill's result at the same depth,
   and exits with probe's result. *)
let reuse_prog probe =
  let p = Levee_ir.Prog.create () in
  Levee_ir.Prog.add_func p (fill_func ());
  Levee_ir.Prog.add_func p probe;
  let b = B.create ~name:"main" ~params:[] ~ret_ty:Ty.Int in
  let addr =
    Option.get (B.call b ~ret_ty:Ty.Int (I.Direct "fill") [])
  in
  let r =
    Option.get
      (B.call b ~ret_ty:Ty.Int (I.Direct probe.Levee_ir.Prog.fname)
         [ I.Reg addr ])
  in
  B.set_term b (I.Ret (Some (I.Reg r)));
  Levee_ir.Prog.add_func p (B.finish b);
  p

let test_frame_reuse_zeroes_registers () =
  (* probe(addr) returns a register it never writes. *)
  let b = B.create ~name:"probe" ~params:[ ("addr", Ty.Int) ] ~ret_ty:Ty.Int in
  let never = B.fresh_reg ~ty:Ty.Int b in
  B.set_term b (I.Ret (Some (I.Reg never)));
  let prog = reuse_prog (B.finish b) in
  let r = M.Interp.run_program prog M.Config.vanilla in
  Alcotest.(check int) "never-written register reads 0" 0 (exit_code r)

let test_frame_reuse_drops_metadata () =
  (* probe(addr) dereferences never + addr through a checked load. With
     fill's metadata left stale in [never], the address would lie inside
     the stale bounds and the check would pass. *)
  let b = B.create ~name:"probe" ~params:[ ("addr", Ty.Int) ] ~ret_ty:Ty.Int in
  let never = B.fresh_reg ~ty:(Ty.Ptr Ty.Int) b in
  let p = B.bin b I.Add (I.Reg never) (I.Reg (B.param_reg b 0)) in
  let v = B.fresh_reg ~ty:Ty.Int b in
  B.emit b
    (I.Load { dst = v; ty = Ty.Int; addr = I.Reg p; where = I.Regular;
              checked = true });
  B.set_term b (I.Ret (Some (I.Reg v)));
  let prog = reuse_prog (B.finish b) in
  List.iter
    (fun cfg ->
      match (M.Interp.run_program prog cfg).M.Interp.outcome with
      | M.Trap.Trapped (M.Trap.Missing_metadata _) -> ()
      | o ->
        Alcotest.failf "%s: expected a missing-metadata trap, got %s"
          cfg.M.Config.name (M.Trap.outcome_to_string o))
    [ M.Config.vanilla; M.Config.cpi () ]

let test_diverted_entry_at_reused_depth () =
  (* main calls fill, then makes an indirect call to the second
     instruction of [gadget]: the machine diverts into a fresh frame at
     fill's depth. [gadget]'s first instruction, which would set r0, never
     runs, so r0 must read 0; returning through the exit sentinel ends the
     program with it. *)
  let p = Levee_ir.Prog.create () in
  Levee_ir.Prog.add_func p (fill_func ());
  let g = B.create ~name:"gadget" ~params:[] ~ret_ty:Ty.Int in
  let r0 = B.bin g I.Add (I.Imm 7) (I.Imm 0) in
  ignore (B.bin g I.Add (I.Imm 9) (I.Imm 0));
  B.set_term g (I.Ret (Some (I.Reg r0)));
  Levee_ir.Prog.add_func p (B.finish g);
  let b = B.create ~name:"main" ~params:[] ~ret_ty:Ty.Int in
  ignore (B.call b ~ret_ty:Ty.Int (I.Direct "fill") []);
  let target = Option.get (B.intrin b ~dst_ty:Ty.Int I.I_read_int []) in
  let r =
    Option.get
      (B.call b ~fty:(Ty.Fn ([], Ty.Int)) ~ret_ty:Ty.Int
         (I.Indirect (I.Reg target)) [])
  in
  B.set_term b (I.Ret (Some (I.Reg r)));
  Levee_ir.Prog.add_func p (B.finish b);
  let image = M.Loader.load p M.Config.vanilla in
  let mid = M.Loader.point_addr image "gadget" 0 1 in
  let r = M.Interp.run ~input:[| mid |] image in
  Alcotest.(check int) "gadget sees zeroed registers" 0 (exit_code r)

let () =
  Alcotest.run "interp"
    [ ("traps",
       [ t "division by zero" test_div_by_zero;
         t "null dereference" test_null_deref;
         t "fuel exhaustion" test_fuel;
         t "stack overflow" test_stack_overflow;
         t "heap exhaustion" test_oom;
         t "double free" test_double_free_traps ]);
      ("memory safety semantics",
       [ t "use-after-free under CPI" test_use_after_free_cpi;
         t "non-sensitive OOB ignored by CPI" test_oob_read_is_silent_vanilla;
         t "debug mode mirrors" test_debug_mode_mirror ]);
      ("cost model",
       [ t "monotone" test_costs_monotone;
         t "SFI isolation cost" test_sfi_isolation_cost;
         t "store organisations" test_store_impl_costs;
         t "memory accounting" test_memory_accounting ]);
      ("io", [ t "output capture" test_output_capture ]);
      ("threads",
       [ t "locked counter" test_locked_counter;
         t "unlocked counter races" test_unlocked_counter_races;
         t "atomic add" test_atomic_add;
         t "scheduler determinism" test_sched_determinism;
         t "deadlock detection" test_deadlock;
         t "mutex misuse" test_mutex_misuse;
         t "thread errors" test_thread_errors;
         t "spawn via function pointer" test_spawn_via_fptr;
         t "concurrent workload" test_concurrent_workload ]);
      ("hot path",
       [ t "allocation guard" test_alloc_guard;
         t "frame reuse zeroes registers" test_frame_reuse_zeroes_registers;
         t "frame reuse drops metadata" test_frame_reuse_drops_metadata;
         t "diverted entry at a reused depth"
           test_diverted_entry_at_reused_depth ]) ]
