(* Resilient-server campaign driver (see serve.mli).

   Layer 1 (machine): calibrate per-class service cycles and probe the
   real interpreter under hijack/degradation fault plans.
   Layer 2 (simulation): a deterministic discrete-event simulation of the
   same server shape — open-loop arrivals, bounded queue, deadlines,
   retries with seeded backoff, per-shard circuit breakers, injected
   kills and stalls — scaled to ~10^6 requests per cell.

   Nothing here reads a clock or iterates a hash table whose order could
   vary: cells are integrated in pool-submission order and every metric
   is in simulated cycles, so the whole report is a pure function of the
   config. *)

module P = Levee_core.Pipeline
module M = Levee_machine
module A = Levee_attacks
module W = Levee_workloads
module Pool = Levee_support.Pool
module J = Levee_support.Jsonenc
module Rng = Levee_support.Rng
module Runstore = Levee_support.Runstore

let schema_id = "levee-serve/1"

type config = {
  workers : int;
  shards : int;
  requests : int;
  protections : P.protection list;
  seeds : int list;
  faulted : bool;
}

let default =
  (* The spectrum members ride along after the paper's own columns: the
     handler-overwrite probe is cross-signature (backdoor is int(), the
     handlers are int(int)), so cfi-type refuses it and cpi-crypt garbles
     it — both must stay un-hijacked even mid-degradation. *)
  { workers = 4; shards = 4; requests = 1_000_000;
    protections = [ P.Vanilla; P.Safe_stack; P.Cpi; P.Cfi_type; P.Cpi_crypt ];
    seeds = [ 0; 1 ]; faulted = true }

let smoke = { default with requests = 12_000 }

let validate c =
  W.Webstack.check_workers ~flag:"--workers" c.workers;
  if c.shards < 1 || c.shards > W.Webstack.max_shards then
    invalid_arg (Printf.sprintf "--shards must be in 1..%d" W.Webstack.max_shards);
  if c.requests < 1 then invalid_arg "--requests must be positive";
  if c.seeds = [] then invalid_arg "serve: need at least one seed"

type probe = {
  p_plan : string;
  p_class : string;
  p_outcome : string;
  p_cycles : int;
  p_checksum : int;
}

type cell = {
  c_protection : P.protection;
  c_seed : int;
  c_svc : int array;
  c_probes : probe list;
  c_arrivals : int;
  c_served : int;
  c_shed : int;
  c_timed_out : int;
  c_retried : int;
  c_killed : int;
  c_trips : int;
  c_p50 : int;
  c_p99 : int;
  c_p999 : int;
  c_max : int;
  c_hist : (int * int) list;
}

type report = { rep_config : config; rep_cells : cell list }

(* ---------- layer 1: calibration + probes on the real machine ---------- *)

let image prot prog =
  let b = P.build ~store_impl:M.Safestore.Simple_array prot prog in
  M.Loader.load b.P.prog b.P.config

(* Marginal service cycles per request class: two single-threaded runs at
   different request counts cancel out startup cost. Single-threaded runs
   never consult the scheduler, so this is seed-independent. *)
let calib_r1 = 60
let calib_r2 = 180

let calibrate cfg prot =
  Array.init 3 (fun cls ->
      let run n =
        let w =
          W.Webstack.server ~threads:1 ~shards:cfg.shards ~cls ~requests:n
        in
        let r =
          M.Interp.run ~fuel:w.W.Workload.fuel
            (image prot (W.Workload.compile w))
        in
        (match r.M.Interp.outcome with
         | M.Trap.Exit 0 -> ()
         | o ->
           failwith
             (Printf.sprintf "serve: calibration run (%s, class %d) is %s"
                (P.protection_name prot) cls (M.Trap.outcome_to_string o)));
        r.M.Interp.cycles
      in
      max 1 ((run calib_r2 - run calib_r1) / (calib_r2 - calib_r1)))

(* The probe subject replays the full server (all classes, real threads)
   under fault plans. 300 requests keep it fast; the hijack write lands
   mid-drain (the drain spans roughly instructions 15k..160k). *)
let probe_requests = 300

let classify ~(baseline : M.Interp.result) (r : M.Interp.result) =
  match r.M.Interp.outcome with
  | M.Trap.Hijacked _ -> "hijacked"
  | M.Trap.Trapped _ -> "trapped"
  | M.Trap.Crash _ -> "crash"
  | M.Trap.Fuel_exhausted -> "fuel-exhausted"
  | M.Trap.Exit _ ->
    if r.M.Interp.outcome = baseline.M.Interp.outcome
       && r.M.Interp.output = baseline.M.Interp.output
       && r.M.Interp.checksum = baseline.M.Interp.checksum
    then "masked"
    else "benign"

let probe_plans cfg =
  let open A.Faultplan in
  let ev step action = { step; action } in
  let hijack =
    ev 50_000
      (Write { site = Global ("handlers", 0); value = Code_entry "backdoor" })
  in
  let degrade =
    (* Kill a worker, stall the machine, then fire the same hijack write:
       the integrity check must hold mid-degradation. tid 1 is the first
       spawned worker; with one worker main drains the queue itself and
       the kill is a no-op, leaving stall + hijack. *)
    [ ev 20_000 (Kill_worker { tid = 1 });
      ev 30_000 (Stall { cycles = 50_000 });
      ev 50_000
        (Write { site = Global ("handlers", 0); value = Code_entry "backdoor" })
    ]
  in
  [ make ~name:"hijack" [ hijack ];
    make ~name:"degrade" (if cfg.faulted then degrade else [ hijack ]) ]

let run_probes cfg prot seed =
  let w =
    W.Webstack.server ~threads:cfg.workers ~shards:cfg.shards ~cls:(-1)
      ~requests:probe_requests
  in
  let prog = W.Workload.compile w in
  (* fault plans resolve their sites against the vanilla image *)
  let reference = image P.Vanilla prog in
  let deployed = if prot = P.Vanilla then reference else image prot prog in
  let baseline = M.Interp.run ~fuel:w.W.Workload.fuel ~sched_seed:seed deployed in
  (match baseline.M.Interp.outcome with
   | M.Trap.Exit 0 -> ()
   | o ->
     failwith
       (Printf.sprintf "serve: probe baseline under %s (seed %d) is %s"
          (P.protection_name prot) seed (M.Trap.outcome_to_string o)));
  List.map
    (fun plan ->
      let faults = A.Faultplan.resolve ~reference ~deployed plan in
      let r =
        M.Interp.run ~fuel:w.W.Workload.fuel ~faults ~sched_seed:seed deployed
      in
      { p_plan = plan.A.Faultplan.name;
        p_class = classify ~baseline r;
        p_outcome = M.Trap.outcome_to_string r.M.Interp.outcome;
        p_cycles = r.M.Interp.cycles;
        p_checksum = r.M.Interp.checksum })
    (probe_plans cfg)

(* ---------- layer 2: the discrete-event simulation ---------- *)

(* The simulation allocates nothing per request or per event: an event is
   one int (its kind in the low two bits, the operand above them), a
   request is a slot in a slab of int columns, the admission queue is an
   int ring, and arrivals are drawn lazily. Memory is O(queue + deadline),
   not O(requests). *)

let ev_arrive = 0  (* operand: arrival index *)
let ev_retry = 1   (* operand: request slot *)
let ev_free = 2    (* operand: worker *)
let ev_kill = 3    (* operand: worker *)

let[@inline] event kind x = (x lsl 2) lor kind

(* Binary min-heap of int events on (time, seq): seq is the push counter,
   so same-time events fire in push order — a total order independent of
   anything but the simulation itself. *)
module Heap = struct
  type t = {
    mutable ts : int array;
    mutable seqs : int array;
    mutable evs : int array;
    mutable n : int;
    mutable seq : int;
  }

  let create () =
    { ts = Array.make 64 0; seqs = Array.make 64 0; evs = Array.make 64 0;
      n = 0; seq = 0 }

  let is_empty h = h.n = 0

  (* The time of the next event to [pop]; the heap must be non-empty. *)
  let min_time h = h.ts.(0)

  let[@inline] lt (ta : int) (sa : int) tb sb =
    ta < tb || (ta = tb && sa < sb)

  let[@inline] move h ~src ~dst =
    h.ts.(dst) <- h.ts.(src);
    h.seqs.(dst) <- h.seqs.(src);
    h.evs.(dst) <- h.evs.(src)

  let push h t ev =
    if h.n = Array.length h.ts then begin
      let grow a = Array.append a (Array.make h.n 0) in
      h.ts <- grow h.ts; h.seqs <- grow h.seqs; h.evs <- grow h.evs
    end;
    let s = h.seq in
    h.seq <- s + 1;
    let i = ref h.n in
    h.n <- h.n + 1;
    while !i > 0 && lt t s h.ts.((!i - 1) / 2) h.seqs.((!i - 1) / 2) do
      move h ~src:((!i - 1) / 2) ~dst:!i;
      i := (!i - 1) / 2
    done;
    h.ts.(!i) <- t; h.seqs.(!i) <- s; h.evs.(!i) <- ev

  (* Remove the minimum and return its event; the heap must be
     non-empty. *)
  let pop h =
    let ev = h.evs.(0) in
    let n = h.n - 1 in
    h.n <- n;
    let t = h.ts.(n) and s = h.seqs.(n) and e = h.evs.(n) in
    let i = ref 0 and sinking = ref true in
    while !sinking do
      let l = (2 * !i) + 1 in
      if l >= n then sinking := false
      else begin
        let m =
          if l + 1 < n && lt h.ts.(l + 1) h.seqs.(l + 1) h.ts.(l) h.seqs.(l)
          then l + 1 else l
        in
        if lt h.ts.(m) h.seqs.(m) t s then begin
          move h ~src:m ~dst:!i;
          i := m
        end
        else sinking := false
      end
    done;
    h.ts.(!i) <- t; h.seqs.(!i) <- s; h.evs.(!i) <- e;
    ev
end

(* Live requests: one slot per request in flight (queued or waiting on a
   retry), recycled through a stack of free slots. A request's arrival is
   [deadline - deadline_c], so it is not stored. *)
module Slab = struct
  type t = {
    mutable cls : int array;
    mutable shard : int array;
    mutable deadline : int array;
    mutable attempt : int array;
    mutable free : int array;  (* free[0 .. nfree-1] are unused slots *)
    mutable nfree : int;
  }

  let create () =
    { cls = [||]; shard = [||]; deadline = [||]; attempt = [||];
      free = [||]; nfree = 0 }

  let grow s =
    let cap = Array.length s.cls in
    let cap' = max 64 (2 * cap) in
    let ext a = Array.append a (Array.make (cap' - cap) 0) in
    s.cls <- ext s.cls; s.shard <- ext s.shard;
    s.deadline <- ext s.deadline; s.attempt <- ext s.attempt;
    (* the new slots, lowest on top *)
    s.free <- Array.init cap' (fun k -> cap' - 1 - k);
    s.nfree <- cap' - cap

  let alloc s ~cls ~shard ~deadline =
    if s.nfree = 0 then grow s;
    s.nfree <- s.nfree - 1;
    let r = s.free.(s.nfree) in
    s.cls.(r) <- cls; s.shard.(r) <- shard;
    s.deadline.(r) <- deadline; s.attempt.(r) <- 1;
    r

  let release s r =
    s.free.(s.nfree) <- r;
    s.nfree <- s.nfree + 1
end

type shard_state = {
  mutable free_at : int;
  mutable streak : int;      (* consecutive failures/slow completions *)
  mutable open_until : int;  (* breaker open while now < open_until *)
}

type sim_out = {
  s_served : int;
  s_shed : int;
  s_timed_out : int;
  s_retried : int;
  s_killed : int;
  s_trips : int;
  s_counts : int array;  (* s_counts.(l): served requests with latency l *)
}

(* Tunables, all relative to the calibrated mean service time so the same
   shape holds across protections. *)
let util_pct = 85             (* open-loop load target, percent of capacity *)
let queue_cap_per_worker = 8
let deadline_mult = 50
let max_attempts = 3
let stall_factor = 8          (* hot-shard service inflation in the window *)
let slow_mult = 4             (* breaker counts svc > slow_mult*mean as slow *)
let breaker_streak = 3
let cooldown_mult = 20
let recovery_mult = 8         (* shard-lock recovery after a worker dies *)
let lock_share = 4            (* 1/lock_share of service holds the shard lock *)

(* [Stdlib.max] is polymorphic: an out-of-line call into [compare]. *)
let[@inline] imax (a : int) b = if a >= b then a else b

let simulate cfg ~svc ~seed =
  let workers = cfg.workers and shards = cfg.shards and n = cfg.requests in
  let mean_svc = max 1 ((svc.(0) + svc.(1) + svc.(2)) / 3) in
  let mean_ia = max 1 (mean_svc * 100 / (workers * util_pct)) in
  let deadline_c = deadline_mult * mean_svc in
  let qcap = queue_cap_per_worker * workers in
  let slow_at = slow_mult * mean_svc in
  let cooldown = cooldown_mult * mean_svc in
  let recovery = recovery_mult * mean_svc in
  (* Three decorrelated streams: arrivals, the fault schedule, and the
     in-simulation draws (backoff jitter). Draw order for the last one is
     the event-processing order, itself deterministic. *)
  let arr_rng = Rng.create ((seed * 0x9E3779B9) + 1) in
  let fault_rng = Rng.create ((seed * 0x9E3779B9) + 2) in
  let sim_rng = Rng.create ((seed * 0x9E3779B9) + 3) in
  (* Uniform integer inter-arrivals on [1, 2*mean-1]: open-loop with mean
     [mean_ia], no libm in sight. Each arrival draws its gap, then its
     shard. The fault schedule needs the arrival horizon up front, so a
     first pass sums the gaps on a copy of the stream; the simulation
     then draws the same arrivals lazily from the original. *)
  let ia_hi = (2 * mean_ia) - 1 in
  let horizon =
    let scan = Rng.copy arr_rng in
    let t = ref 0 in
    for _ = 1 to n do
      t := !t + Rng.range scan 1 ia_hi;
      ignore (Rng.int scan shards : int)
    done;
    !t
  in
  (* Fault schedule: kill up to two workers at T/3 and T/2 (always leaving
     one alive), and pick a hot shard whose service inflates by
     [stall_factor] during the middle third of the arrival horizon. *)
  let kills = if cfg.faulted then min 2 (workers - 1) else 0 in
  let hot_shard = Rng.int fault_rng shards in
  let stall_lo = horizon / 3 and stall_hi = 2 * horizon / 3 in
  let stalling = cfg.faulted in
  let kill_time = Array.make workers max_int in
  let alive = Array.make workers true in
  let free = Array.make workers true in
  let sh =
    Array.init shards (fun _ -> { free_at = 0; streak = 0; open_until = 0 })
  in
  let reqs = Slab.create () in
  let q = Array.make qcap 0 and q_head = ref 0 and q_len = ref 0 in
  let heap = Heap.create () in
  let served = ref 0 and shed = ref 0 and timed_out = ref 0 in
  let retried = ref 0 and killed = ref 0 and trips = ref 0 in
  let counts = Array.make (deadline_c + 1) 0 in
  for w = 0 to kills - 1 do
    kill_time.(w) <- (if w = 0 then horizon / 3 else horizon / 2);
    Heap.push heap kill_time.(w) (event ev_kill w)
  done;
  (* The one pending arrival: its time and shard, drawn when it is
     scheduled. *)
  let arr_time = ref 0 and arr_shard = ref 0 in
  let schedule_arrival i =
    arr_time := !arr_time + Rng.range arr_rng 1 ia_hi;
    arr_shard := Rng.int arr_rng shards;
    Heap.push heap !arr_time (event ev_arrive i)
  in
  if n > 0 then schedule_arrival 0;
  let pick_worker () =
    let found = ref (-1) in
    for w = workers - 1 downto 0 do
      if alive.(w) && free.(w) then found := w
    done;
    !found
  in
  let shard_fail s at =
    s.streak <- s.streak + 1;
    if s.streak >= breaker_streak && at >= s.open_until then begin
      s.open_until <- at + cooldown;
      s.streak <- 0;
      incr trips
    end
  in
  let retry_path r now =
    if now > reqs.Slab.deadline.(r) then begin
      incr timed_out;
      Slab.release reqs r
    end
    else if reqs.Slab.attempt.(r) >= max_attempts then begin
      incr shed;
      Slab.release reqs r
    end
    else begin
      let attempt = reqs.Slab.attempt.(r) + 1 in
      reqs.Slab.attempt.(r) <- attempt;
      incr retried;
      let backoff =
        (mean_svc lsl (attempt - 2)) + Rng.int sim_rng ((mean_svc / 2) + 1)
      in
      Heap.push heap (now + backoff) (event ev_retry r)
    end
  in
  let dispatch r w now =
    free.(w) <- false;
    let shard = reqs.Slab.shard.(r) in
    let s = sh.(shard) in
    let hot =
      stalling && shard = hot_shard && now >= stall_lo && now < stall_hi
    in
    let service = svc.(reqs.Slab.cls.(r)) * if hot then stall_factor else 1 in
    let start = imax now s.free_at in
    let fin = start + service in
    if kill_time.(w) < fin then begin
      (* The worker dies mid-request: the shard lock it may hold needs
         recovery, the request re-enters via the retry path, and the
         worker never frees ([Kill w] does the bookkeeping). *)
      let ft = imax start kill_time.(w) in
      alive.(w) <- false;
      s.free_at <- ft + recovery;
      shard_fail s ft;
      retry_path r ft
    end
    else begin
      s.free_at <- start + imax 1 (service / lock_share);
      if service > slow_at then shard_fail s fin else s.streak <- 0;
      Heap.push heap fin (event ev_free w);
      let deadline = reqs.Slab.deadline.(r) in
      if fin > deadline then incr timed_out
      else begin
        (* fin <= deadline = arrival + deadline_c bounds the index *)
        incr served;
        let l = fin - (deadline - deadline_c) in
        counts.(l) <- counts.(l) + 1
      end;
      Slab.release reqs r
    end
  in
  let rec try_dispatch now =
    if !q_len > 0 then begin
      let w = pick_worker () in
      if w >= 0 then begin
        let r = q.(!q_head) in
        q_head := (if !q_head + 1 = qcap then 0 else !q_head + 1);
        decr q_len;
        if now > reqs.Slab.deadline.(r) then begin
          incr timed_out;
          Slab.release reqs r
        end
        else if now < sh.(reqs.Slab.shard.(r)).open_until then
          (* Breaker open: fast-fail without burning a worker. *)
          retry_path r now
        else dispatch r w now;
        try_dispatch now
      end
    end
  in
  let admit r now =
    if !q_len >= qcap then begin
      incr shed;
      Slab.release reqs r
    end
    else begin
      q.((!q_head + !q_len) mod qcap) <- r;
      incr q_len;
      try_dispatch now
    end
  in
  while not (Heap.is_empty heap) do
    let now = Heap.min_time heap in
    let ev = Heap.pop heap in
    let kind = ev land 3 and x = ev asr 2 in
    if kind = ev_arrive then begin
      let shard = !arr_shard in
      if x + 1 < n then schedule_arrival (x + 1);
      admit
        (Slab.alloc reqs ~cls:(x mod 3) ~shard ~deadline:(now + deadline_c))
        now
    end
    else if kind = ev_retry then admit x now
    else if kind = ev_free then begin
      free.(x) <- true;
      try_dispatch now
    end
    else begin
      (* ev_kill *)
      if alive.(x) then begin
        alive.(x) <- false;
        free.(x) <- false
      end;
      incr killed
    end
  done;
  (* All workers can be dead or wedged behind a recovered lock only up to
     a finite horizon; anything still queued when the event list is empty
     will never be served — its deadline passes in silence. *)
  timed_out := !timed_out + !q_len;
  { s_served = !served; s_shed = !shed; s_timed_out = !timed_out;
    s_retried = !retried; s_killed = !killed; s_trips = !trips;
    s_counts = counts }

(* ---------- percentiles + histogram ---------- *)

type tail = {
  t_p50 : int;
  t_p99 : int;
  t_p999 : int;
  t_max : int;
  t_hist : (int * int) list;
}

let log2_floor v =
  let v = max 1 v in
  let k = ref 0 in
  let x = ref v in
  while !x > 1 do
    x := !x lsr 1;
    incr k
  done;
  !k

let tail counts =
  let total = Array.fold_left ( + ) 0 counts in
  (* Nearest rank: the value at 0-based index [rank - 1] of the sorted
     vector is the least latency whose cumulative count exceeds it. *)
  let nearest_rank pct_num pct_den =
    if total = 0 then 0
    else begin
      let rank = ((total * pct_num) + (pct_den - 1)) / pct_den in
      let idx = max 0 (min (total - 1) (rank - 1)) in
      let v = ref 0 and cum = ref counts.(0) in
      while !cum <= idx do
        incr v;
        cum := !cum + counts.(!v)
      done;
      !v
    end
  in
  let max_lat = ref 0 in
  let buckets = Array.make 63 0 in
  Array.iteri
    (fun l c ->
      if c > 0 then begin
        max_lat := l;
        let k = log2_floor l in
        buckets.(k) <- buckets.(k) + c
      end)
    counts;
  let hist = ref [] in
  for k = 62 downto 0 do
    if buckets.(k) > 0 then hist := (1 lsl k, buckets.(k)) :: !hist
  done;
  { t_p50 = nearest_rank 50 100;
    t_p99 = nearest_rank 99 100;
    t_p999 = nearest_rank 999 1000;
    t_max = !max_lat;
    t_hist = !hist }

(* ---------- the campaign ---------- *)

let exec_cell cfg svc_of (prot, seed) =
  let svc = svc_of prot in
  let probes = run_probes cfg prot seed in
  let s = simulate cfg ~svc ~seed in
  let tl = tail s.s_counts in
  { c_protection = prot;
    c_seed = seed;
    c_svc = svc;
    c_probes = probes;
    c_arrivals = cfg.requests;
    c_served = s.s_served;
    c_shed = s.s_shed;
    c_timed_out = s.s_timed_out;
    c_retried = s.s_retried;
    c_killed = s.s_killed;
    c_trips = s.s_trips;
    c_p50 = tl.t_p50;
    c_p99 = tl.t_p99;
    c_p999 = tl.t_p999;
    c_max = tl.t_max;
    c_hist = tl.t_hist }

let run ?(jobs = 1) cfg =
  validate cfg;
  let cells =
    List.concat_map
      (fun prot -> List.map (fun seed -> (prot, seed)) cfg.seeds)
      cfg.protections
  in
  let rep_cells =
    Pool.with_pool ~jobs (fun pool ->
        (* Calibration is seed-independent: one per protection, shared by
           all of that protection's cells. *)
        let svcs =
          List.combine cfg.protections
            (Pool.map pool (calibrate cfg) cfg.protections)
        in
        Pool.map pool (exec_cell cfg (fun prot -> List.assoc prot svcs)) cells)
  in
  { rep_config = cfg; rep_cells }

(* ---------- invariants ---------- *)

let accounted c = c.c_served + c.c_shed + c.c_timed_out = c.c_arrivals

let degraded c = c.c_shed + c.c_retried + c.c_timed_out > 0

let invariants rep =
  let cs = rep.rep_cells in
  let probes_of prot =
    List.concat_map
      (fun c -> if c.c_protection = prot then c.c_probes else [])
      cs
  in
  [ ( "cpi_never_hijacked",
      "cpi never hijacked (incl. mid-degradation)",
      List.for_all (fun p -> p.p_class <> "hijacked") (probes_of P.Cpi) );
    ( "spectrum_never_hijacked",
      "spectrum backends never hijacked (cfi-type, cpi-crypt)",
      List.for_all
        (fun p -> p.p_class <> "hijacked")
        (probes_of P.Cfi_type @ probes_of P.Cpi_crypt) );
    ( "all_accounted",
      "every admitted request terminally accounted",
      List.for_all accounted cs );
    ( "vanilla_hijack_witnessed",
      "vanilla hijack witnessed",
      List.exists (fun p -> p.p_class = "hijacked") (probes_of P.Vanilla) );
    ( "degraded_cells_still_serve",
      "degraded cells still serve",
      (not rep.rep_config.faulted)
      || (List.for_all (fun c -> c.c_served > 0) cs
          && List.exists degraded cs) );
  ]

let invariants_ok rep = List.for_all (fun (_, _, ok) -> ok) (invariants rep)

(* ---------- reporting ---------- *)

let to_json rep =
  let c = rep.rep_config in
  let probe_json p =
    J.obj
      [ J.str "plan" p.p_plan;
        J.str "class" p.p_class;
        J.str "outcome" p.p_outcome;
        J.int "cycles" p.p_cycles;
        J.int "checksum" p.p_checksum ]
  in
  let cell_json cl =
    J.obj
      [ J.str "protection" (P.protection_name cl.c_protection);
        J.int "seed" cl.c_seed;
        ("\"svc_cycles\":"
         ^ J.arr (Array.to_list (Array.map string_of_int cl.c_svc)));
        ("\"probes\":" ^ J.arr (List.map probe_json cl.c_probes));
        J.int "arrivals" cl.c_arrivals;
        J.int "served" cl.c_served;
        J.int "shed" cl.c_shed;
        J.int "timed_out" cl.c_timed_out;
        J.int "retried" cl.c_retried;
        J.int "killed_workers" cl.c_killed;
        J.int "breaker_trips" cl.c_trips;
        J.int "p50_cycles" cl.c_p50;
        J.int "p99_cycles" cl.c_p99;
        J.int "p999_cycles" cl.c_p999;
        J.int "max_cycles" cl.c_max;
        ("\"histogram\":"
         ^ J.arr
             (List.map
                (fun (lo, n) -> Printf.sprintf "[%d,%d]" lo n)
                cl.c_hist)) ]
  in
  let inv_json =
    List.map (fun (key, _, ok) -> J.bool key ok) (invariants rep)
  in
  String.concat ""
    [ Printf.sprintf "{\n\"schema\":\"%s\",\n" schema_id;
      Printf.sprintf "\"workers\":%d,\n" c.workers;
      Printf.sprintf "\"shards\":%d,\n" c.shards;
      Printf.sprintf "\"requests\":%d,\n" c.requests;
      Printf.sprintf "\"faulted\":%b,\n" c.faulted;
      "\"cells\":";
      J.arr (List.map cell_json rep.rep_cells);
      ",\n\"invariants\":";
      J.obj inv_json;
      ",\n";
      Printf.sprintf "\"invariants_ok\":%b\n}\n" (invariants_ok rep) ]

let to_records ?commit rep =
  let c = rep.rep_config in
  List.map
    (fun cl ->
      let config =
        Printf.sprintf "serve-%s-w%d-sh%d-r%d%s"
          (P.protection_name cl.c_protection)
          c.workers c.shards c.requests
          (if c.faulted then "" else "-nofault")
      in
      Runstore.make ~schema:schema_id ~kind:"serve" ?commit ~config
        ~seed:cl.c_seed ~wall_us:0
        [ ("arrivals", Runstore.Int cl.c_arrivals);
          ("served", Runstore.Int cl.c_served);
          ("shed", Runstore.Int cl.c_shed);
          ("timed_out", Runstore.Int cl.c_timed_out);
          ("retried", Runstore.Int cl.c_retried);
          ("killed_workers", Runstore.Int cl.c_killed);
          ("breaker_trips", Runstore.Int cl.c_trips);
          ("p50_cycles", Runstore.Int cl.c_p50);
          ("p99_cycles", Runstore.Int cl.c_p99);
          ("p999_cycles", Runstore.Int cl.c_p999);
          ("invariants_ok", Runstore.Int (if invariants_ok rep then 1 else 0))
        ])
    rep.rep_cells

let to_human rep =
  let b = Buffer.create 2048 in
  let c = rep.rep_config in
  Buffer.add_string b
    (Printf.sprintf
       "serve campaign: %d worker(s), %d shard(s), %d requests/cell, faults %s\n"
       c.workers c.shards c.requests (if c.faulted then "on" else "off"));
  Buffer.add_string b
    (Printf.sprintf "  %-10s %4s %9s %7s %9s %7s %6s %6s %8s %8s %8s\n"
       "protection" "seed" "served" "shed" "timed-out" "retried" "killed"
       "trips" "p50" "p99" "p999");
  List.iter
    (fun cl ->
      Buffer.add_string b
        (Printf.sprintf "  %-10s %4d %9d %7d %9d %7d %6d %6d %8d %8d %8d\n"
           (P.protection_name cl.c_protection)
           cl.c_seed cl.c_served cl.c_shed cl.c_timed_out cl.c_retried
           cl.c_killed cl.c_trips cl.c_p50 cl.c_p99 cl.c_p999))
    rep.rep_cells;
  List.iter
    (fun cl ->
      List.iter
        (fun p ->
          Buffer.add_string b
            (Printf.sprintf "  probe: %-10s seed %d %-8s -> %-9s (%s)\n"
               (P.protection_name cl.c_protection)
               cl.c_seed p.p_plan p.p_class p.p_outcome))
        cl.c_probes)
    rep.rep_cells;
  List.iter
    (fun (_, name, ok) ->
      Buffer.add_string b
        (Printf.sprintf "  invariant: %-46s %s\n" name
           (if ok then "OK" else "VIOLATED")))
    (invariants rep);
  Buffer.contents b
