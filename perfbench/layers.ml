(* Per-layer instruments.  Every reading is taken from outside the layer:
   Pool.monitor edges, Cache.stats, Journal.appended, on_sweep counts, and
   timed direct calls into each layer's public functions. *)

open Lattol_core
open Lattol_exec

let now = Unix.gettimeofday

(* ---- Pool: busy and idle time per worker from the monitor's edges ---- *)

let max_workers = 256

type pool = {
  mutable jobs : int;  (** largest effective pool size of the batch *)
  tasks : int Atomic.t;
  claims : int Atomic.t;
  task_t0 : float array;
  busy : float array;  (** per worker: time inside tasks *)
  loop_t0 : float array;
  in_loop : float array;  (** per worker: time inside the claim loop *)
}

let pool () =
  let zeros () = Array.make max_workers 0. in
  {
    jobs = 0;
    tasks = Atomic.make 0;
    claims = Atomic.make 0;
    task_t0 = zeros ();
    busy = zeros ();
    loop_t0 = zeros ();
    in_loop = zeros ();
  }

(* Each worker index is written only by the domain running that worker,
   and maps run one after another, so the arrays need no lock. *)
let monitor p =
  let edge t0 acc ~worker ~busy =
    if worker < max_workers then begin
      let t = now () in
      if busy then t0.(worker) <- t
      else acc.(worker) <- acc.(worker) +. (t -. t0.(worker))
    end
  in
  {
    Pool.on_start =
      (fun ~jobs ~items:_ -> if jobs > p.jobs then p.jobs <- jobs);
    on_worker = edge p.loop_t0 p.in_loop;
    on_claim = (fun ~remaining:_ -> Atomic.incr p.claims);
    on_item = (fun () -> Atomic.incr p.tasks);
    on_task = edge p.task_t0 p.busy;
  }

let sum = Array.fold_left ( +. ) 0.

(* [other_s] is the batch wall during which no worker was in a claim
   loop: planning, domain spawn and join, CSV emit. *)
let pool_sample p ~wall =
  let busy = sum p.busy and in_loop = sum p.in_loop in
  let jobs = float (max 1 p.jobs) in
  [
    ("pool.jobs", float p.jobs);
    ("pool.tasks", float (Atomic.get p.tasks));
    ("pool.claims", float (Atomic.get p.claims));
    ("pool.busy_s", busy);
    ("pool.idle_s", in_loop -. busy);
    ("pool.busy_frac", busy /. (jobs *. wall));
    ("sweep.other_s", wall -. (in_loop /. jobs));
  ]

(* ---- Cache ---- *)

let lookups_of (s : Cache.stats) = s.memo_hits + s.disk_hits + s.misses

let cache_sample (s : Cache.stats) =
  let lookups = lookups_of s in
  [
    ("cache.lookups", float lookups);
    ("cache.memo_hits", float s.memo_hits);
    ("cache.disk_hits", float s.disk_hits);
    ("cache.misses", float s.misses);
    ("cache.stores", float s.stores);
    ("cache.corrupt", float s.corrupt);
    ( "cache.hit_ratio",
      if lookups = 0 then 0.
      else float (s.memo_hits + s.disk_hits) /. float lookups );
    ("solve.count", float s.solves);
  ]

(* ---- The grid's configurations, counted by the harness itself ---- *)

let key p = Cache.key ~solver_id:(Mms.solver_label (Mms.default_solver p)) p

(* Every cache lookup a grid makes: the real solve and both tolerance
   ideals of each valid point, as Sweep.run makes them with its default
   ideal method. *)
let lookups ~base axes =
  List.concat_map
    (fun assigns ->
      let p =
        List.fold_left (fun p (param, v) -> Sweep.apply p param v) base assigns
      in
      match Params.validate p with
      | Error _ -> []
      | Ok p ->
        [
          p;
          Tolerance.ideal_params Tolerance.Network_latency
            Tolerance.Zero_remote p;
          Tolerance.ideal_params Tolerance.Memory_latency Tolerance.Zero_delay
            p;
        ])
    (Sweep.points axes)

(* Distinct configurations by cache key, first occurrence first. *)
let distinct ps =
  let seen = Hashtbl.create 512 in
  List.filter_map
    (fun p ->
      let k = key p in
      if Hashtbl.mem seen k then None
      else begin
        Hashtbl.add seen k ();
        Some (k, p)
      end)
    ps

(* ---- Solver: a jobs = 1 pass of direct Mms.solve calls ---- *)

type solve_probe = {
  iterations : int;
  ns_per_iter : float;
  minor_words : float;  (** per solve *)
  solved : (string * Measures.t) list;
}

let solve_probe configs =
  let iterations = ref 0 in
  let on_sweep ~iteration:_ ~residual:_ =
    incr iterations;
    Lattol_queueing.Amva.Continue
  in
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let solved =
    List.map
      (fun (k, p) -> (k, Mms.solve ~solver:(Mms.default_solver p) ~on_sweep p))
      configs
  in
  let dt = now () -. t0 in
  let words = Gc.minor_words () -. w0 in
  {
    iterations = !iterations;
    ns_per_iter = 1e9 *. dt /. float (max 1 !iterations);
    minor_words = words /. float (max 1 (List.length configs));
    solved;
  }

(* ---- Cache and journal: timed direct calls ---- *)

(* Mean microseconds of a store into an empty directory, then of a disk
   hit through a fresh handle over the stored entries. *)
let cache_probe ~dir solved =
  let n = float (max 1 (List.length solved)) in
  let timed f =
    let t0 = now () in
    f ();
    1e6 *. (now () -. t0) /. n
  in
  let c = Cache.create ~dir () in
  let store_us =
    timed (fun () ->
        List.iter
          (fun (key, m) -> ignore (Cache.find_or_compute c ~key (fun () -> m)))
          solved)
  in
  let c = Cache.create ~dir () in
  let back = ref [] in
  let read_us =
    timed (fun () ->
        back :=
          List.map
            (fun (key, _) ->
              Cache.find_or_compute c ~key (fun () ->
                  failwith "cache probe: a stored entry missed"))
            solved)
  in
  let line = Cache.encode_measures_line in
  Checks.check "cache probe reads back every stored entry bit-identically"
    ((Cache.stats c).disk_hits = List.length solved
    && List.for_all2 (fun (_, m) m' -> line m = line m') solved !back);
  [ ("cache.store_us", store_us); ("cache.disk_read_us", read_us) ]

(* Mean microseconds of one fsync'd Journal.append. *)
let journal_probe ~path records =
  let j = Journal.create ~path ~meta:"perfbench-probe" () in
  let t0 = now () in
  List.iteri
    (fun i payload -> Journal.append j ~id:(Printf.sprintf "p%d" i) ~payload)
    records;
  let dt = now () -. t0 in
  Journal.close j;
  [ ("journal.append_us", 1e6 *. dt /. float (max 1 (List.length records))) ]

(* ---- Simulators: one direct run each ---- *)

let sim_probe prefix run =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let events = run () in
  let dt = now () -. t0 in
  let words = Gc.minor_words () -. w0 in
  let per = float (max 1 events) in
  [
    (prefix ^ ".events", float events);
    (prefix ^ ".ns_per_event", 1e9 *. dt /. per);
    (prefix ^ ".minor_words_per_event", words /. per);
  ]

(* ---- Sanity bounds (bottleneck analysis and Little's law) ---- *)

type observed = {
  wall : float;
  jobs : int;
  busy : float;  (** pool busy, all workers *)
  in_loop : float;  (** pool busy + idle, all workers *)
  solve_busy : float;  (** exclusive solve time, all workers *)
  lookups : int;  (** lookups the grid makes, counted by the harness *)
  stats : Cache.stats;
  appends : int option;  (** journal appends, when the batch journals *)
  points : int;
}

let slack = 1e-3

let sanity o =
  let jobs = float (max 1 o.jobs) in
  [
    ( "batch wall >= solve busy / jobs",
      o.wall +. slack >= o.solve_busy /. jobs );
    ( "pool busy + idle reconciles with jobs x wall",
      o.busy <= o.in_loop +. slack && o.in_loop <= (jobs *. o.wall) +. slack
    );
    ( "memo hits + disk hits + misses = lookups",
      lookups_of o.stats = o.lookups );
    ("solves = misses", o.stats.solves = o.stats.misses);
    ( "journal appends = grid points",
      match o.appends with None -> true | Some a -> a = o.points );
  ]

let observe (o : observed) =
  List.iter (fun (what, ok) -> Checks.check what ok) (sanity o)
