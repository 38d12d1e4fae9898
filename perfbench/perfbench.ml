(* End-to-end, layer-by-layer benchmark of the execution layer.

   perfbench.exe run --workload NAME --seed N --seconds S --trace 0|1
                     --jobs J [--out FILE]
   perfbench.exe selftest --jobs J
   perfbench.exe spec

   Each workload is closed-loop batch work: one batch is submitted, waited
   for, checked, then the next.  An untraced run (--trace 0) reports the
   end-to-end metrics; a traced run (--trace 1) interleaves traced and
   untraced batches and reports the per-layer metrics.  The last line of
   standard output is one JSON object: correct, attempted, failed,
   metrics.  Run it from the repository root (it reads test/golden/ and
   works in perfbench/_work/); run.py builds it and supplies --jobs. *)

open Lattol_core
open Lattol_exec
module Tc = Lattol_obs.Trace_ctx
module Tr = Lattol_obs.Trace_report
module Des = Lattol_sim.Mms_des
module Stpn = Lattol_petri.Mms_stpn

let now = Unix.gettimeofday

(* ---- Metric names: BENCHMARK.json lists the same ones ---- *)

type spec = { name : string; unit_ : string; better : string }

let end_to_end =
  [
    { name = "setup_s"; unit_ = "s"; better = "lower" };
    { name = "batch_p50_s"; unit_ = "s"; better = "lower" };
    { name = "batch_tail_s"; unit_ = "s"; better = "lower" };
    { name = "points_per_s"; unit_ = "1/s"; better = "higher" };
    { name = "peak_rss_mb"; unit_ = "MB"; better = "lower" };
  ]

let per_layer =
  List.map
    (fun (name, unit_, better) -> { name; unit_; better })
    [
      ("pool.jobs", "count", "higher");
      ("pool.tasks", "count", "lower");
      ("pool.claims", "count", "lower");
      ("pool.busy_s", "s", "lower");
      ("pool.idle_s", "s", "lower");
      ("pool.busy_frac", "ratio", "higher");
      ("cache.lookups", "count", "lower");
      ("cache.memo_hits", "count", "higher");
      ("cache.disk_hits", "count", "higher");
      ("cache.misses", "count", "lower");
      ("cache.stores", "count", "lower");
      ("cache.corrupt", "count", "lower");
      ("cache.hit_ratio", "ratio", "higher");
      ("cache.disk_read_us", "us", "lower");
      ("cache.store_us", "us", "lower");
      ("cache.wait_s", "s", "lower");
      ("journal.appends", "count", "lower");
      ("journal.append_us", "us", "lower");
      ("journal.busy_s", "s", "lower");
      ("solve.count", "count", "lower");
      ("solve.iterations", "count", "lower");
      ("solve.busy_s", "s", "lower");
      ("solve.ns_per_iter", "ns", "lower");
      ("solve.minor_words", "words", "lower");
      ("des.events", "count", "higher");
      ("des.ns_per_event", "ns", "lower");
      ("des.minor_words_per_event", "words", "lower");
      ("stpn.events", "count", "higher");
      ("stpn.ns_per_event", "ns", "lower");
      ("stpn.minor_words_per_event", "words", "lower");
      ("sweep.other_s", "s", "lower");
      ("trace.overhead_ratio", "ratio", "lower");
    ]

(* ---- Order statistics ---- *)

let sorted xs = Array.of_list (List.sort Float.compare xs)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* batch_tail_s is this percentile of the batch walls, whatever their
   number, so the rank it reads does not move with the machine's speed. *)
let tail_pct = 90

type tail = { value : float; beyond : int; samples : int }

(* Linear interpolation between the order statistics around the
   percentile (the "inclusive" method of Python's statistics.quantiles);
   [beyond] counts the samples above the value. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then { value = Float.nan; beyond = 0; samples = 0 }
  else begin
    let pos = float tail_pct /. 100. *. float (n - 1) in
    let i = int_of_float pos in
    let value =
      if i + 1 >= n then a.(n - 1)
      else a.(i) +. ((pos -. float i) *. (a.(i + 1) -. a.(i)))
    in
    let beyond = Array.fold_left (fun k x -> if x > value then k + 1 else k) 0 a in
    { value; beyond; samples = n }
  end

(* ---- Process and filesystem ---- *)

let proc_field file key =
  match In_channel.with_open_text file In_channel.input_all with
  | text ->
    List.find_map
      (fun line ->
        match String.index_opt line ':' with
        | Some i when String.equal (String.sub line 0 i) key ->
          let rest = String.sub line (i + 1) (String.length line - i - 1) in
          List.find_map float_of_string_opt
            (String.split_on_char ' ' (String.trim rest))
        | _ -> None)
      (String.split_on_char '\n' text)
  | exception Sys_error _ -> None

let peak_rss_mb () =
  match proc_field "/proc/self/status" "VmHWM" with
  | Some kb -> kb /. 1024.
  | None -> Float.nan

let loadavg () =
  match In_channel.with_open_text "/proc/loadavg" In_channel.input_all with
  | s -> (
    match String.split_on_char ' ' s with
    | one :: _ -> Option.value ~default:Float.nan (float_of_string_opt one)
    | [] -> Float.nan)
  | exception Sys_error _ -> Float.nan

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

let read_file p = In_channel.with_open_bin p In_channel.input_all

(* ---- Workloads ---- *)

type env = {
  jobs : int;  (** the machine's core count *)
  seed : int;
  tiny : bool;  (** self-test size; set only by the self-test *)
  work : string;  (** scratch directory, removed at exit *)
  golden_dir : string;
}

let fresh =
  let n = ref 0 in
  fun env ->
    incr n;
    let d = Filename.concat env.work (Printf.sprintf "d%d" !n) in
    rm_rf d;
    mkdir_p d;
    d

type sample = (string * float) list
(** One traced batch's per-layer readings, by metric name. *)

type workload = {
  passes : int;
      (** runs of [batch] (or [traced]) that make one timed batch; the
          batch wall is their sum *)
  setup : unit -> unit;
      (** build the inputs and the reference outputs the batches are
          checked against; timed, and repeated *)
  batch : unit -> float * int;  (** untraced: wall seconds, points done *)
  traced : unit -> float * int * sample;
  probe : unit -> sample;  (** direct calls into each layer, once *)
}

let ms_to_s x = x /. 1e3

let trace_sample (r : Tr.t) =
  [
    ("solve.busy_s", ms_to_s r.Tr.r_solve_ms);
    ("cache.wait_s", ms_to_s r.Tr.r_cache_ms);
    ("journal.busy_s", ms_to_s r.Tr.r_journal_ms);
  ]

let with_trace f =
  let recorder = Tc.create ~root:"perfbench" () in
  let result = f (Tc.root_ctx recorder) in
  Tc.seal recorder;
  (result, Tr.analyze recorder)

let observe ~wall ~(pool : Layers.pool) ~solve_busy ~lookups ~stats ~appends
    ~points =
  Layers.observe
    {
      Layers.wall;
      jobs = pool.Layers.jobs;
      busy = Layers.sum pool.Layers.busy;
      in_loop = Layers.sum pool.Layers.in_loop;
      solve_busy;
      lookups;
      stats;
      appends;
      points;
    }

let zero names = List.map (fun n -> (n, 0.)) names

(* Named outputs agree byte for byte. *)
let same_outputs =
  List.equal (fun (a, x) (b, y) -> String.equal a b && String.equal x y)

(* Iterations a figures batch made.  Figures.write takes no on_sweep, so
   this is not measured on the batch: a cold batch solves each distinct
   configuration once, as the jobs = 1 probe did, and is given the probe's
   count; a warm batch solves none.  Anything else is an inconsistency (nan
   fails the run). *)
let solve_iterations ~distinct ~probe_iterations (s : Cache.stats) =
  if s.solves = 0 then 0.
  else if s.solves = distinct then float probe_iterations
  else Float.nan

(* figures_cold / figures_warm: Figures.write over the paper's figures. *)
let figures env ~warm =
  let figs =
    if env.tiny then
      List.filter (fun f -> f.Figures.name = "saturation") (Figures.all ())
    else Figures.all ()
  in
  let points =
    List.fold_left (fun n f -> n + List.length (Sweep.points f.Figures.axes)) 0
      figs
  in
  let lookups =
    List.concat_map
      (fun f -> Layers.lookups ~base:f.Figures.base f.Figures.axes)
      figs
  in
  let n_lookups = List.length lookups in
  let configs = Layers.distinct lookups in
  let n_distinct = List.length configs in
  let filled = ref "" in
  let probe_iterations = ref 0 in
  (* One pass: a fresh journal, and a fresh cache handle over [cache_dir]. *)
  let run ~jobs ~cache_dir ?monitor ?causal () =
    let dir = fresh env in
    let cache_dir =
      Option.value cache_dir ~default:(Filename.concat dir "cache")
    in
    let t0 = now () in
    let cache = Cache.create ~dir:cache_dir () in
    let journal =
      Journal.create ~path:(Filename.concat dir "journal")
        ~meta:(Figures.journal_meta figs) ()
    in
    let written =
      Fun.protect
        ~finally:(fun () -> Journal.close journal)
        (fun () ->
          Figures.write ~cache ~jobs ~journal ?monitor ?causal
            ~dir:(Filename.concat dir "out") figs)
    in
    let wall = now () -. t0 in
    let csvs =
      List.map
        (fun w -> (w.Figures.figure.Figures.name, read_file w.Figures.path))
        written
    in
    let rows = List.fold_left (fun n w -> n + w.Figures.rows) 0 written in
    let appends = Journal.appended journal in
    rm_rf dir;
    (wall, csvs, rows, Cache.stats cache, appends)
  in
  (* The reference every output is compared against: one cold run at
     jobs = 1, made once and not timed, so that setup_s times what a batch
     runs and is not dominated by the noisier single-worker pass. *)
  let reference =
    let _, csvs, rows, stats, _ = run ~jobs:1 ~cache_dir:None () in
    Checks.check "reference: every grid point produced a row" (rows = points);
    Checks.check "reference: each distinct configuration solved once"
      (stats.solves = n_distinct);
    let pinned =
      Checks.against_goldens ~golden_dir:env.golden_dir ~dir:(fresh env) csvs
    in
    Checks.check "at least one figure is pinned by a golden" (pinned <> []);
    csvs
  in
  let check_batch ~csvs ~rows ~(stats : Cache.stats) ~appends =
    Checks.check "every grid point produced a row" (rows = points);
    Checks.check "CSVs byte-identical to the reference run"
      (same_outputs csvs reference);
    Checks.check "cache lookups = 3 x grid points"
      (Layers.lookups_of stats = n_lookups);
    Checks.check "journal records every point" (appends = points);
    Checks.check "no corrupt cache entries" (stats.corrupt = 0);
    if warm then
      Checks.check "warm batch: every configuration from disk, no solve"
        (stats.solves = 0 && stats.disk_hits = n_distinct)
    else
      Checks.check "cold batch: each distinct configuration solved once"
        (stats.solves = n_distinct && stats.stores = n_distinct)
  in
  let cache_dir () = if warm then Some !filled else None in
  let setup () =
    if warm then begin
      if !filled <> "" then rm_rf !filled;
      filled := fresh env
    end;
    let _, csvs, rows, stats, _ =
      run ~jobs:env.jobs ~cache_dir:(cache_dir ()) ()
    in
    Checks.check "setup: every grid point produced a row" (rows = points);
    Checks.check "setup: each distinct configuration solved once"
      (stats.solves = n_distinct);
    (* jobs = N reproduces jobs = 1 byte for byte; the cold-vs-warm
       comparison rests on it too. *)
    Checks.check "setup: CSVs byte-identical to the jobs = 1 reference"
      (same_outputs csvs reference)
  in
  let batch () =
    let wall, csvs, rows, stats, appends =
      run ~jobs:env.jobs ~cache_dir:(cache_dir ()) ()
    in
    check_batch ~csvs ~rows ~stats ~appends;
    (wall, rows)
  in
  let traced () =
    let pool = Layers.pool () in
    let (wall, csvs, rows, stats, appends), report =
      with_trace (fun causal ->
          run ~jobs:env.jobs ~cache_dir:(cache_dir ())
            ~monitor:(Layers.monitor pool) ~causal ())
    in
    check_batch ~csvs ~rows ~stats ~appends;
    let traced = trace_sample report in
    observe ~wall ~pool ~solve_busy:(List.assoc "solve.busy_s" traced)
      ~lookups:n_lookups ~stats ~appends:(Some appends) ~points;
    ( wall,
      rows,
      Layers.pool_sample pool ~wall
      @ Layers.cache_sample stats
      @ traced
      @ [
          ("journal.appends", float appends);
          ( "solve.iterations",
            solve_iterations ~distinct:n_distinct
              ~probe_iterations:!probe_iterations stats );
        ] )
  in
  let probe () =
    let s = Layers.solve_probe configs in
    probe_iterations := s.Layers.iterations;
    let records =
      List.map (fun (_, m) -> Cache.encode_measures_line m) s.Layers.solved
    in
    let dir = fresh env in
    let sample =
      [
        ("solve.ns_per_iter", s.Layers.ns_per_iter);
        ("solve.minor_words", s.Layers.minor_words);
      ]
      @ Layers.cache_probe ~dir:(Filename.concat dir "cache") s.Layers.solved
      @ Layers.journal_probe ~path:(Filename.concat dir "journal") records
      @ zero
          [
            "des.events"; "des.ns_per_event"; "des.minor_words_per_event";
            "stpn.events"; "stpn.ns_per_event"; "stpn.minor_words_per_event";
          ]
    in
    rm_rf dir;
    sample
  in
  (* A warm pass takes 0.06-0.1 s.  Its p96 tail over some 280 passes in a
     20 s run rested on disk-latency spikes and spread by 0.38 of its
     median across seeds; four passes per batch average the spikes out. *)
  let passes = if warm && not env.tiny then 4 else 1 in
  { passes; setup; batch; traced; probe }

(* sweep_mesh: Sweep.run over a 4x4 mesh, which routes every solve through
   the general AMVA solver; in-memory cache, no journal, jobs = 1. *)
let sweep_mesh env =
  let base =
    { Params.default with Params.topology = Lattol_topology.Topology.Mesh }
  in
  let n_t, steps =
    if env.tiny then ([ 1; 2 ], 3) else (List.init 10 succ, 11)
  in
  let rng = Lattol_stats.Prng.create ~seed:env.seed () in
  (* Interior p_remote values move by at most +-0.02, less than half the
     0.1 step, so the axis stays ordered and inside (0, 1). *)
  let p_remote =
    List.init steps (fun i ->
        let v = float i /. float (steps - 1) in
        if i = 0 || i = steps - 1 then v
        else v +. ((Lattol_stats.Prng.float rng -. 0.5) *. 0.04))
  in
  let axes =
    [
      { Sweep.param = Sweep.N_t; values = List.map float n_t };
      { Sweep.param = Sweep.P_remote; values = p_remote };
    ]
  in
  let points = List.length (Sweep.points axes) in
  let lookups = Layers.lookups ~base axes in
  let n_lookups = List.length lookups in
  let configs = Layers.distinct lookups in
  let n_distinct = List.length configs in
  let reference = ref "" in
  let run ?monitor ?causal ?on_sweep () =
    let cache = Cache.create () in
    let t0 = now () in
    let rows = Sweep.run ~cache ~jobs:1 ?monitor ?causal ?on_sweep ~base axes in
    let wall = now () -. t0 in
    let ok =
      List.length (List.filter (fun r -> Result.is_ok r.Sweep.result) rows)
    in
    ( wall,
      String.concat "\n" (List.map Sweep.encode_row rows),
      ok,
      Cache.stats cache )
  in
  let check_batch ~rows ~ok ~(stats : Cache.stats) =
    Checks.check "every mesh point solved" (ok = points);
    Checks.check "mesh rows identical across batches"
      (String.equal rows !reference);
    Checks.check "mesh: cache lookups = 3 x grid points"
      (Layers.lookups_of stats = n_lookups);
    Checks.check "mesh: each distinct configuration solved once"
      (stats.solves = n_distinct)
  in
  let setup () =
    let _, rows, ok, _ = run () in
    Checks.check "setup: every mesh point solved" (ok = points);
    if !reference = "" then reference := rows
    else
      Checks.check "setup: mesh rows identical across set-ups"
        (String.equal rows !reference)
  in
  let batch () =
    let wall, rows, ok, stats = run () in
    check_batch ~rows ~ok ~stats;
    (wall, ok)
  in
  let traced () =
    let pool = Layers.pool () in
    let iterations = Atomic.make 0 in
    let on_sweep ~iteration:_ ~residual:_ =
      Atomic.incr iterations;
      Lattol_queueing.Amva.Continue
    in
    let (wall, rows, ok, stats), report =
      with_trace (fun causal ->
          run ~monitor:(Layers.monitor pool) ~causal ~on_sweep ())
    in
    check_batch ~rows ~ok ~stats;
    (* Only positive: a warm-started solve may need fewer iterations than
       the probe's cold solves of the same configurations. *)
    Checks.check "mesh: the solves made AMVA iterations"
      (Atomic.get iterations > 0);
    let traced = trace_sample report in
    observe ~wall ~pool ~solve_busy:(List.assoc "solve.busy_s" traced)
      ~lookups:n_lookups ~stats ~appends:None ~points;
    ( wall,
      ok,
      Layers.pool_sample pool ~wall
      @ Layers.cache_sample stats
      @ traced
      @ [
          ("journal.appends", 0.);
          ("solve.iterations", float (Atomic.get iterations));
        ] )
  in
  let probe () =
    let s = Layers.solve_probe configs in
    [
      ("solve.ns_per_iter", s.Layers.ns_per_iter);
      ("solve.minor_words", s.Layers.minor_words);
    ]
    @ zero
        [
          "cache.store_us"; "cache.disk_read_us"; "journal.append_us";
          "des.events"; "des.ns_per_event"; "des.minor_words_per_event";
          "stpn.events"; "stpn.ns_per_event"; "stpn.minor_words_per_event";
        ]
  in
  { passes = 1; setup; batch; traced; probe }

(* Two-sided 99% Student-t critical values for 1..30 degrees of freedom,
   the normal value beyond. *)
let t99 =
  [|
    63.657; 9.925; 5.841; 4.604; 4.032; 3.707; 3.499; 3.355; 3.250; 3.169;
    3.106; 3.055; 3.012; 2.977; 2.947; 2.921; 2.898; 2.878; 2.861; 2.845;
    2.831; 2.819; 2.807; 2.797; 2.787; 2.779; 2.771; 2.763; 2.756; 2.750;
  |]

(* 99% interval (mean, half width) on U_p across replications. *)
let u_p_interval99 (results : Measures.t list) =
  let m = Lattol_stats.Moments.create () in
  List.iter (fun r -> Lattol_stats.Moments.add m r.Measures.u_p) results;
  let n = Lattol_stats.Moments.count m in
  let t = if n - 1 <= Array.length t99 then t99.(n - 2) else 2.576 in
  ( Lattol_stats.Moments.mean m,
    t *. Lattol_stats.Moments.stddev m /. sqrt (float n) )

(* replicate_sim: DES and STPN replication fan-out on the paper's 4x4
   torus, the seed as the stream root. *)
let replicate_sim env =
  let des_reps, des_horizon, stpn_reps, stpn_horizon =
    if env.tiny then (4, 1_000., 2, 500.) else (16, 1_500., 8, 500.)
  in
  (* The STPN costs about nine times the DES per simulated time unit; a
     short warm-up buys its replications.  Over seeds 0..299 the STPN mean
     U_p matched the DES one to 1e-4. *)
  let stpn_warmup = 250. in
  let params = Params.default in
  let config =
    { Des.default_config with Des.seed = env.seed; horizon = des_horizon }
  in
  let reference = ref "" in
  let run ?monitor () =
    let t0 = now () in
    let des =
      Replicate.des_measures ~jobs:env.jobs ?monitor ~config
        ~replications:des_reps params
    in
    let stpn =
      Replicate.stpn_measures ~jobs:env.jobs ?monitor ~seed:env.seed
        ~warmup:stpn_warmup ~horizon:stpn_horizon ~replications:stpn_reps
        params
    in
    let wall = now () -. t0 in
    let lines s = List.map Cache.encode_measures_line s.Replicate.results in
    (* At 99%, not the summaries' 95%: the DES interval is far narrower
       than the STPN one, so 95% overlap amounts to the STPN interval
       covering the DES mean.  With 4 STPN replications that failed for 4
       seeds in 100 though both simulators agree on the mean.  At these
       sizes no seed in 0..299 fails. *)
    let overlap =
      let m1, h1 = u_p_interval99 des.Replicate.results
      and m2, h2 = u_p_interval99 stpn.Replicate.results in
      Float.abs (m1 -. m2) <= h1 +. h2
    in
    (wall, String.concat "\n" (lines des @ lines stpn), overlap)
  in
  let points = des_reps + stpn_reps in
  let check_batch ~results ~overlap =
    Checks.check "DES and STPN U_p 99% confidence intervals overlap" overlap;
    Checks.check "replications identical across batches"
      (String.equal results !reference)
  in
  let setup () =
    let _, results, overlap = run () in
    Checks.check "setup: DES and STPN U_p 99% confidence intervals overlap" overlap;
    if !reference = "" then reference := results
    else
      Checks.check "setup: replications identical across set-ups"
        (String.equal results !reference)
  in
  let batch () =
    let wall, results, overlap = run () in
    check_batch ~results ~overlap;
    (wall, points)
  in
  let traced () =
    let pool = Layers.pool () in
    let wall, results, overlap = run ~monitor:(Layers.monitor pool) () in
    check_batch ~results ~overlap;
    let none = Cache.stats (Cache.create ()) in
    observe ~wall ~pool ~solve_busy:0. ~lookups:0 ~stats:none ~appends:None
      ~points;
    ( wall,
      points,
      Layers.pool_sample pool ~wall
      @ Layers.cache_sample none
      @ zero
          [
            "solve.busy_s"; "cache.wait_s"; "journal.busy_s"; "journal.appends";
            "solve.iterations";
          ] )
  in
  let probe () =
    Layers.sim_probe "des" (fun () -> (Des.run ~config params).Des.events)
    @ Layers.sim_probe "stpn" (fun () ->
          (Stpn.run ~seed:env.seed ~warmup:stpn_warmup ~horizon:stpn_horizon
             params)
            .Stpn.stats
            .Lattol_petri.Simulation.events)
    @ zero
        [
          "solve.ns_per_iter"; "solve.minor_words"; "cache.store_us";
          "cache.disk_read_us"; "journal.append_us";
        ]
  in
  { passes = 1; setup; batch; traced; probe }

let workloads =
  [
    ("figures_cold", fun env -> figures env ~warm:false);
    ("figures_warm", fun env -> figures env ~warm:true);
    ("sweep_mesh", sweep_mesh);
    ("replicate_sim", replicate_sim);
  ]

(* ---- One run ---- *)

let setup_repeats = 5

(* peak_rss_mb is read after this many untraced batches, so it does not
   depend on how many batches the machine's speed fits into the run: the
   heap of a process that keeps spawning pool domains grows with every
   map, though its live data does not. *)
let rss_batches = 10

type outcome = {
  metrics : (spec * float) list;
  attempted : int;
  failed : int;
  notes : string list;  (** human lines: sample counts, context *)
}

let metric specs name value =
  (List.find (fun s -> String.equal s.name name) specs, value)

let run_workload env ~name ~seconds ~trace =
  let w = (List.assoc name workloads) env in
  let setups =
    List.init setup_repeats (fun _ ->
        let t0 = now () in
        w.setup ();
        now () -. t0)
  in
  let probe = if trace then w.probe () else [] in
  let walls = ref [] and traced_walls = ref [] and samples = ref [] in
  let points = ref 0 in
  let rss = ref Float.nan in
  let repeat pass =
    let wall = ref 0. in
    for _ = 1 to w.passes do
      let t, n = pass () in
      wall := !wall +. t;
      points := !points + n
    done;
    !wall
  in
  let t_end = now () +. seconds in
  let rec loop i =
    (* Traced runs alternate untraced and traced batches, so both see the
       same machine state and their ratio is the tracing overhead. *)
    if trace && i mod 2 = 1 then begin
      let wall =
        repeat (fun () ->
            let wall, n, sample = w.traced () in
            samples := sample :: !samples;
            (wall, n))
      in
      traced_walls := wall :: !traced_walls
    end
    else begin
      walls := repeat w.batch :: !walls;
      if List.length !walls = rss_batches then rss := peak_rss_mb ()
    end;
    if now () < t_end || (trace && !samples = []) then loop (i + 1)
  in
  loop 0;
  let walls = List.rev !walls in
  let list xs = String.concat " " (List.map (Printf.sprintf "%.4f") xs) in
  let metrics, notes =
    if not trace then begin
      let t = tail walls in
      let total = List.fold_left ( +. ) 0. walls in
      ( [
          metric end_to_end "setup_s" (median setups);
          metric end_to_end "batch_p50_s" (median walls);
          metric end_to_end "batch_tail_s" t.value;
          metric end_to_end "points_per_s" (float !points /. total);
          metric end_to_end "peak_rss_mb"
            (if Float.is_nan !rss then peak_rss_mb () else !rss);
        ],
        [
          Printf.sprintf "setup_s is the median of %d set-ups: %s"
            setup_repeats (list setups);
          Printf.sprintf "batch_p50_s over %d batches: %s" t.samples
            (list walls);
          Printf.sprintf "batch_tail_s is p%d: %d of %d batches beyond it"
            tail_pct t.beyond t.samples;
          Printf.sprintf "peak_rss_mb over set-up and the first %d batches"
            (min rss_batches t.samples);
        ] )
    end
    else begin
      let per name =
        match List.assoc_opt name probe with
        | Some v -> v
        | None ->
          median (List.filter_map (fun s -> List.assoc_opt name s) !samples)
      in
      let overhead = median !traced_walls /. median walls in
      ( List.map
          (fun s ->
            ( s,
              if String.equal s.name "trace.overhead_ratio" then overhead
              else per s.name ))
          per_layer,
        [
          Printf.sprintf "per-layer medians over %d traced passes; batches: %s"
            (List.length !samples) (list (List.rev !traced_walls));
          Printf.sprintf "untraced batches for trace.overhead_ratio: %s"
            (list walls);
        ] )
    end
  in
  { metrics; attempted = !points + !Checks.made; failed = Checks.failed ();
    notes }

(* ---- Output ---- *)

let json_number v = Printf.sprintf "%.17g" v

let result_json ~correct ~attempted ~failed metrics =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (s, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" s.name
              (json_number v) s.unit_)
          metrics))

let context_json env ~workload ~trace =
  Printf.sprintf
    "{\"workload\": \"%s\", \"trace\": %b, \"seed\": %d, \"nproc\": %d, \
     \"available_cores\": %d, \"ocaml\": \"%s\", \"loadavg\": %s, \
     \"tail_pct\": %d}"
    workload trace env.seed env.jobs (Pool.available_cores ()) Sys.ocaml_version
    (json_number (loadavg ())) tail_pct

let usage () =
  prerr_endline
    "usage: perfbench.exe run --workload NAME --seed N --seconds S --trace 0|1 \
     --jobs J [--out FILE]\n\
    \       perfbench.exe selftest --jobs J\n\
    \       perfbench.exe spec";
  exit 2

type args = {
  mutable a_workload : string;
  mutable a_seed : int;
  mutable a_seconds : float;
  mutable a_trace : bool;
  mutable a_jobs : int;
  mutable a_out : string option;
}

let parse argv =
  let a =
    { a_workload = ""; a_seed = 1; a_seconds = 10.; a_trace = false; a_jobs = 0;
      a_out = None }
  in
  let int_of s =
    match int_of_string_opt s with Some n -> n | None -> usage ()
  in
  let rec go = function
    | "--workload" :: v :: r -> a.a_workload <- v; go r
    | "--seed" :: v :: r -> a.a_seed <- int_of v; go r
    | "--seconds" :: v :: r ->
      (match float_of_string_opt v with
       | Some s when s > 0. -> a.a_seconds <- s
       | _ -> usage ());
      go r
    | "--trace" :: ("0" | "1" as v) :: r -> a.a_trace <- v = "1"; go r
    | "--jobs" :: v :: r -> a.a_jobs <- int_of v; go r
    | "--out" :: v :: r -> a.a_out <- Some v; go r
    | [] -> ()
    | _ -> usage ()
  in
  go argv;
  if a.a_jobs < 1 then usage ();
  a

let make_env ~jobs ~seed ~tiny =
  let work =
    Filename.concat "perfbench" (Printf.sprintf "_work/%d" (Unix.getpid ()))
  in
  rm_rf work;
  mkdir_p work;
  { jobs; seed; tiny; work; golden_dir = Filename.concat "test" "golden" }

let cleanup env =
  rm_rf env.work;
  (* the parent _work directory goes too once no run is using it *)
  try Unix.rmdir (Filename.dirname env.work) with Unix.Unix_error _ -> ()

let run_cmd a =
  if not (List.mem_assoc a.a_workload workloads) then begin
    Printf.eprintf "unknown workload %S (known: %s)\n" a.a_workload
      (String.concat ", " (List.map fst workloads));
    exit 2
  end;
  if not (Sys.file_exists (Filename.concat "test" "golden")) then begin
    prerr_endline
      "perfbench: run from the repository root (test/golden/ is missing)";
    exit 2
  end;
  if not (Sys.file_exists Checks.numdiff_exe) then begin
    prerr_endline ("perfbench: build " ^ Checks.numdiff_exe ^ " first (run.py does)");
    exit 2
  end;
  let env = make_env ~jobs:a.a_jobs ~seed:a.a_seed ~tiny:false in
  let context = context_json env ~workload:a.a_workload ~trace:a.a_trace in
  Printf.printf "context %s\n%!" context;
  let o =
    Fun.protect ~finally:(fun () -> cleanup env) (fun () ->
        run_workload env ~name:a.a_workload ~seconds:a.a_seconds
          ~trace:a.a_trace)
  in
  List.iter (fun n -> Printf.printf "# %s\n" n) o.notes;
  let finite = List.for_all (fun (_, v) -> Float.is_finite v) o.metrics in
  if not finite then prerr_endline "perfbench: a metric is not finite";
  List.iter
    (fun (s, v) -> Printf.printf "%-28s %.6g %s\n" s.name v s.unit_)
    o.metrics;
  Printf.printf "%-28s %.6g (%d of %d)\n" "failed_frac"
    (float o.failed /. float (max 1 o.attempted)) o.failed o.attempted;
  let failed = o.failed + if finite then 0 else 1 in
  let correct = failed = 0 in
  let metrics =
    List.map (fun (s, v) -> (s, if Float.is_finite v then v else -1.)) o.metrics
  in
  let line = result_json ~correct ~attempted:o.attempted ~failed metrics in
  (match a.a_out with
   | None -> ()
   | Some path ->
     Out_channel.with_open_text path (fun oc ->
         Printf.fprintf oc "{\"context\": %s, \"result\": %s}\n" context line));
  print_endline line;
  if not correct then exit 1

(* ---- Self-test ---- *)

(* Scale one value of the fourth line by 1.001: a 1e-3 relative error,
   ten times the golden tolerance. *)
let perturb csv =
  String.concat "\n"
    (List.mapi
       (fun i line ->
         match String.split_on_char ',' line with
         | f0 :: f1 :: rest when i = 3 ->
           String.concat ","
             (f0 :: Printf.sprintf "%.6f" (float_of_string f1 *. 1.001) :: rest)
         | _ -> line)
       (String.split_on_char '\n' csv))

let selftest jobs =
  let problems = ref 0 in
  let expect what ok =
    Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") what;
    if not ok then incr problems
  in
  List.iter
    (fun (name, _) ->
      List.iter
        (fun trace ->
          Checks.made := 0;
          Checks.failures := [];
          let env = make_env ~jobs ~seed:7 ~tiny:true in
          let o =
            Fun.protect ~finally:(fun () -> cleanup env) (fun () ->
                run_workload env ~name ~seconds:0.2 ~trace)
          in
          let specs = if trace then per_layer else end_to_end in
          let label =
            Printf.sprintf "%s --trace %d:" name (Bool.to_int trace)
          in
          expect (label ^ " every named metric is present")
            (List.equal String.equal
               (List.map (fun (s, _) -> s.name) o.metrics)
               (List.map (fun s -> s.name) specs));
          expect (label ^ " every value is finite")
            (List.for_all (fun (_, v) -> Float.is_finite v) o.metrics);
          expect (label ^ " every metric has its unit")
            (List.for_all (fun (s, _) -> s.unit_ <> "") o.metrics);
          expect (label ^ " every output check passes")
            (o.failed = 0 && o.attempted > 0))
        [ false; true ])
    workloads;
  let golden_path =
    Filename.concat "test" (Filename.concat "golden" "saturation.csv")
  in
  let golden = read_file golden_path in
  let corrupted = perturb golden in
  let env = make_env ~jobs ~seed:7 ~tiny:true in
  Fun.protect ~finally:(fun () -> cleanup env) (fun () ->
      let path = Filename.concat env.work "corrupted.csv" in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc corrupted);
      expect "a golden matches itself" (Checks.numdiff ~golden_path golden_path);
      expect "a corrupted CSV fails the golden comparison"
        (not (Checks.numdiff ~golden_path path)));
  expect "a corrupted CSV fails the byte-identity check"
    (not
       (same_outputs [ ("saturation", golden) ] [ ("saturation", corrupted) ]));
  let stats =
    { Cache.memo_hits = 251; disk_hits = 0; misses = 490; solves = 490;
      stores = 490; corrupt = 0; tmp_reclaimed = 0 }
  in
  let good =
    { Layers.wall = 1.; jobs = 2; busy = 1.5; in_loop = 1.8; solve_busy = 1.2;
      lookups = 741; stats; appends = Some 247; points = 247 }
  in
  let holds o = List.for_all snd (Layers.sanity o) in
  expect "consistent counters pass every sanity bound" (holds good);
  List.iter
    (fun (what, bad) ->
      expect ("a wrong counter is caught: " ^ what) (not (holds bad)))
    [
      ("a miss counted twice", { good with stats = { stats with misses = 491 } });
      ("a solve not counted", { good with stats = { stats with solves = 489 } });
      ("a lost journal append", { good with appends = Some 246 });
      ("solve time beyond jobs x wall", { good with solve_busy = 2.5 });
      ("pool time beyond jobs x wall", { good with in_loop = 2.5 });
    ];
  if !problems > 0 then begin
    Printf.printf "%d self-test failures\n" !problems;
    exit 1
  end

let spec_cmd () =
  List.iter (fun (name, _) -> Printf.printf "workload %s\n" name) workloads;
  let print kind =
    List.iter (fun s ->
        Printf.printf "%s %s %s %s\n" kind s.name s.unit_ s.better)
  in
  print "end_to_end" end_to_end;
  print "per_layer" per_layer

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: rest -> run_cmd (parse rest)
  | [ "spec" ] -> spec_cmd ()
  | [ "selftest"; "--jobs"; j ] -> (
    match int_of_string_opt j with
    | Some j when j >= 1 -> selftest j
    | _ -> usage ())
  | _ -> usage ()
