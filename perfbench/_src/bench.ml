(** The repository's end-to-end benchmark: four workloads driven through
    the public entry points a user runs, timed from outside the library.

    {v
    bench.exe WORKLOAD --seed N --seconds S --trace 0|1 --cli PATH [--toy] [--plant]
    v}

    - [train-grid]: Figure 7's shape — Game0, 104 classes, the histogram
      embedding, all six flat models.  The trainers do nearly all the work.
    - [evade-grid]: the rows of Figures 8 and 11 — Game1 and Game3 (O3
      normalizer) for all eight evaders, against rf, at 24 classes.  The
      evaders and O3 do nearly all the work; training is small.
    - [serve-mixed]: the [yali serve] daemon ([PATH serve]): closed-loop
      bursts that saturate it (their [wall_s] is the daemon's CPU time),
      then an open-loop schedule at two fixed offered rates.  Requests mix
      repeated IR blobs (embedding-cache hits), never-seen IR blobs
      (misses) and mini-C source the daemon parses and lowers.
    - [adapt-search]: hill-climbing pass-sequence search against rf and lr;
      the only workload that executes programs.

    Set-up is timed first, several times, and reported as a median.  A
    batch workload then repeats a unit (one grid, one search) until
    [--seconds] have passed and reports the median repetition.  Every
    repetition draws fresh programs from the seed, so the lowering and
    embedding caches start cold for each one, as they do for a user
    running a figure in a fresh process.  End-to-end times are scaled to a
    reference host speed (see [at_reference_speed]).

    With [--trace 0] the last line carries the end-to-end metrics.  With
    [--trace 1] repetitions alternate between untraced and traced, and the
    last line carries per-layer metrics, gathered by wrapping each layer's
    public functions in domain-safe timers: the [Game.setup] closures, the
    embedding's extractor, the trainers, the search evaluator's parts.

    Correctness is checked outside the timed region by independent means
    and reported as [attempted]/[failed].  [--toy] shrinks every input for
    the self-test; [--plant] adds a challenge transform that prints one
    extra value, which the evade-grid checks must count as failures. *)

module Rng = Yali.Rng
module E = Yali.Embeddings
module Ml = Yali.Ml
module G = Yali.Games
module Ob = Yali.Obfuscation
module Ir = Yali.Ir
module Tx = Yali.Transforms
module Exec = Yali.Exec
module Minic = Yali.Minic
module Poj = Yali.Dataset.Poj
module D = Yali.Adapt.Driver
module Fit = Yali.Adapt.Fitness
module Serve = Yali.Serve
module W = Yali.Serve.Wire

let now = Unix.gettimeofday

(* Fixed, so that hosts with different core counts do the same work.  One
   worker: on a 2-core host the parallel path bought no wall time and
   doubled the run-to-run spread of peak RSS. *)
let jobs = 1

let rep_seed seed k = (seed * 1_000_003) + k

(* ------------------------------------------------------------------ *)
(* Layer accounting                                                    *)
(* ------------------------------------------------------------------ *)

(* One accumulator per metric name: nanoseconds and a call (or unit)
   count.  Atomics, because wrapped closures run on every pool domain. *)
type acc = { ns : int Atomic.t; n : int Atomic.t }

let accs : (string, acc) Hashtbl.t = Hashtbl.create 64
let accs_lock = Mutex.create ()

let acc name =
  Mutex.protect accs_lock (fun () ->
      match Hashtbl.find_opt accs name with
      | Some a -> a
      | None ->
          let a = { ns = Atomic.make 0; n = Atomic.make 0 } in
          Hashtbl.add accs name a;
          a)

let add_seconds a dt =
  ignore (Atomic.fetch_and_add a.ns (int_of_float (dt *. 1e9)));
  Atomic.incr a.n

let count name k = ignore (Atomic.fetch_and_add (acc name).n k)
let seconds_of name = float_of_int (Atomic.get (acc name).ns) /. 1e9
let count_of name = float_of_int (Atomic.get (acc name).n)

(** [timed name f] is [f] with the wall time of every call added to
    [name].  A [~busy] span is a layer's leaf work, on whichever domain
    runs it; busy spans never nest, and their sum is the layers' busy
    time, which should cover a repetition's wall time. *)
let timed ?(busy = false) name f =
  let a = acc name in
  let busy_acc = if busy then Some (acc "trace.busy") else None in
  fun x ->
    let t0 = now () in
    let finish () =
      let dt = now () -. t0 in
      add_seconds a dt;
      Option.iter (fun b -> add_seconds b dt) busy_acc
    in
    match f x with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e

let span ~traced ?busy name f = if traced then timed ?busy name f () else f ()

(* Counters the library keeps itself, accumulated as deltas over the
   traced repetitions. *)
let library_counters =
  [
    "pool.tasks";
    "pool.steals";
    "cache.game.lower.hits";
    "cache.game.lower.misses";
    "cache.embed.flat.hits";
    "cache.embed.flat.misses";
  ]

let with_counter_deltas ~traced f =
  if not traced then f ()
  else begin
    let before = List.map Exec.Telemetry.counter library_counters in
    let r = f () in
    List.iter2
      (fun name b -> count ("delta." ^ name) (Exec.Telemetry.counter name - b))
      library_counters before;
    r
  end

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

let metrics : (string * float * string) list ref = ref []
let metric name unit v = metrics := (name, v, unit) :: !metrics
let attempted = ref 0
let failed = ref 0

let check ok =
  incr attempted;
  if not ok then incr failed

let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median = quantile 0.5

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* VmHWM of a process, from /proc/<pid>/status. *)
let peak_rss_mb pid =
  In_channel.with_open_text (Printf.sprintf "/proc/%s/status" pid) (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> 0.0
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %d"
              (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> go ()
      in
      go ())

(* CPU seconds (user and system) a process has used, from
   /proc/<pid>/stat in clock ticks of 1/100 s, Linux's fixed USER_HZ. *)
let cpu_seconds pid =
  let line = In_channel.with_open_text (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all in
  (* fields after the parenthesised command name, which may hold spaces *)
  let rest = String.sub line (String.rindex line ')' + 2) (String.length line - String.rindex line ')' - 2) in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  float_of_int (int_of_string fields.(11) + int_of_string fields.(12)) /. 100.0

let print_json () =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let body =
    List.rev !metrics
    |> List.map (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
    |> String.concat ", "
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0 && !attempted > 0)
    !attempted !failed body

(* ------------------------------------------------------------------ *)
(* Host speed                                                          *)
(* ------------------------------------------------------------------ *)

(* This shared host's speed drifts by up to half within seconds: a fixed
   loop took from 15.5 to 24 ms from one second to the next, and a slow
   period can outlast a run.  So each timing that feeds an end-to-end
   metric is scaled to a reference speed: multiplied by [reference_s]
   over the time a fixed kernel takes just before and just after the
   timed work.  The kernel sorts a fixed float array (branches, compares,
   allocation), multiplies two fixed matrices (float arithmetic) and
   streams over 4 MB (memory bandwidth), with the Stdlib alone, so no
   change to the library moves it. *)
let reference_s = 0.003
let calibration_data = Array.init 8_000 (fun i -> float_of_int (i * 7919 mod 8_009))
let calibration_matrix = Array.init (64 * 64) (fun i -> float_of_int (i mod 17) /. 17.0)
let calibration_stream = Array.make (512 * 1024) 1.0

let calibration_kernel () =
  let a = Array.copy calibration_data in
  Array.sort compare a;
  let m = calibration_matrix and n = 64 in
  let c = Array.make (n * n) 0.0 in
  for i = 0 to n - 1 do
    for k = 0 to n - 1 do
      let x = m.((i * n) + k) in
      for j = 0 to n - 1 do
        c.((i * n) + j) <- c.((i * n) + j) +. (x *. m.((k * n) + j))
      done
    done
  done;
  let b = calibration_stream in
  for i = 0 to Array.length b - 1 do
    b.(i) <- (b.(i) *. 0.5) +. 0.5
  done;
  ignore (Sys.opaque_identity (a, c, b))

let calibration () =
  median
    (List.init 3 (fun _ ->
         let t0 = now () in
         calibration_kernel ();
         now () -. t0))

(** [f ()] and the factor that scales its timings to the reference speed. *)
let at_reference_speed f =
  let c0 = calibration () in
  let r = f () in
  (r, 2.0 *. reference_s /. (c0 +. calibration ()))

(* ------------------------------------------------------------------ *)
(* Repetitions of a batch workload                                     *)
(* ------------------------------------------------------------------ *)

type rep = {
  r_wall : float;  (** seconds of the measured unit *)
  r_traced : bool;
  r_scale : float;  (** to the reference speed; 1 when traced *)
}

(* Inside an untraced repetition the host's speed is sampled between
   segments of work, so each segment is scaled by the speed around it
   rather than the whole repetition by the speed at its two ends. *)
let calibrating = ref false
let last_calibration = ref None
let seg_raw = ref 0.0
let seg_scaled = ref 0.0

(** [segment f] is [f ()]; in an untraced repetition its time is added to
    the repetition's raw and reference-speed totals. *)
let segment f =
  if not !calibrating then f ()
  else begin
    let c0 =
      match !last_calibration with Some c -> c | None -> calibration ()
    in
    let t0 = now () in
    let r = f () in
    let dt = now () -. t0 in
    let c1 = calibration () in
    last_calibration := Some c1;
    seg_raw := !seg_raw +. dt;
    seg_scaled := !seg_scaled +. (dt *. 2.0 *. reference_s /. (c0 +. c1));
    r
  end

(* Set-up time per set-up, at the reference speed.  One sample times
   enough consecutive set-ups ([f i] for distinct [i], so no cache carries
   over) to last about 50 ms; the result is the median of seven samples.
   [f i] returns what undoes it, run after the sample's clock stops. *)
let measure_setup (f : int -> unit -> unit) =
  let timed_calls first per =
    let t0 = now () in
    let undo = List.init per (fun i -> f (first + i)) in
    let dt = now () -. t0 in
    List.iter (fun u -> u ()) undo;
    dt /. float_of_int per
  in
  let per = max 1 (int_of_float (Float.ceil (0.05 /. Float.max (timed_calls 0 1) 1e-6))) in
  median
    (List.init 7 (fun j ->
         let dt, scale = at_reference_speed (fun () -> timed_calls (1 + (j * per)) per) in
         dt *. scale))

(* Runs repetitions for [seconds]; the peak RSS is read after the first
   [min_reps], since each repetition adds to the library's caches and a
   fast host fits more repetitions in. *)
let run_reps ~seconds ~trace (f : int -> traced:bool -> rep) : rep list * float =
  let min_reps = if trace then 4 else 3 in
  let rss = ref 0.0 in
  let t0 = now () in
  let rec go k acc =
    if k = min_reps then rss := peak_rss_mb "self";
    if k >= min_reps && now () -. t0 >= seconds then List.rev acc
    else
      let r =
        if trace then f k ~traced:(k mod 2 = 1)
        else begin
          calibrating := true;
          last_calibration := None;
          seg_raw := 0.0;
          seg_scaled := 0.0;
          let r = f k ~traced:false in
          calibrating := false;
          (* the segments cover the repetition's measured work *)
          { r with r_wall = !seg_raw; r_scale = ratio !seg_scaled !seg_raw }
        end
      in
      go (k + 1) (r :: acc)
  in
  let reps = go 0 [] in
  (reps, !rss)

let walls reps = List.map (fun r -> r.r_wall) reps

(* Wall time is taken per repetition, scaled to the reference speed, and
   the median over the run's repetitions is reported. *)
let median_of f xs = median (List.map f xs)

let emit_end_to_end ~setup_s ~rss reps =
  Printf.printf "%d repetitions, walls (s), scales:%s\n" (List.length reps)
    (String.concat ""
       (List.map (fun r -> Printf.sprintf " %.3f/%.2f" r.r_wall r.r_scale) reps));
  metric "setup_s" "s" setup_s;
  metric "wall_s" "s" (median_of (fun r -> r.r_wall *. r.r_scale) reps);
  metric "peak_rss_mb" "MB" rss

let flat_models = List.map (fun (m : Ml.Model.flat) -> m.fname) Ml.Model.all_flat
let evader_names = List.map (fun (e : Ob.Evader.t) -> e.ename) Ob.Evader.active

(* Every per-layer metric a batch workload can produce; a layer the
   workload never calls reads 0.  Times and counts are per traced
   repetition. *)
let emit_layers reps =
  let traced = List.filter (fun r -> r.r_traced) reps in
  let plain = List.filter (fun r -> not r.r_traced) reps in
  let n = float_of_int (List.length traced) in
  let per_rep name = seconds_of name /. n in
  let count_per_rep name = count_of name /. n in
  let total_wall = List.fold_left ( +. ) 0.0 (walls traced) in
  let traced_wall = median (walls traced) in
  let plain_wall = median (walls plain) in
  metric "trace.wall_s" "s" traced_wall;
  metric "trace.untraced_wall_s" "s" plain_wall;
  metric "trace.overhead_s" "s" (traced_wall -. plain_wall);
  metric "trace.overhead_share" "share" (ratio (traced_wall -. plain_wall) plain_wall);
  metric "trace.coverage" "share" (ratio (seconds_of "trace.busy") total_wall);
  metric "exec.busy_share" "share"
    (ratio (seconds_of "trace.busy") (total_wall *. float_of_int jobs));
  metric "exec.jobs" "count" (float_of_int jobs);
  metric "exec.pool_tasks" "count" (count_per_rep "delta.pool.tasks");
  metric "exec.pool_steals" "count" (count_per_rep "delta.pool.steals");
  let hit_rate cache =
    let h = count_of ("delta.cache." ^ cache ^ ".hits") in
    ratio h (h +. count_of ("delta.cache." ^ cache ^ ".misses"))
  in
  metric "exec.lower_cache_hit_rate" "share" (hit_rate "game.lower");
  metric "embeddings.cache_hit_rate" "share" (hit_rate "embed.flat");
  metric "dataset.gen_s" "s" (per_rep "dataset.gen_s");
  metric "dataset.programs" "count" (count_per_rep "dataset.programs");
  metric "games.build_modules_s" "s" (per_rep "games.build_modules_s");
  metric "minic.lower_s" "s" (per_rep "minic.lower_s");
  metric "minic.lower_calls" "count" (count_per_rep "minic.lower_s");
  metric "minic.instrs_out" "count" (count_per_rep "minic.instrs_out");
  metric "embeddings.embed_s" "s" (per_rep "embeddings.embed_s");
  metric "embeddings.rows" "count" (count_per_rep "embeddings.rows");
  List.iter
    (fun m ->
      metric ("ml.train_s." ^ m) "s" (per_rep ("ml.train_s." ^ m));
      metric ("ml.predict_s." ^ m) "s" (per_rep ("ml.predict_s." ^ m)))
    flat_models;
  metric "ml.cnn_rows_per_s" "1/s"
    (ratio (count_of "ml.cnn_rows") (seconds_of "ml.train_s.cnn"));
  List.iter
    (fun e ->
      metric ("obfuscation.apply_s." ^ e) "s" (per_rep ("obfuscation.apply_s." ^ e));
      metric ("obfuscation.growth." ^ e) "x"
        (ratio (count_of ("growth.out." ^ e)) (count_of ("growth.in." ^ e))))
    evader_names;
  List.iter
    (fun w ->
      metric ("transforms.o3_s." ^ w) "s" (per_rep ("transforms.o3_s." ^ w));
      metric ("transforms.o3_shrink." ^ w) "x"
        (ratio (count_of ("transforms.o3_out." ^ w)) (count_of ("transforms.o3_in." ^ w))))
    [ "plain"; "obfuscated" ];
  let steps = count_of "vm.steps" and run_s = seconds_of "vm.run_s" in
  metric "vm.runs" "count" (count_per_rep "vm.run_s");
  metric "vm.steps" "count" (steps /. n);
  metric "vm.run_s" "s" (run_s /. n);
  metric "vm.mips" "MIPS" (ratio steps run_s /. 1e6);
  metric "obfuscation.seq_apply_s" "s" (per_rep "obfuscation.seq_apply_s");
  let evals = count_of "adapt.evals" in
  metric "adapt.evals" "count" (evals /. n);
  metric "adapt.eval_ms" "ms" (ratio (seconds_of "adapt.evals" *. 1000.0) evals);
  metric "adapt.oracle_s" "s" (per_rep "adapt.oracle_s");
  metric "adapt.rejected_share" "share" (ratio (count_of "adapt.rejected") evals)

let accuracies = ref []

let batch_workload ~seconds ~trace ~setup rep =
  let setup_s = measure_setup setup in
  let reps, rss = run_reps ~seconds ~trace rep in
  if trace then begin
    emit_layers reps;
    metric "accuracy" "share" (mean !accuracies)
  end
  else emit_end_to_end ~setup_s ~rss reps

(* ------------------------------------------------------------------ *)
(* Pieces shared by the grids                                          *)
(* ------------------------------------------------------------------ *)

type grid = { classes : int; train_pc : int; test_pc : int }

(* Dataset generation: the grids' whole set-up. *)
let gen_split g rng =
  Poj.make rng ~n_classes:g.classes ~train_per_class:g.train_pc ~test_per_class:g.test_pc

let grid_setup g ~seed i =
  ignore (gen_split g (Rng.make (rep_seed seed (-1 - i))));
  ignore

let make_split g rng ~traced =
  let split = span ~traced "dataset.gen_s" (fun () -> gen_split g rng) in
  if traced then count "dataset.programs" (Array.length split.train + Array.length split.test);
  split

(* [Game.passive] (the cached -O0 lowering), timed. *)
let traced_passive () =
  let lower = timed ~busy:true "minic.lower_s" (fun (rng, p) -> G.Game.passive rng p) in
  fun rng p ->
    let m = lower (rng, p) in
    count "minic.instrs_out" (Ir.Irmod.instr_count m);
    m

(* The histogram embedding with its extractor timed.  The name is
   unchanged, so it shares the content-addressed cache and its results. *)
let histogram ~traced =
  let h = E.Embedding.histogram in
  match h.E.Embedding.kind with
  | E.Embedding.Flat f when traced ->
      { h with E.Embedding.kind = E.Embedding.Flat (timed ~busy:true "embeddings.extract_s" f) }
  | _ -> h

let build ~traced rng setup split =
  span ~traced "games.build_modules_s" (fun () ->
      G.Arena.build_modules rng setup split)

let embed ~traced emb mods =
  if traced then count "embeddings.rows" (Array.length mods);
  span ~traced "embeddings.embed_s" (fun () -> G.Arena.embed_fmat emb mods)

(* One flat-model cell: train on [xs], classify [xt]. *)
let model_cell ~traced rng ~n_classes (m : Ml.Model.flat) xs ys xt =
  let trained =
    span ~traced ~busy:true ("ml.train_s." ^ m.fname) (fun () ->
        m.ftrain rng ~n_classes xs ys)
  in
  if traced && m.fname = "cnn" then
    count "ml.cnn_rows" (xs.Ml.Fmat.n * Ml.Cnn.default_params.epochs);
  let pred =
    span ~traced ~busy:true ("ml.predict_s." ^ m.fname) (fun () ->
        trained.Ml.Model.predict_batch xt)
  in
  (trained, pred)

let accuracy truth pred =
  let hits = ref 0 in
  Array.iteri (fun i p -> if p = truth.(i) then incr hits) pred;
  ratio (float_of_int !hits) (float_of_int (Array.length truth))

(* ------------------------------------------------------------------ *)
(* train-grid                                                          *)
(* ------------------------------------------------------------------ *)

let train_grid g ~seed k ~traced =
  let rng = Rng.make (rep_seed seed k) in
  let split = make_split g (Rng.split rng) ~traced in
  let game =
    if traced then
      let lower = traced_passive () in
      { G.Game.game0 with G.Game.train_tx = lower; challenge_tx = lower }
    else G.Game.game0
  in
  let emb = histogram ~traced in
  let t0 = now () in
  let test_mods, xt, cells =
    with_counter_deltas ~traced (fun () ->
        let test_mods, xs, ys, xt =
          segment (fun () ->
              let train_mods, test_mods = build ~traced (Rng.split rng) game split in
              let xs = embed ~traced emb train_mods in
              (test_mods, xs, Array.map snd train_mods, embed ~traced emb test_mods))
        in
        let cells =
          List.map
            (fun m ->
              let rng = Rng.split rng in
              segment (fun () -> model_cell ~traced rng ~n_classes:g.classes m xs ys xt))
            Ml.Model.all_flat
        in
        (test_mods, xt, cells))
  in
  let wall = now () -. t0 in
  (* independent checks: the cached embedding rows against the uncached
     extractor, and each bulk [predict_batch] against per-row [predict] *)
  Array.iteri
    (fun i (m, _) ->
      check (Ml.Fmat.row_copy xt i = E.Embedding.to_flat E.Embedding.histogram m))
    test_mods;
  let truth = Array.map snd test_mods in
  List.iter
    (fun ((trained : Ml.Model.trained), pred) ->
      check (Array.length pred = xt.Ml.Fmat.n);
      Array.iteri
        (fun i p ->
          check (p >= 0 && p < g.classes && p = trained.predict (Ml.Fmat.row_copy xt i)))
        pred;
      accuracies := accuracy truth pred :: !accuracies)
    cells;
  { r_wall = wall; r_traced = traced; r_scale = 1.0 }

(* ------------------------------------------------------------------ *)
(* evade-grid                                                          *)
(* ------------------------------------------------------------------ *)

(* The IR-level evaders' passes; the other evaders are source strategies. *)
let ir_pass = function
  | "O3" -> Some (fun _ m -> Tx.Pipeline.o3 m)
  | "sub" -> Some (fun r m -> Ob.Sub.run r m)
  | "bcf" -> Some (fun r m -> Ob.Bcf.run r m)
  | "fla" -> Some Ob.Fla.run
  | "ollvm" -> Some (fun r m -> Ob.Ollvm.run r m)
  | _ -> None

(* [e.apply] rebuilt from the same public parts, following Evader's own
   recipe (lower then pass, or source strategy then lower), so each part
   can be timed.  [check_rebuilt_evaders] pins it to [e.apply]. *)
let rebuilt_evader ~timing (e : Ob.Evader.t) =
  let t ?busy name f = if timing then timed ?busy name f else f in
  let lower = t ~busy:true "minic.lower_s" (fun p -> Minic.Lower.lower_program p) in
  let name = "obfuscation.apply_s." ^ e.ename in
  match ir_pass e.ename with
  | Some pass ->
      let pass = t ~busy:true name (fun (r, m) -> pass r m) in
      fun rng p -> pass (rng, lower p)
  | None ->
      let s = Option.get (Ob.Strategies.find e.ename) in
      let tx = t ~busy:true name (fun (r, p) -> s.run r p) in
      fun rng p -> lower (tx (rng, p))

let check_rebuilt_evaders ~seed =
  let split =
    Poj.make (Rng.make seed) ~n_classes:4 ~train_per_class:0 ~test_per_class:1
  in
  List.iter
    (fun (e : Ob.Evader.t) ->
      let rebuilt = rebuilt_evader ~timing:false e in
      Array.iteri
        (fun i (l : Poj.labelled) ->
          let a = e.apply (Rng.make (rep_seed seed i)) l.src in
          let b = rebuilt (Rng.make (rep_seed seed i)) l.src in
          check (E.Embedding.digest a = E.Embedding.digest b))
        split.test)
    Ob.Evader.active

let traced_o3 which =
  let o3 = timed ~busy:true ("transforms.o3_s." ^ which) Tx.Pipeline.o3 in
  fun m ->
    let m' = o3 m in
    count ("transforms.o3_in." ^ which) (Ir.Irmod.instr_count m);
    count ("transforms.o3_out." ^ which) (Ir.Irmod.instr_count m');
    m'

(* A challenge transform that prints one extra value first: a planted
   divergence the semantic checks must catch. *)
let plant_output (p : Minic.Ast.program) : Minic.Ast.program =
  {
    pfuncs =
      List.map
        (fun (f : Minic.Ast.func) ->
          if f.fname = "main" then
            { f with fbody = Minic.Ast.(Expr (Call ("print_int", [ IntLit 7 ]))) :: f.fbody }
          else f)
        p.pfuncs;
  }

let evade_rows ~traced ~plant : G.Game.setup list =
  let rows =
    if not traced then
      List.map G.Game.game1 Ob.Evader.active
      @ List.map (fun e -> G.Game.game3 e) Ob.Evader.active
    else
      let passive = traced_passive () in
      let o3_plain = traced_o3 "plain" and o3_obf = traced_o3 "obfuscated" in
      List.map
        (fun e ->
          {
            (G.Game.game1 e) with
            G.Game.train_tx = passive;
            challenge_tx = rebuilt_evader ~timing:true e;
          })
        Ob.Evader.active
      @ List.map
          (fun e ->
            {
              (G.Game.game3 e) with
              G.Game.train_tx = (fun rng p -> o3_plain (passive rng p));
              challenge_tx = rebuilt_evader ~timing:true e;
              normalize = o3_obf;
            })
          Ob.Evader.active
  in
  match rows with
  | first :: rest when plant ->
      { first with G.Game.challenge_tx = (fun rng p -> first.challenge_tx rng (plant_output p)) }
      :: rest
  | _ -> rows

(* Fuel of an -O0 original on one seeded input; challenges get the
   adaptive evader's 16x headroom. *)
let fuel = 2_000_000

let observe ~fuel m input =
  match Ir.Interp.run ~fuel m input with
  | o -> Some (Ir.Interp.observe o)
  | exception _ -> None

(* Every challenge module verifies, and the frozen reference interpreter
   (not the VM) observes the same on it as on its -O0 original, on every
   seeded input where the original terminates cleanly.  Returns the
   originals. *)
let check_challenges ~seed split (rows : (Ir.Irmod.t * int) array list) =
  let originals =
    Exec.Pool.parallel_array_mapi
      (fun i (l : Poj.labelled) ->
        let m = Minic.Lower.lower_program l.src in
        let inputs = Fit.inputs_for (Rng.make (rep_seed seed i)) ~vectors:2 ~len:32 in
        let base =
          List.filter_map
            (fun input -> Option.map (fun o -> (input, o)) (observe ~fuel m input))
            (Array.to_list inputs)
        in
        (m, base))
      split.Poj.test
  in
  let challenges =
    Array.of_list
      (List.concat_map (fun mods -> List.init (Array.length mods) (fun i -> (fst mods.(i), i))) rows)
  in
  Exec.Pool.parallel_array_map
    (fun (m, i) ->
      Ir.Verify.check_module m = []
      && List.for_all
           (fun (input, o) -> observe ~fuel:(fuel * 16) m input = Some o)
           (snd originals.(i)))
    challenges
  |> Array.iter check;
  originals

let evade_grid g ~plant ~seed k ~traced =
  let rng = Rng.make (rep_seed seed k) in
  let split = make_split g (Rng.split rng) ~traced in
  let rows = evade_rows ~traced ~plant in
  let emb = histogram ~traced in
  let t0 = now () in
  let cells =
    with_counter_deltas ~traced (fun () ->
        List.map
          (fun (setup : G.Game.setup) ->
            let build_rng = Rng.split rng in
            let model_rng = Rng.split rng in
            segment (fun () ->
                let train_mods, test_mods = build ~traced build_rng setup split in
                let xs = embed ~traced emb train_mods in
                let xt = embed ~traced emb test_mods in
                let _, pred =
                  model_cell ~traced model_rng ~n_classes:g.classes Ml.Model.rf xs
                    (Array.map snd train_mods) xt
                in
                (setup.game_name, test_mods, pred)))
          rows)
  in
  let wall = now () -. t0 in
  let originals =
    check_challenges ~seed:(rep_seed seed k) split (List.map (fun (_, mods, _) -> mods) cells)
  in
  List.iter
    (fun (name, mods, pred) ->
      accuracies := accuracy (Array.map snd mods) pred :: !accuracies;
      (* IR growth over the -O0 original, from the Game1 rows *)
      if traced && String.starts_with ~prefix:"game1-" name then begin
        let e = String.sub name 6 (String.length name - 6) in
        Array.iteri
          (fun i (m, _) ->
            count ("growth.out." ^ e) (Ir.Irmod.instr_count m);
            count ("growth.in." ^ e) (Ir.Irmod.instr_count (fst originals.(i))))
          mods
      end)
    cells;
  { r_wall = wall; r_traced = traced; r_scale = 1.0 }

(* ------------------------------------------------------------------ *)
(* adapt-search                                                        *)
(* ------------------------------------------------------------------ *)

(* [Fitness.evaluate] recomposed from its public parts so each layer call
   can be timed.  Two constants are private to Fitness (fuel headroom 16,
   margin-gap weight 0.05); traced repetitions re-score sampled sequences
   with [Fitness.evaluate] itself and count any difference as a failure. *)
let evaluator ~timing ~oracle ~lambda ~fuel (chs : Fit.challenge array) =
  let t name f = if timing then timed ~busy:true name f else f in
  let apply = t "obfuscation.seq_apply_s" (fun (r, s, m) -> Yali.Adapt.Seqspace.apply r s m) in
  let prepare = t "vm.compile_s" (fun m -> Yali.Execution.prepare m) in
  let run = t "vm.run_s" (fun (runm, input) -> runm ~fuel:(fuel * 16) input) in
  let oracle = t "adapt.oracle_s" oracle in
  fun rng s ->
    let n = Array.length chs in
    let evaded = ref 0 and cost_sum = ref 0.0 and gap_sum = ref 0.0 in
    let valid = ref (n > 0) in
    Array.iteri
      (fun i (ch : Fit.challenge) ->
        if !valid then begin
          let m' = apply (Rng.split_ix rng i, s, ch.ch_module) in
          match
            let runm = prepare m' in
            Array.mapi
              (fun j input ->
                let o = run (runm, input) in
                if timing then count "vm.steps" o.Ir.Interp.steps;
                if Ir.Interp.observe o <> ch.ch_base.(j) then failwith "behaviour diverged";
                o.Ir.Interp.cost)
              ch.ch_inputs
          with
          | exception _ -> valid := false
          | costs ->
              let c =
                Array.fold_left (fun a c -> a +. float_of_int c) 0.0 costs
                /. float_of_int (max 1 (Array.length costs))
              in
              cost_sum := !cost_sum +. (c /. ch.ch_base_cost);
              let scores = oracle m' in
              let y = ch.ch_label in
              let rival = ref neg_infinity in
              Array.iteri (fun cidx v -> if cidx <> y && v > !rival then rival := v) scores;
              let denom = Array.fold_left (fun a v -> a +. Float.abs v) 0.0 scores in
              let gap = !rival -. scores.(y) in
              gap_sum := !gap_sum +. (if denom > 0.0 then gap /. denom else 0.0);
              if Ml.Model.argmax scores <> y then incr evaded
        end)
      chs;
    if not !valid then Fit.rejected s
    else
      let nf = float_of_int n in
      let evasion = float_of_int !evaded /. nf in
      let cost = !cost_sum /. nf in
      let gap = !gap_sum /. nf in
      {
        Fit.e_seq = s;
        e_evasion = evasion;
        e_cost = cost;
        e_gap = gap;
        e_fitness = evasion +. (0.05 *. gap) -. (lambda *. Float.max 0.0 (cost -. 1.0));
      }

let adapt_config ~toy seed =
  {
    D.default with
    a_seed = seed;
    a_models = [ "rf"; "lr" ];
    a_budget = (if toy then 8 else 160);
    a_challenges_per_class = (if toy then 1 else 2);
  }

(* Set-up: [Driver.prepare] trains both models and builds the challenges. *)
let adapt_setup ~toy ~seed i =
  ignore (D.prepare (adapt_config ~toy (rep_seed seed (-1 - i))));
  ignore

let adapt_search ~toy ~seed k ~traced =
  let cfg = adapt_config ~toy (rep_seed seed k) in
  let prep = D.prepare cfg in
  let evals_acc = acc "adapt.evals" in
  let score oracle =
    if traced then
      evaluator ~timing:true ~oracle ~lambda:cfg.a_lambda ~fuel:cfg.a_fuel prep.p_challenges
    else Fit.evaluate ~oracle ~lambda:cfg.a_lambda ~fuel:cfg.a_fuel prep.p_challenges
  in
  (* Driver.search_fronts, with every evaluation timed when tracing *)
  let search_rng = Rng.split_ix (Rng.make cfg.a_seed) 3 in
  let t0 = now () in
  let outcomes =
    with_counter_deltas ~traced (fun () ->
        List.mapi
          (fun ix (_, snap) ->
            let oracle = D.oracle_of_snapshot snap in
            let score = score oracle in
            let eval r s =
              if not traced then score r s
              else begin
                let c0 = now () in
                let e = score r s in
                add_seconds evals_acc (now () -. c0);
                e
              end
            in
            let out =
              segment (fun () ->
                  Yali.Adapt.Search.run cfg.a_algo ~budget:cfg.a_budget ~batch:cfg.a_batch
                    ~max_len:cfg.a_max_len (Rng.split_ix search_rng ix) eval)
            in
            (oracle, out))
          prep.p_snapshots)
  in
  let wall = now () -. t0 in
  List.iter
    (fun (oracle, (out : Yali.Adapt.Search.outcome)) ->
      check (Yali.Adapt.Pareto.well_formed (Yali.Adapt.Pareto.front out.o_evals));
      if traced then begin
        count "adapt.rejected"
          (List.length
             (List.filter (fun (e : Fit.eval) -> e.e_fitness = neg_infinity) out.o_evals));
        List.iteri
          (fun i (e : Fit.eval) ->
            if i mod 32 = 0 then begin
              let r = Rng.make (rep_seed seed i) in
              let mine =
                evaluator ~timing:false ~oracle ~lambda:cfg.a_lambda ~fuel:cfg.a_fuel
                  prep.p_challenges (Rng.copy r) e.e_seq
              in
              let lib =
                Fit.evaluate ~oracle ~lambda:cfg.a_lambda ~fuel:cfg.a_fuel prep.p_challenges r
                  e.e_seq
              in
              check (compare mine lib = 0)
            end)
          out.o_evals
      end)
    outcomes;
  { r_wall = wall; r_traced = traced; r_scale = 1.0 }

(* ------------------------------------------------------------------ *)
(* serve-mixed                                                         *)
(* ------------------------------------------------------------------ *)

type kind = Hit | Miss | Src

type request = {
  q_kind : kind;
  q_blob : string;  (** codec blob or mini-C source *)
  q_frame : string;  (** the encoded Classify request *)
  q_module : unit -> Ir.Irmod.t;
      (** what the daemon should classify, rebuilt on demand so that a
          phase's modules are never all live at once *)
}

let serve_classes = 8

(* Closed-loop bursts of [burst_requests] requests each, at most
   [window] in flight: half the daemon's queue cap of 256, so it never
   answers Busy.  The CPU time the daemon spends on a burst is its total
   service time for a fixed load.  Unlike the burst's wall time it leaves
   out the waits between client and daemon, which the host's scheduling
   stretches at random.  It is not scaled to a reference speed, since the
   calibration, on the client's core, does not track the daemon's; the
   mean over many bursts evens out the host's drift instead. *)
let bursts ~toy = if toy then 2 else 14
let burst_requests ~toy = if toy then 3000 else 10000
let window = 128

(* The open-loop phases: (name, offered rate per second, share of
   --seconds).  The rates are fixed, so runs and commits compare at the
   same load: [high] is half, and [low] a tenth, of the goodput the
   ladder found on a 2-vCPU host (24000 req/s). *)
let open_phases ~toy =
  if toy then [ ("low", 20.0, 0.2); ("high", 60.0, 0.2) ]
  else [ ("low", 2400.0, 0.1); ("high", 12000.0, 0.2) ]

(* The goodput ladder, run only when tracing: fixed rates, [rung_s]
   seconds each, up to the first rung that misses the limit. *)
let ladder ~toy =
  if toy then [ 120.0 ] else [ 12000.0; 16000.0; 24000.0; 32000.0; 48000.0 ]

let rung_s = 0.5

(* Goodput: the highest rate whose p99 stays under this limit. *)
let latency_limit_ms = 25.0

let mk_request kind blob m =
  let fmt = match kind with Src -> W.Minic | Hit | Miss -> W.Binary in
  { q_kind = kind; q_blob = blob; q_frame = W.encode_request (W.Classify { fmt; blob }); q_module = m }

let programs (rng : Rng.t) per =
  (Poj.make rng ~n_classes:serve_classes ~train_per_class:0 ~test_per_class:per).test

(* The 16 programs every phase repeats. *)
let hit_requests ~seed =
  Array.map
    (fun (l : Poj.labelled) ->
      let m = Minic.Lower.lower_program l.src in
      mk_request Hit (Serve.Codec.encode_module m) (Fun.const m))
    (programs (Rng.make (rep_seed seed 1)) 2)

(* One phase's requests in round-robin kind order: a hit, a never-seen IR
   blob, a never-seen mini-C source.  Equal thirds, so that no kind hides
   the others: a cache or batching change that speeds hits but slows
   misses or source shows in the total. *)
let make_requests ~hits ~seed ~phase n =
  let fresh = n - ((n + 2) / 3) in
  let fresh = programs (Rng.make (rep_seed seed (2 + phase))) ((fresh / serve_classes) + 1) in
  let next = ref 0 in
  Array.init n (fun i ->
      match i mod 3 with
      | 0 -> hits.(i / 3 mod Array.length hits)
      | r ->
          let l = fresh.(!next) in
          incr next;
          if r = 1 then
            let m = Minic.Lower.lower_program l.src in
            let blob = Serve.Codec.encode_module m in
            mk_request Miss blob (fun () -> Serve.Codec.decode_module blob)
          else
            let src = Minic.Pp.program_to_string l.src in
            mk_request Src src (fun () -> Yali.compile src))

type conn = { fd : Unix.file_descr; chunks : W.Dechunk.t; inflight : int Queue.t }
type reply = { mutable cls : int; mutable queue_us : int; mutable batch : int }

type phase = {
  ph_name : string;
  ph_rate : float;
  ph_wall : float;
  ph_lat_ms : float array;  (** reply time minus due time; infinity if none *)
  ph_late_ms : float array;  (** send time minus due time *)
  ph_replies : reply array;
  ph_busy : int;  (** Busy replies *)
}

(* Open loop: request i is due at start + i/rate whatever the replies do.
   Requests go round-robin over the connections, pipelined, and each is
   timed from its due time.  Replies on a connection come back in request
   order: the daemon drains its whole queue every loop, so in-flight work
   never reaches its busy cap.  Overdue requests go out in bursts of at
   most 64 between reads, so neither side's socket buffer fills while the
   other waits on it.  A phase gives up after 5 s without progress.  With
   [rate = infinity] and a [window] it is a closed loop instead. *)
let run_phase ?(window = max_int) conns ~name ~rate (reqs : request array) =
  let n = Array.length reqs in
  let nc = Array.length conns in
  let lat = Array.make n infinity and late = Array.make n 0.0 in
  let replies = Array.init n (fun _ -> { cls = -1; queue_us = 0; batch = 0 }) in
  let start = now () +. 0.002 in
  let due i = start +. (float_of_int i /. rate) in
  let progress = ref start in
  let next = ref 0 and pending = ref 0 and busy = ref 0 in
  let buf = Bytes.create 65536 in
  let fds = Array.to_list (Array.map (fun c -> c.fd) conns) in
  while (!next < n || !pending > 0) && now () < Float.max (due !next) !progress +. 5.0 do
    let burst = !next + 64 in
    while !next < n && !next < burst && !pending < window && due !next <= now () do
      let i = !next in
      let c = conns.(i mod nc) in
      late.(i) <- (now () -. due i) *. 1000.0;
      W.write_frame c.fd reqs.(i).q_frame;
      Queue.push i c.inflight;
      progress := now ();
      incr pending;
      incr next
    done;
    let timeout =
      if !next < n && !pending < window then Float.max 0.0 (due !next -. now ()) else 0.01
    in
    match Unix.select fds [] [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
        Array.iter
          (fun c ->
            if List.mem c.fd ready then
              match Unix.read c.fd buf 0 (Bytes.length buf) with
              | 0 -> failwith "the daemon closed a connection"
              | k ->
                  List.iter
                    (fun frame ->
                      let i = Queue.pop c.inflight in
                      decr pending;
                      progress := now ();
                      lat.(i) <- (!progress -. due i) *. 1000.0;
                      match W.decode_response frame with
                      | W.Class { cls; queue_us; batch } ->
                          replies.(i).cls <- cls;
                          replies.(i).queue_us <- queue_us;
                          replies.(i).batch <- batch
                      | W.Busy -> incr busy
                      | _ -> ())
                    (W.Dechunk.feed c.chunks buf k))
          conns
  done;
  {
    ph_name = name;
    ph_rate = rate;
    ph_wall = now () -. start;
    ph_lat_ms = lat;
    ph_late_ms = late;
    ph_replies = replies;
    ph_busy = !busy;
  }

(* A request without a class reply misses any latency limit: it enters
   the quantiles far beyond every limit. *)
let latencies ph =
  Array.to_list
    (Array.mapi (fun i l -> if ph.ph_replies.(i).cls < 0 then 1e6 else l) ph.ph_lat_ms)

let drained ph = Array.for_all Float.is_finite ph.ph_lat_ms

(* A phase meets the limit when p99 is under it and the backlog did not
   grow: the last quarter's median latency is at most double the first
   quarter's, plus 1 ms. *)
let meets_limit ph =
  let lat = latencies ph in
  let n = List.length lat in
  let quarter lo = List.filteri (fun i _ -> i >= lo && i < lo + (n / 4)) lat in
  drained ph
  && ph.ph_busy = 0
  && quantile 0.99 lat <= latency_limit_ms
  && median (quarter (n - (n / 4))) <= (2.0 *. median (quarter 0)) +. 1.0

(* A number from the daemon's flat stats JSON. *)
let json_number json key =
  let pat = Printf.sprintf "\"%s\": " key in
  let lp = String.length pat and lj = String.length json in
  let rec find i =
    if i + lp > lj then 0.0
    else if String.sub json i lp = pat then
      Scanf.sscanf (String.sub json (i + lp) (lj - i - lp)) "%f" Fun.id
    else find (i + 1)
  in
  find 0

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let stop pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

(* Set-up: train and publish the rf snapshot, start the daemon, and wait
   until it answers a ping on its socket. *)
let start_daemon ~cli ~dir ~seed i =
  let registry = Filename.concat dir (Printf.sprintf "models-%d" i) in
  let socket = Filename.concat dir (Printf.sprintf "d%d.sock" i) in
  let entry =
    match
      Serve.Registry.train ~seed ~embedding:E.Embedding.histogram ~kind:"rf"
        ~n_classes:serve_classes ~per_class:10
    with
    | Ok e -> e
    | Error msg -> failwith msg
  in
  ignore (Serve.Registry.publish ~dir:registry ~meta:entry.meta entry.snapshot);
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "--socket"; socket; "--registry"; registry; "--model"; "rf"; "--jobs"; "1"; "--quiet" |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let give_up = now () +. 30.0 in
  let rec await () =
    let ready =
      Sys.file_exists socket
      &&
      match Serve.Client.connect socket with
      | c -> Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> Serve.Client.ping c)
      | exception Unix.Unix_error _ -> false
    in
    if not ready then begin
      if now () > give_up then begin
        stop pid;
        failwith "the serve daemon never became ready"
      end;
      Unix.sleepf 0.0005;
      await ()
    end
  in
  await ();
  (pid, socket, registry)

(* The service-time split of one phase's first [replayed] requests,
   replayed in-process: decode (IR blobs), parse and lower (source), embed
   (cache misses), and predict at the phase's mean batch size. *)
let replayed = 3000

let service_split (model : Ml.Model.trained) ph (reqs : request array) =
  let per_call f xs =
    let t0 = now () in
    List.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs;
    ratio ((now () -. t0) *. 1e6) (float_of_int (List.length xs))
  in
  let reqs = Array.to_list (Array.sub reqs 0 (min replayed (Array.length reqs))) in
  let of_kind k = List.filter (fun q -> q.q_kind = k) reqs in
  metric "serve.decode_us" "us"
    (per_call (fun q -> Serve.Codec.decode_module q.q_blob) (of_kind Hit @ of_kind Miss));
  metric "minic.parse_lower_us" "us" (per_call (fun q -> Yali.compile q.q_blob) (of_kind Src));
  let features = E.Embedding.to_flat E.Embedding.histogram in
  metric "embeddings.embed_us" "us"
    (per_call features (List.map (fun q -> q.q_module ()) (of_kind Miss @ of_kind Src)));
  let rows = Array.of_list (List.map (fun q -> features (q.q_module ())) reqs) in
  let b =
    max 1
      (int_of_float
         (Float.round
            (mean (List.map (fun r -> float_of_int r.batch) (Array.to_list ph.ph_replies)))))
  in
  let batches =
    List.init
      ((Array.length rows + b - 1) / b)
      (fun j -> Ml.Fmat.of_rows (Array.sub rows (j * b) (min b (Array.length rows - (j * b)))))
  in
  metric "ml.predict_us_per_row" "us"
    (per_call model.predict_batch batches
    *. float_of_int (List.length batches)
    /. float_of_int (Array.length rows))


let serve_mixed ~cli ~toy ~seed ~seconds ~trace =
  (* inside the build directory perfbench/run.py keeps in the checkout *)
  let tmp = ".bench_build/tmp" in
  let dir = Filename.concat tmp (Printf.sprintf "serve-%d" (Unix.getpid ())) in
  if not (Sys.file_exists tmp) then Sys.mkdir tmp 0o700;
  Sys.mkdir dir 0o700;
  let daemon = ref None in
  Fun.protect
    ~finally:(fun () ->
      Option.iter (fun (pid, _, _) -> stop pid) !daemon;
      rm_rf dir)
    (fun () ->
      let hits = hit_requests ~seed in
      let setup_s =
        measure_setup (fun i ->
            let pid, _, _ = start_daemon ~cli ~dir ~seed:(rep_seed seed i) i in
            fun () -> stop pid)
      in
      daemon := Some (start_daemon ~cli ~dir ~seed (-1));
      let pid, socket, registry = Option.get !daemon in
      (* every reply must equal in-process Model.restore ... predict *)
      let model =
        match Serve.Registry.load ~dir:registry "rf" with
        | Ok e -> Ml.Model.restore e.snapshot
        | Error e -> failwith e
      in
      let expect q =
        model.predict (E.Embedding.to_flat E.Embedding.histogram (q.q_module ()))
      in
      let conns =
        Array.init
          (max 1 (min 2 (Domain.recommended_domain_count ())))
          (fun _ ->
            let c = Serve.Client.connect socket in
            { fd = Serve.Client.fd c; chunks = W.Dechunk.create (); inflight = Queue.create () })
      in
      (* Each phase gets fresh inputs, made (untimed) just before it and
         checked just after.  A Busy reply overtakes the replies queued
         before it, so after one the replies cannot be matched to requests:
         only an overloaded ladder rung may see one, and it then misses the
         limit unchecked. *)
      let check_phase ~rung ph reqs =
        if not (rung && ph.ph_busy > 0) then
          Array.iteri (fun i q -> check (ph.ph_replies.(i).cls = expect q)) reqs
      in
      let phase_no = ref 0 in
      let fresh_requests n =
        incr phase_no;
        make_requests ~hits ~seed ~phase:!phase_no n
      in
      let phase ?(rung = false) name rate n =
        let reqs = fresh_requests n in
        let ph = run_phase conns ~name ~rate reqs in
        check_phase ~rung ph reqs;
        if trace && name = "high" then service_split model ph reqs;
        ph
      in
      let burst_walls =
        List.init (bursts ~toy) (fun i ->
            let reqs = fresh_requests (burst_requests ~toy) in
            let cpu0 = cpu_seconds pid in
            let ph = run_phase ~window conns ~name:(Printf.sprintf "burst-%d" i) ~rate:infinity reqs in
            let cpu = cpu_seconds pid -. cpu0 in
            check_phase ~rung:false ph reqs;
            (ph.ph_wall, cpu))
      in
      (* the bursts' load is fixed; what follows varies with the host *)
      let rss = peak_rss_mb (string_of_int pid) in
      let opens =
        List.map
          (fun (name, rate, share) -> phase name rate (max 4 (int_of_float (rate *. share *. seconds))))
          (open_phases ~toy)
      in
      let rec climb acc = function
        | [] -> List.rev acc
        | rate :: rest ->
            let ph =
              phase ~rung:true (Printf.sprintf "rung-%g" rate) rate
                (max 4 (int_of_float (rate *. rung_s)))
            in
            if meets_limit ph then climb (ph :: acc) rest else List.rev (ph :: acc)
      in
      let rungs = if trace then climb [] (ladder ~toy) else [] in
      Array.iter (fun c -> Unix.close c.fd) conns;
      let stats =
        let c = Serve.Client.connect socket in
        Fun.protect
          ~finally:(fun () -> Serve.Client.close c)
          (fun () -> match Serve.Client.stats c with Ok j -> j | Error e -> failwith e)
      in
      stop pid;
      daemon := None;
      let service_s = mean (List.map snd burst_walls) in
      Printf.printf "bursts of %d requests, wall/daemon cpu (s):%s; phases (s):%s\n"
        (burst_requests ~toy)
        (String.concat "" (List.map (fun (w, c) -> Printf.sprintf " %.3f/%.2f" w c) burst_walls))
        (String.concat ""
           (List.map (fun ph -> Printf.sprintf " %s=%.3f" ph.ph_name ph.ph_wall) (opens @ rungs)));
      let find name = List.find (fun ph -> ph.ph_name = name) opens in
      if not trace then begin
        metric "setup_s" "s" setup_s;
        (* the daemon's time at work, not the client's wait *)
        metric "wall_s" "s" service_s;
        metric "peak_rss_mb" "MB" rss
      end
      else begin
        List.iter
          (fun level ->
            let ph = find level in
            let replies = Array.to_list ph.ph_replies in
            let waits = List.map (fun r -> float_of_int r.queue_us /. 1000.0) replies in
            metric ("p50_ms." ^ level) "ms" (quantile 0.5 (latencies ph));
            metric ("p99_ms." ^ level) "ms" (quantile 0.99 (latencies ph));
            metric ("serve.queue_wait_ms.p50." ^ level) "ms" (quantile 0.5 waits);
            metric ("serve.queue_wait_ms.p99." ^ level) "ms" (quantile 0.99 waits);
            metric ("serve.batch_mean." ^ level) "count"
              (mean (List.map (fun r -> float_of_int r.batch) replies)))
          [ "low"; "high" ];
        metric "goodput_rps" "1/s"
          (List.fold_left
             (fun a ph -> if meets_limit ph then Float.max a ph.ph_rate else a)
             0.0 rungs);
        metric "serve.gen_late_ms.p99" "ms"
          (quantile 0.99 (List.concat_map (fun ph -> Array.to_list ph.ph_late_ms) opens));
        metric "serve.busy" "count" (json_number stats "busy");
        metric "serve.errors" "count" (json_number stats "errors");
        metric "embeddings.cache_hit_rate" "share" (json_number stats "hit_rate")
      end)

(* ------------------------------------------------------------------ *)
(* main                                                                *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: bench.exe train-grid|evade-grid|serve-mixed|adapt-search --seed N \
     --seconds S --trace 0|1 --cli PATH [--toy] [--plant]";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let int_opt name = Option.bind (opt name args) int_of_string_opt in
  let flag name = List.mem name args in
  let seed = Option.value (int_opt "--seed") ~default:1 in
  let seconds = float_of_int (Option.value (int_opt "--seconds") ~default:10) in
  let trace = int_opt "--trace" = Some 1 in
  let toy = flag "--toy" in
  Exec.Pool.set_jobs jobs;
  (match args with
  | "train-grid" :: _ ->
      let g =
        if toy then { classes = 8; train_pc = 2; test_pc = 1 }
        else { classes = 104; train_pc = 3; test_pc = 1 }
      in
      batch_workload ~seconds ~trace ~setup:(grid_setup g ~seed) (train_grid g ~seed)
  | "evade-grid" :: _ ->
      let g =
        if toy then { classes = 4; train_pc = 2; test_pc = 1 }
        else { classes = 24; train_pc = 4; test_pc = 3 }
      in
      if trace then check_rebuilt_evaders ~seed;
      batch_workload ~seconds ~trace ~setup:(grid_setup g ~seed)
        (evade_grid g ~plant:(flag "--plant") ~seed)
  | "adapt-search" :: _ ->
      batch_workload ~seconds ~trace ~setup:(adapt_setup ~toy ~seed) (adapt_search ~toy ~seed)
  | "serve-mixed" :: _ -> (
      match opt "--cli" args with
      | Some cli -> serve_mixed ~cli ~toy ~seed ~seconds ~trace
      | None -> usage ())
  | _ -> usage ());
  if trace then
    metric "failed_share" "share" (ratio (float_of_int !failed) (float_of_int !attempted));
  print_json ()
