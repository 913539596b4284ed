(** Tests for the adaptive-evader layer (lib/adapt): the sequence space
    respects its bounds and preserves behaviour, Pareto fronts are exactly
    the non-dominated subset, the four search strategies spend their
    budget, and the driver is bit-identical at any --jobs and via serve. *)

open Helpers
module Adapt = Yali.Adapt
module Seqspace = Adapt.Seqspace
module Fitness = Adapt.Fitness
module Pareto = Adapt.Pareto
module Search = Adapt.Search
module Driver = Adapt.Driver
module Rng = Yali.Rng

(* -- sequence space -------------------------------------------------------- *)

let test_random_seq_bounds =
  qtest ~count:40 "random_seq length in [1, max_len]" (fun seed ->
      let rng = Rng.make seed in
      let max_len = 1 + (abs seed mod 4) in
      let n = List.length (Seqspace.random_seq rng ~max_len) in
      n >= 1 && n <= max_len)

let test_mutate_bounds =
  qtest ~count:40 "mutate stays in [1, max_len]" (fun seed ->
      let rng = Rng.make seed in
      let max_len = 1 + (abs seed mod 4) in
      let s = ref (Seqspace.random_seq rng ~max_len) in
      let ok = ref true in
      for _ = 1 to 12 do
        s := Seqspace.mutate rng ~max_len !s;
        let n = List.length !s in
        ok := !ok && n >= 1 && n <= max_len
      done;
      !ok)

let test_apply_preserves =
  qtest ~count:15 "apply preserves behaviour and verifies" (fun seed ->
      let s = Seqspace.random_seq (Rng.make seed) ~max_len:3 in
      preserves_behaviour (Seqspace.apply (Rng.make (seed + 1)) s) seed)

let test_seq_printing () =
  Alcotest.(check string) "empty sequence prints as id" "id"
    (Seqspace.to_string []);
  Alcotest.(check string) "steps join with ;" "fla;bcf(p=0.25)"
    (Seqspace.to_string [ Seqspace.Fla; Seqspace.Bcf { probability = 0.25 } ])

let test_seq_of_string_roundtrip =
  qtest ~count:60 "of_string inverts to_string" (fun seed ->
      let rng = Rng.make seed in
      let max_len = 1 + (abs seed mod 5) in
      let s = ref (Seqspace.random_seq rng ~max_len) in
      let ok = ref (Seqspace.of_string "id" = []) in
      for _ = 1 to 8 do
        ok := !ok && Seqspace.of_string (Seqspace.to_string !s) = !s;
        s := Seqspace.mutate rng ~max_len !s
      done;
      !ok)

(* only what [to_string] prints parses: other spellings of the same
   knobs, stray separators and unknown steps are rejected *)
let test_seq_of_string_rejects () =
  List.iter
    (fun text ->
      match Seqspace.of_string text with
      | s ->
          Alcotest.failf "%S parsed (as %S)" text (Seqspace.to_string s)
      | exception Invalid_argument _ -> ())
    [
      ""; "id;fla"; "fla;"; ";fla"; "FLA"; "fla "; "sub(p=1,r=2)";
      "sub(p=1.00,r=02)"; "sub(p=1.00)"; "bcf(p=0.25)x"; "bcf(p=0.25";
      "ollvm(sp=0.50,sr=1)"; "ollvm(sp=0.50,sr=1,bp=0.25,x=1)"; "inline";
    ]

(* -- pareto front ---------------------------------------------------------- *)

let gen_evals (seed : int) : Fitness.eval list =
  let rng = Rng.make seed in
  List.init
    (2 + Rng.int rng 30)
    (fun i ->
      if Rng.bernoulli rng 0.15 then Fitness.rejected [ Seqspace.Fla ]
      else
        let evasion = float_of_int (Rng.int rng 5) /. 4.0 in
        let cost = 0.5 +. (2.5 *. Rng.float rng) in
        {
          Fitness.e_seq = (if i mod 2 = 0 then [] else [ Seqspace.Fla ]);
          e_evasion = evasion;
          e_cost = cost;
          e_gap = 0.0;
          e_fitness = evasion -. cost;
        })

let dominates (a : Fitness.eval) (p : Pareto.point) =
  (a.Fitness.e_cost < p.Pareto.p_cost && a.e_evasion >= p.p_evasion)
  || (a.e_cost <= p.p_cost && a.e_evasion > p.p_evasion)

let test_front_exactly_non_dominated =
  qtest ~count:60 "front = the non-dominated subset" (fun seed ->
      let evals = gen_evals seed in
      let finite =
        List.filter (fun (e : Fitness.eval) -> Float.is_finite e.e_cost) evals
      in
      let f = Pareto.front evals in
      Pareto.well_formed f
      (* soundness: no evaluated candidate strictly dominates a front point *)
      && List.for_all
           (fun p -> not (List.exists (fun e -> dominates e p) finite))
           f
      (* completeness: every finite candidate is weakly covered by the front *)
      && List.for_all
           (fun (e : Fitness.eval) ->
             List.exists
               (fun (p : Pareto.point) ->
                 p.p_cost <= e.e_cost && p.p_evasion >= e.e_evasion)
               f)
           finite
      (* every front point is one of the evaluations *)
      && List.for_all
           (fun (p : Pareto.point) ->
             List.exists
               (fun (e : Fitness.eval) ->
                 e.e_cost = p.p_cost && e.e_evasion = p.p_evasion)
               finite)
           f)

let test_front_drops_rejected () =
  let f = Pareto.front [ Fitness.rejected []; Fitness.rejected [ Seqspace.Fla ] ] in
  Alcotest.(check int) "only rejected candidates: empty front" 0 (List.length f);
  (* the passive evader keeps behaviour, even when the program prints NaN *)
  match Fitness.challenge (Rng.make 1) ~label:0 (lower (parse prints_nan)) with
  | Error e -> Alcotest.failf "NaN challenge: %s" e
  | Ok ch ->
      let e =
        Fitness.evaluate ~oracle:(fun _ -> [| 1.0; 0.0 |]) ~lambda:0.0
          ~fuel:100_000 [| ch |] (Rng.make 2) []
      in
      Alcotest.(check bool) "empty sequence on a NaN challenge not rejected"
        true
        (Float.is_finite e.Fitness.e_fitness)

(* -- search strategies ----------------------------------------------------- *)

(* a synthetic, program-free fitness: shorter is fitter, so the searches
   exercise their full control flow without touching the interpreter *)
let synthetic_eval (_ : Rng.t) (s : Seqspace.seq) : Fitness.eval =
  let n = List.length s in
  {
    Fitness.e_seq = s;
    e_evasion = 1.0 /. float_of_int (1 + n);
    e_cost = 1.0 +. (0.1 *. float_of_int n);
    e_gap = 0.0;
    e_fitness = -.float_of_int n;
  }

let test_search_spends_budget () =
  List.iter
    (fun algo ->
      let out =
        Search.run algo ~budget:17 ~batch:5 ~max_len:3 (Rng.make 3)
          synthetic_eval
      in
      Alcotest.(check int)
        (Search.algo_to_string algo ^ " spends exactly its budget")
        17
        (List.length out.o_evals);
      Alcotest.(check bool)
        (Search.algo_to_string algo ^ " base is the empty sequence")
        true
        (out.o_base.Fitness.e_seq = []);
      Alcotest.(check bool)
        (Search.algo_to_string algo ^ " best is the max over evals")
        true
        (List.for_all
           (fun (e : Fitness.eval) ->
             e.e_fitness <= out.o_best.Fitness.e_fitness)
           out.o_evals))
    Search.all

(* a thread-safe evaluator that counts its calls per sequence and draws
   from the rng it is given, so it shows both a repeated evaluation and an
   evaluation rng that drifts between calls *)
let counting_eval () =
  let calls = Hashtbl.create 64 and lock = Mutex.create () in
  let eval (r : Rng.t) (s : Seqspace.seq) : Fitness.eval =
    Mutex.protect lock (fun () ->
        Hashtbl.replace calls s
          (1 + Option.value (Hashtbl.find_opt calls s) ~default:0));
    let drift = Rng.float r in
    let u =
      Rng.float (Rng.split_ix r (Hashtbl.hash (Seqspace.to_string s)))
    in
    let n = float_of_int (List.length s) in
    {
      Fitness.e_seq = s;
      e_evasion = u;
      e_cost = 1.0 +. (0.1 *. n) +. drift;
      e_gap = 0.0;
      e_fitness = u -. (0.1 *. n);
    }
  in
  (calls, eval)

let test_search_memo () =
  List.iter
    (fun algo ->
      let name = Search.algo_to_string algo in
      let budget = 40 in
      let search jobs =
        let calls, eval = counting_eval () in
        let out =
          Yali.Exec.Pool.with_jobs jobs (fun () ->
              Search.run algo ~budget ~batch:5 ~max_len:2 (Rng.make 11) eval)
        in
        (calls, out)
      in
      let calls, out = search 3 in
      let seqs = List.map (fun (e : Fitness.eval) -> e.e_seq) out.o_evals in
      let distinct = List.sort_uniq compare seqs in
      Alcotest.(check int) (name ^ ": o_evals has budget entries") budget
        (List.length out.o_evals);
      Alcotest.(check bool) (name ^ ": the search repeats a sequence") true
        (List.length distinct < budget);
      Alcotest.(check int)
        (name ^ ": one evaluation per distinct sequence")
        (List.length distinct) (Hashtbl.length calls);
      Alcotest.(check bool) (name ^ ": no sequence evaluated twice") true
        (Hashtbl.fold (fun _ n ok -> ok && n = 1) calls true);
      let _, fresh = counting_eval () in
      let erng = Search.eval_rng (Rng.make 11) in
      Alcotest.(check bool)
        (name ^ ": every entry is a fresh eval under the evaluation rng")
        true
        (List.for_all
           (fun (e : Fitness.eval) ->
             compare e (fresh (Rng.copy erng) e.e_seq) = 0)
           out.o_evals);
      Alcotest.(check bool) (name ^ ": same outcome at jobs 1 and 3") true
        (compare (snd (search 1)) out = 0))
    Search.all

let test_search_deterministic () =
  List.iter
    (fun algo ->
      let run () =
        Search.run algo ~budget:13 ~batch:4 ~max_len:3 (Rng.make 9)
          synthetic_eval
      in
      Alcotest.(check bool)
        (Search.algo_to_string algo ^ " same seed, same outcome")
        true
        (Stdlib.compare (run ()) (run ()) = 0))
    Search.all

let test_algo_names_roundtrip () =
  List.iter
    (fun algo ->
      Alcotest.(check bool)
        (Search.algo_to_string algo ^ " round-trips")
        true
        (Search.algo_of_string (Search.algo_to_string algo) = Some algo))
    Search.all;
  Alcotest.(check bool) "unknown algo rejected" true
    (Search.algo_of_string "annealing" = None)

(* -- driver ---------------------------------------------------------------- *)

let tiny_cfg =
  {
    Driver.default with
    a_seed = 5;
    a_classes = 2;
    a_train_per_class = 4;
    a_challenges_per_class = 1;
    a_models = [ "lr"; "knn" ];
    a_budget = 8;
    a_batch = 4;
    a_max_len = 2;
    a_vectors = 1;
  }

let test_driver_jobs_invariant () =
  let r1 = Yali.Exec.Pool.with_jobs 1 (fun () -> Driver.run tiny_cfg) in
  let r2 = Yali.Exec.Pool.with_jobs 2 (fun () -> Driver.run tiny_cfg) in
  Alcotest.(check bool) "jobs 1 and jobs 2 reports bit-identical" true
    (Driver.reports_identical r1 r2);
  Alcotest.(check int) "one front per model" 2 (List.length r1.r_fronts);
  Alcotest.(check bool) "challenges survived preparation" true
    (r1.r_challenges > 0);
  List.iter
    (fun (f : Driver.model_front) ->
      Alcotest.(check bool) (f.mf_kind ^ " base is the passive evader") true
        (f.mf_base.Fitness.e_seq = []);
      Alcotest.(check bool) (f.mf_kind ^ " front well-formed") true
        (Pareto.well_formed f.mf_front);
      Alcotest.(check bool)
        (f.mf_kind ^ " front anchored at cost 1.0") true
        (List.exists (fun (p : Pareto.point) -> p.p_cost = 1.0) f.mf_front))
    r1.r_fronts

let test_driver_report_json_shape () =
  let r = Driver.run tiny_cfg in
  let json = Driver.report_to_json tiny_cfg r in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("report json has " ^ needle) true
        (contains_substring json needle))
    [
      "\"seed\": 5"; "\"algo\": \"hill\""; "\"lr\""; "\"knn\"";
      "cost_multiplier"; "evasion_rate"; "front_points";
    ]

(* a kind named twice would have two searches share one daemon socket;
   zero training rows or zero challenges leave nothing to search *)
let test_prepare_rejects_repeated_kind () =
  let rejects what cfg needle =
    match Driver.prepare cfg with
    | _ -> Alcotest.failf "a config with %s was prepared" what
    | exception Invalid_argument msg ->
        Alcotest.(check bool) (what ^ ": " ^ msg) true
          (contains_substring msg needle)
  in
  rejects "rf named twice" { tiny_cfg with a_models = [ "rf"; "lr"; "rf" ] } "rf";
  rejects "no training rows" { tiny_cfg with a_train_per_class = 0 }
    "--train-per-class";
  rejects "no challenges" { tiny_cfg with a_challenges_per_class = 0 }
    "--challenges-per-class";
  List.iter
    (fun lambda ->
      rejects
        (Printf.sprintf "lambda %g" lambda)
        { tiny_cfg with a_lambda = lambda }
        "--lambda")
    [ Float.nan; Float.infinity; Float.neg_infinity; -0.5 ]

(* margins answered by daemons (this binary in its hidden daemon mode)
   give the in-process report, bit for bit *)
let test_via_serve_identical () =
  let cfg = { tiny_cfg with a_models = [ "lr"; "rf" ]; a_budget = 10 } in
  let in_process = Driver.run cfg in
  let via_serve, clean =
    Driver.search_fronts_via_serve ~command:Yali.Serve.Client.self_command cfg
      (Driver.prepare cfg)
  in
  Alcotest.(check bool) "via-serve report bit-identical" true
    (Driver.reports_identical in_process via_serve);
  Alcotest.(check bool) "daemons exit 0 on SIGTERM" true clean

(* a daemon that goes away between two queries: the next query's write
   hits a closed socket and must raise [No_answer], not kill this process
   with SIGPIPE *)
let test_remote_daemon_gone () =
  let module Client = Yali.Serve.Client in
  let module Registry = Yali.Serve.Registry in
  Yali.Util.Fs.with_temp_dir "adapt-test" (fun dir ->
      (match
         Registry.train ~seed:5 ~embedding:Yali.Embeddings.Embedding.histogram
           ~kind:"lr" ~n_classes:2 ~per_class:3
       with
      | Error e -> Alcotest.failf "train: %s" e
      | Ok entry ->
          ignore
            (Registry.publish ~dir ~meta:entry.Registry.meta
               entry.Registry.snapshot));
      let m = lower (dataset_program 1) in
      let (), clean =
        Client.with_daemons ~command:Client.self_command ~dir ~registry:dir
          [ "lr" ] (fun daemons ->
            let socket = List.assoc "lr" daemons in
            let remote = Adapt.Remote.connect ~socket in
            Fun.protect
              ~finally:(fun () -> Adapt.Remote.close remote)
              (fun () ->
                ignore (Adapt.Remote.oracle remote m);
                let c = Client.connect socket in
                Client.shutdown c;
                Client.close c;
                Alcotest.(check bool) "daemon stops on Shutdown" true
                  (socket_gone socket);
                match Adapt.Remote.oracle remote m with
                | _ -> Alcotest.fail "a stopped daemon answered"
                | exception Client.No_answer _ -> ()))
      in
      Alcotest.(check bool) "daemon exits 0" true clean)

let suite =
  [
    test_random_seq_bounds;
    test_mutate_bounds;
    test_apply_preserves;
    Alcotest.test_case "sequence printing" `Quick test_seq_printing;
    test_seq_of_string_roundtrip;
    Alcotest.test_case "of_string rejects other text" `Quick
      test_seq_of_string_rejects;
    test_front_exactly_non_dominated;
    Alcotest.test_case "front drops rejected" `Quick test_front_drops_rejected;
    Alcotest.test_case "searches spend their budget" `Quick
      test_search_spends_budget;
    Alcotest.test_case "searches evaluate each sequence once" `Quick
      test_search_memo;
    Alcotest.test_case "searches deterministic" `Quick test_search_deterministic;
    Alcotest.test_case "algo names round-trip" `Quick test_algo_names_roundtrip;
    Alcotest.test_case "driver invariant under --jobs" `Slow
      test_driver_jobs_invariant;
    Alcotest.test_case "driver report json" `Slow test_driver_report_json_shape;
    Alcotest.test_case "driver rejects a repeated model kind" `Quick
      test_prepare_rejects_repeated_kind;
    Alcotest.test_case "via-serve report identical" `Slow
      test_via_serve_identical;
    Alcotest.test_case "remote oracle survives a vanished daemon" `Quick
      test_remote_daemon_gone;
  ]
