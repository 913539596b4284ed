(** Tests for the execution runtime (lib/exec): pool determinism at any
    jobs setting — including through the full arena — and telemetry
    accounting. *)

open Helpers
module Exec = Yali.Exec
module Pool = Exec.Pool
module Telemetry = Exec.Telemetry
module Rng = Yali.Rng
module G = Yali.Games

(* -- pool ------------------------------------------------------------------ *)

let test_parallel_map_matches_sequential () =
  let xs = Array.init 97 (fun i -> i) in
  let f x = (x * x) + (x mod 7) in
  let expected = Array.map f xs in
  List.iter
    (fun jobs ->
      let got = Pool.with_jobs jobs (fun () -> Pool.parallel_array_map f xs) in
      Alcotest.(check (array int))
        (Printf.sprintf "array map, jobs=%d" jobs)
        expected got)
    [ 1; 4 ];
  let ys = List.init 31 (fun i -> i - 15) in
  let g x = string_of_int (x * 3) in
  List.iter
    (fun jobs ->
      let got = Pool.with_jobs jobs (fun () -> Pool.parallel_map g ys) in
      Alcotest.(check (list string))
        (Printf.sprintf "list map, jobs=%d" jobs)
        (List.map g ys) got)
    [ 1; 4 ]

let test_parallel_mapi_and_chunks () =
  let n = 143 in
  let expected = Array.init n (fun i -> 2 * i) in
  let got =
    Pool.with_jobs 4 (fun () ->
        Pool.parallel_array_mapi (fun i _ -> 2 * i) (Array.make n ()))
  in
  Alcotest.(check (array int)) "mapi sees its own index" expected got;
  let out = Array.make n 0 in
  Pool.with_jobs 4 (fun () ->
      Pool.parallel_for_chunks ~min_chunk:10 n (fun lo hi ->
          for i = lo to hi - 1 do
            out.(i) <- 2 * i
          done));
  Alcotest.(check (array int)) "chunks cover [0, n) exactly once" expected out

(* Every index runs exactly once at any jobs setting, and a [run] nested
   inside a task runs inline: in order, on the worker that called it, over
   its own range exactly once. *)
let test_run_each_index_once () =
  let once label runs =
    Alcotest.(check (array int)) label
      (Array.make (Array.length runs) 1)
      (Array.map Atomic.get runs)
  in
  List.iter
    (fun jobs ->
      List.iter
        (fun n ->
          let runs = Array.init n (fun _ -> Atomic.make 0) in
          Pool.with_jobs jobs (fun () ->
              Pool.run ~n (fun i -> Atomic.incr runs.(i)));
          once (Printf.sprintf "jobs=%d, n=%d: every index once" jobs n) runs)
        [ 1; 3; 97 ];
      let outer = 5 and inner = 7 in
      let runs = Array.init (outer * inner) (fun _ -> Atomic.make 0) in
      let inline = Atomic.make true in
      Pool.with_jobs jobs (fun () ->
          Pool.run ~n:outer (fun i ->
              let self = Domain.self () and seen = ref [] in
              Pool.run ~n:inner (fun k ->
                  if Domain.self () <> self then Atomic.set inline false;
                  seen := k :: !seen;
                  Atomic.incr runs.((i * inner) + k));
              if List.rev !seen <> List.init inner Fun.id then
                Atomic.set inline false));
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d: nested runs are inline" jobs)
        true (Atomic.get inline);
      once (Printf.sprintf "jobs=%d: nested, every index once" jobs) runs)
    [ 1; 2; 4 ]

let test_parallel_map_rng_deterministic () =
  let xs = Array.make 40 () in
  let draw rng () = Rng.int rng 1_000_000 in
  let runs =
    List.map
      (fun jobs ->
        Pool.with_jobs jobs (fun () ->
            Pool.parallel_array_map_rng (Rng.make 5) draw xs))
      [ 1; 4; 4 ]
  in
  match runs with
  | [ a; b; c ] ->
      Alcotest.(check (array int)) "jobs=1 equals jobs=4" a b;
      Alcotest.(check (array int)) "repeated jobs=4 runs agree" b c
  | _ -> assert false

let test_pool_propagates_exceptions () =
  let boom i = if i = 17 then failwith "task 17 exploded" in
  Alcotest.check_raises "exception crosses domains"
    (Failure "task 17 exploded") (fun () ->
      Pool.with_jobs 4 (fun () -> Pool.run ~n:32 boom))

(* -- arena determinism across jobs ----------------------------------------- *)

let test_arena_bit_identical_across_jobs () =
  let split =
    Yali.Dataset.Poj.make (Rng.make 21) ~n_classes:4 ~train_per_class:6
      ~test_per_class:3
  in
  let run jobs =
    Pool.with_jobs jobs (fun () ->
        G.Arena.run_flat (Rng.make 3) ~n_classes:4
          Yali.Embeddings.Embedding.histogram Yali.Ml.Model.rf G.Game.game0
          split)
  in
  let a = run 1 and b = run 4 in
  Alcotest.(check bool) "accuracy identical" true (a.accuracy = b.accuracy);
  Alcotest.(check bool) "f1 identical" true (a.f1 = b.f1);
  Alcotest.(check int) "model size identical" a.model_bytes b.model_bytes;
  Alcotest.(check int) "n_train identical" a.n_train b.n_train;
  Alcotest.(check int) "n_test identical" a.n_test b.n_test

(* -- telemetry ------------------------------------------------------------- *)

let test_telemetry_counts_tasks () =
  Telemetry.reset ();
  let base = Telemetry.counter "pool.tasks" in
  Alcotest.(check int) "reset clears counters" 0 base;
  Pool.with_jobs 4 (fun () -> Pool.run ~n:10 (fun _ -> ()));
  Alcotest.(check int) "parallel batch counts its tasks" 10
    (Telemetry.counter "pool.tasks");
  Pool.with_jobs 1 (fun () -> Pool.run ~n:7 (fun _ -> ()));
  Alcotest.(check int) "sequential batch counts its tasks" 17
    (Telemetry.counter "pool.tasks");
  Alcotest.(check int) "one parallel batch" 1
    (Telemetry.counter "pool.parallel_batches");
  Alcotest.(check int) "one sequential batch" 1
    (Telemetry.counter "pool.sequential_batches")

let test_telemetry_spans_and_json () =
  Telemetry.reset ();
  let r = Telemetry.with_span "test.span" (fun () -> 41 + 1) in
  Alcotest.(check int) "with_span returns the result" 42 r;
  Telemetry.incr ~by:3 "test.counter";
  let snap = Telemetry.snapshot () in
  Alcotest.(check bool) "span recorded" true
    (List.exists
       (fun (n, (s : Telemetry.span_stat)) ->
         n = "test.span" && s.span_count = 1 && s.span_seconds >= 0.0)
       snap.r_spans);
  let json = Telemetry.to_json () in
  Alcotest.(check bool) "JSON mentions the counter" true
    (contains_substring json "\"test.counter\": 3");
  Alcotest.(check bool) "JSON mentions the span" true
    (contains_substring json "\"test.span\"")

let test_telemetry_clock_monotonic () =
  let a = Telemetry.clock () in
  let b = Telemetry.clock () in
  Alcotest.(check bool) "clock never goes backwards" true (b >= a)

(* every quantile of a wide log-spread sample lands within the stated
   1/32 of the exact nearest-rank value; small values are exact *)
let test_histogram_quantiles () =
  let module H = Telemetry.Histogram in
  let h = H.create () in
  Alcotest.(check int) "empty reports 0" 0 (H.quantile h 0.99);
  let rng = Rng.make 11 in
  let xs =
    Array.init 5000 (fun _ ->
        int_of_float (2.0 ** (Rng.float rng *. 30.0)) + Rng.int rng 16)
  in
  Array.iter (H.add h) xs;
  Array.sort compare xs;
  let n = Array.length xs in
  List.iter
    (fun q ->
      let exact = xs.(min (n - 1) (int_of_float ((float_of_int (n - 1) *. q) +. 0.5))) in
      let got = H.quantile h q in
      Alcotest.(check bool)
        (Printf.sprintf "q%.2f: %d within 1/32 of %d" q got exact)
        true
        (abs (got - exact) * 32 <= exact))
    [ 0.0; 0.1; 0.5; 0.9; 0.99; 1.0 ];
  H.reset h;
  Alcotest.(check int) "reset empties" 0 (H.quantile h 0.5);
  List.iter (H.add h) [ 3; 1; 4; 1; 5; 9; 2; 6 ];
  Alcotest.(check int) "small values are exact (p50)" 4 (H.quantile h 0.5);
  Alcotest.(check int) "small values are exact (max)" 9 (H.quantile h 1.0)

(* the exact bytes of both layouts, escapes included *)
let test_json_writer () =
  let module J = Yali.Util.Json in
  let v =
    J.Obj
      [
        ("name", J.String "a\"b\\c\nd\001e");
        ( "nested",
          J.Obj
            [
              ("xs", J.List [ J.Int 1; J.Fixed (2, 0.5); J.Bool true ]);
              ("none", J.Fixed (3, Float.nan));
            ] );
        ("empty", J.List []);
      ]
  in
  Alcotest.(check string) "one line"
    {|{"name": "a\"b\\c\nd\u0001e", "nested": {"xs": [1, 0.50, true], "none": null}, "empty": []}|}
    (J.to_string v);
  Alcotest.(check string) "pretty"
    {|{
  "name": "a\"b\\c\nd\u0001e",
  "nested": {
    "xs": [1, 0.50, true],
    "none": null
  },
  "empty": []
}|}
    (J.pretty v)

let suite =
  [
    Alcotest.test_case "parallel map = sequential map" `Quick
      test_parallel_map_matches_sequential;
    Alcotest.test_case "mapi and chunked for" `Quick
      test_parallel_mapi_and_chunks;
    Alcotest.test_case "run covers each index once" `Quick
      test_run_each_index_once;
    Alcotest.test_case "rng map deterministic across jobs" `Quick
      test_parallel_map_rng_deterministic;
    Alcotest.test_case "exceptions propagate" `Quick
      test_pool_propagates_exceptions;
    Alcotest.test_case "arena bit-identical at jobs=1 and jobs=4" `Slow
      test_arena_bit_identical_across_jobs;
    Alcotest.test_case "telemetry counts scheduled tasks" `Quick
      test_telemetry_counts_tasks;
    Alcotest.test_case "telemetry spans and JSON report" `Quick
      test_telemetry_spans_and_json;
    Alcotest.test_case "telemetry clock monotonic" `Quick
      test_telemetry_clock_monotonic;
    Alcotest.test_case "histogram quantiles within 1/32" `Quick
      test_histogram_quantiles;
    Alcotest.test_case "json writer bytes" `Quick test_json_writer;
  ]
