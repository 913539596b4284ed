(** Tests for the deterministic splittable RNG. *)

open Helpers
module Rng = Yali.Rng

let test_determinism () =
  let a = Rng.make 42 and b = Rng.make 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_different_seeds () =
  let a = Rng.make 1 and b = Rng.make 2 in
  let xs = List.init 10 (fun _ -> Rng.next_int64 a) in
  let ys = List.init 10 (fun _ -> Rng.next_int64 b) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_split_independent () =
  let a = Rng.make 7 in
  let b = Rng.split a in
  let xs = List.init 5 (fun _ -> Rng.next_int64 a) in
  let ys = List.init 5 (fun _ -> Rng.next_int64 b) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_split_ix_deterministic () =
  let stream rng = List.init 5 (fun _ -> Rng.next_int64 rng) in
  let a = Rng.make 7 and b = Rng.make 7 in
  Alcotest.(check bool) "same (state, index) gives the same child" true
    (stream (Rng.split_ix a 3) = stream (Rng.split_ix b 3));
  let c = Rng.make 7 in
  Alcotest.(check bool) "distinct indices give distinct children" true
    (stream (Rng.split_ix c 0) <> stream (Rng.split_ix c 1))

let test_split_ix_does_not_advance_parent () =
  let a = Rng.make 11 and b = Rng.make 11 in
  ignore (Rng.split_ix a 5);
  ignore (Rng.split_ix a 9);
  Alcotest.(check int64) "parent stream untouched" (Rng.next_int64 b)
    (Rng.next_int64 a)

let test_split_n_matches_split () =
  let a = Rng.make 13 and b = Rng.make 13 in
  let children = Rng.split_n a 4 in
  let expected = Array.init 4 (fun _ -> Rng.split b) in
  Array.iteri
    (fun i c ->
      Alcotest.(check int64)
        (Printf.sprintf "child %d replays split #%d" i i)
        (Rng.next_int64 expected.(i))
        (Rng.next_int64 c))
    children;
  Alcotest.(check int64) "parents left in the same state" (Rng.next_int64 b)
    (Rng.next_int64 a)

let test_int_bounds =
  qtest ~count:200 "int respects bounds" (fun seed ->
      let rng = Rng.make seed in
      let bound = 1 + (seed mod 100) in
      let x = Rng.int rng bound in
      x >= 0 && x < bound)

let test_int_range =
  qtest ~count:200 "int_range inclusive" (fun seed ->
      let rng = Rng.make seed in
      let lo = -(seed mod 50) and hi = seed mod 50 in
      let x = Rng.int_range rng lo hi in
      x >= lo && x <= hi)

let test_float_unit =
  qtest ~count:200 "float in [0,1)" (fun seed ->
      let rng = Rng.make seed in
      let x = Rng.float rng in
      x >= 0.0 && x < 1.0)

let test_shuffle_permutation =
  qtest "shuffle permutes" (fun seed ->
      let rng = Rng.make seed in
      let xs = List.init 20 Fun.id in
      let ys = Rng.shuffle rng xs in
      List.sort compare ys = xs)

let test_sample_size =
  qtest "sample draws k distinct" (fun seed ->
      let rng = Rng.make seed in
      let k = seed mod 10 in
      let xs = List.init 20 Fun.id in
      let ys = Rng.sample rng k xs in
      List.length ys = k && List.sort_uniq compare ys = List.sort compare ys)

let test_bernoulli_extremes () =
  let rng = Rng.make 5 in
  for _ = 1 to 50 do
    Alcotest.(check bool) "p=1 always true" true (Rng.bernoulli rng 1.0)
  done;
  for _ = 1 to 50 do
    Alcotest.(check bool) "p=0 always false" false (Rng.bernoulli rng 0.0)
  done

let test_gaussian_moments () =
  let rng = Rng.make 11 in
  let n = 20000 in
  let xs = List.init n (fun _ -> Rng.gaussian rng) in
  let mean = List.fold_left ( +. ) 0.0 xs /. float_of_int n in
  let var =
    List.fold_left (fun a x -> a +. ((x -. mean) ** 2.0)) 0.0 xs
    /. float_of_int n
  in
  Alcotest.(check bool) "mean near 0" true (Float.abs mean < 0.05);
  Alcotest.(check bool) "variance near 1" true (Float.abs (var -. 1.0) < 0.1)

let test_weighted_choice () =
  let rng = Rng.make 3 in
  let counts = Hashtbl.create 3 in
  for _ = 1 to 10000 do
    let x = Rng.weighted_choice rng [ ("a", 1.0); ("b", 9.0) ] in
    Hashtbl.replace counts x (1 + Option.value (Hashtbl.find_opt counts x) ~default:0)
  done;
  let b = Hashtbl.find counts "b" in
  Alcotest.(check bool) "b dominates ~9:1" true (b > 8500 && b < 9500)

let test_choice_member =
  qtest "choice returns a member" (fun seed ->
      let rng = Rng.make seed in
      let xs = [ 1; 5; 9; 12 ] in
      List.mem (Rng.choice rng xs) xs)

(* [Rng.int r b] is the unsigned remainder of the raw draw, whatever
   arithmetic computes it: small bounds, 2^20 and its neighbours, both
   sides of the [int] path's 2^60 limit, powers of two and [max_int],
   over 10^5 states seeded from full 64-bit draws, so the raw draws cover
   the top bit. *)
let test_int_is_unsigned_rem () =
  let bounds =
    [| 1; 2; 3; 63; 64; (1 lsl 20) - 1; 1 lsl 20; (1 lsl 20) + 1; 1 lsl 32;
       (1 lsl 40) + 7; (1 lsl 60) - 1; 1 lsl 60; (1 lsl 60) + 1; max_int |]
  in
  let seeds = Rng.make 2024 in
  let top_bit = ref 0 and mismatches = ref 0 in
  for _ = 1 to 100_000 do
    let r = Rng.make (Int64.to_int (Rng.next_int64 seeds)) in
    Array.iter
      (fun b ->
        let raw = Rng.next_int64 (Rng.copy r) in
        if Int64.compare raw 0L < 0 then incr top_bit;
        let want = Int64.to_int (Int64.unsigned_rem raw (Int64.of_int b)) in
        if Rng.int r b <> want then incr mismatches)
      bounds
  done;
  Alcotest.(check int) "int = unsigned_rem of the raw draw" 0 !mismatches;
  Alcotest.(check bool) "draws with the top bit set" true (!top_bit > 100_000)

(* One digest over fixed-seed streams of every primitive the framework
   draws through, recorded before [Rng]'s representation changed: a
   different state layout or reduction must leave it as it is. *)
let test_streams_pinned () =
  let buf = Buffer.create 65536 in
  let add_int i = Buffer.add_string buf (string_of_int i ^ ",") in
  let add_raw r = Buffer.add_string buf (Int64.to_string (Rng.next_int64 r) ^ ",") in
  let r = Rng.make 1234567 in
  for _ = 1 to 500 do
    add_raw r
  done;
  List.iter
    (fun b ->
      for _ = 1 to 200 do
        add_int (Rng.int r b)
      done)
    [ 1; 2; 7; 24; 63; 104; 1000; (1 lsl 20) - 1; 1 lsl 20; 1 lsl 33; max_int ];
  for _ = 1 to 200 do
    Buffer.add_string buf (Printf.sprintf "%h," (Rng.float r))
  done;
  let s = Rng.split r in
  for _ = 1 to 50 do
    add_raw s;
    add_raw r
  done;
  for i = 0 to 9 do
    add_raw (Rng.split_ix r i)
  done;
  let perm = Array.init 63 Fun.id in
  for _ = 1 to 20 do
    Rng.shuffle_in_place r perm;
    Array.iter add_int perm
  done;
  Alcotest.(check string) "stream digest" "81aa6d5799827c47fd5957596ae89c3a"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "different seeds" `Quick test_different_seeds;
    Alcotest.test_case "split independence" `Quick test_split_independent;
    Alcotest.test_case "split_ix determinism" `Quick test_split_ix_deterministic;
    Alcotest.test_case "split_ix keeps parent" `Quick
      test_split_ix_does_not_advance_parent;
    Alcotest.test_case "split_n matches split" `Quick test_split_n_matches_split;
    test_int_bounds;
    test_int_range;
    test_float_unit;
    test_shuffle_permutation;
    test_sample_size;
    Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
    Alcotest.test_case "gaussian moments" `Slow test_gaussian_moments;
    Alcotest.test_case "weighted choice" `Quick test_weighted_choice;
    test_choice_member;
    Alcotest.test_case "int is the raw draw's unsigned remainder" `Quick
      test_int_is_unsigned_rem;
    Alcotest.test_case "streams pinned" `Quick test_streams_pinned;
  ]
