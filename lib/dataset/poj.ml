(** Dataset assembly: balanced training and test sets over the 104 problem
    classes, in the shape the paper's games consume (§4: 375 training + 125
    test samples per class; this reproduction defaults to smaller per-class
    counts so that a full game grid runs in minutes — see EXPERIMENTS.md). *)

module Rng = Yali_util.Rng

type labelled = { src : Yali_minic.Ast.program; label : int }

type split = { train : labelled array; test : labelled array }

(* -- index-based sampling plans --------------------------------------------

   A plan fixes the whole split — class subset, per-sample rng streams and
   output permutations — without generating a single program.  Sample [k]'s
   stream is [Rng.split_ix sample_base k], a random-access derivation: slot
   [j] of the split can be produced in isolation, in any order, on any
   domain, and the streaming corpus writer and the legacy materialised path
   share one generation order bit for bit. *)

type generator = { g_label : int; g_gen : Rng.t -> Yali_minic.Ast.program }

type plan = {
  gens : generator array;
  train_per_class : int;
  test_per_class : int;
  sample_base : Rng.t;  (** frozen; children via {!Rng.split_ix} *)
  train_perm : int array;  (** slot -> pre-permutation sample index *)
  test_perm : int array;
}

(* Fisher–Yates permutation of [0, n) *)
let permutation (rng : Rng.t) (n : int) : int array =
  let p = Array.init n Fun.id in
  Rng.shuffle_in_place rng p;
  p

let plan_of ~(gens : generator array) (rng : Rng.t) ~(train_per_class : int)
    ~(test_per_class : int) : plan =
  let sample_base = Rng.split rng in
  let perm_base = Rng.split rng in
  let nc = Array.length gens in
  {
    gens;
    train_per_class;
    test_per_class;
    sample_base;
    train_perm = permutation (Rng.split_ix perm_base 0) (nc * train_per_class);
    test_perm = permutation (Rng.split_ix perm_base 1) (nc * test_per_class);
  }

let train_size (p : plan) = Array.length p.train_perm
let test_size (p : plan) = Array.length p.test_perm

(* pre-permutation sample [k] of a side: class k/per, repetition k mod per;
   test streams continue after the train block so the two sides never share
   a child index *)
let sample_at (p : plan) ~(test : bool) (k : int) : labelled =
  let per = if test then p.test_per_class else p.train_per_class in
  let g = p.gens.(k / per) in
  let global =
    if test then (Array.length p.gens * p.train_per_class) + k else k
  in
  { src = g.g_gen (Rng.split_ix p.sample_base global); label = g.g_label }

let train_sample (p : plan) (j : int) : labelled =
  sample_at p ~test:false p.train_perm.(j)

let test_sample (p : plan) (j : int) : labelled =
  sample_at p ~test:true p.test_perm.(j)

let plan ?(shuffle_classes = false) (rng : Rng.t) ~(n_classes : int)
    ~(train_per_class : int) ~(test_per_class : int) : plan =
  let n_problems = List.length Genprog.all in
  if n_classes < 1 || n_classes > n_problems then
    invalid_arg
      (Printf.sprintf "classes must be in 1..%d (the POJ problems), got %d"
         n_problems n_classes);
  let problems =
    if shuffle_classes then Rng.sample rng n_classes Genprog.all
    else List.filteri (fun k _ -> k < n_classes) Genprog.all
  in
  let gens =
    Array.of_list
      (List.mapi
         (fun cls (p : Genprog.problem) ->
           { g_label = cls; g_gen = p.generate })
         problems)
  in
  plan_of ~gens rng ~train_per_class ~test_per_class

let realize (p : plan) : split =
  {
    train = Array.init (train_size p) (train_sample p);
    test = Array.init (test_size p) (test_sample p);
  }

(** [make rng ~n_classes ~train_per_class ~test_per_class] builds a balanced
    split over the first [n_classes] problems (or a random subset when
    [shuffle_classes] is set, as in the paper's RQ1, which draws 32 of the
    104 classes at random). *)
let make ?shuffle_classes (rng : Rng.t) ~(n_classes : int)
    ~(train_per_class : int) ~(test_per_class : int) : split =
  realize (plan ?shuffle_classes rng ~n_classes ~train_per_class ~test_per_class)

let labels (xs : labelled array) : int array =
  Array.map (fun x -> x.label) xs
