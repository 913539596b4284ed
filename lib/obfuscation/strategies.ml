(** The four search strategies from Zhang et al. (2021) for combining the
    fifteen base source transformations into an evading sequence:

    - [rs]    — random search: a random permutation prefix, no repetition;
    - [mcmc]  — Markov-chain Monte Carlo over sequences, favouring programs
                far from the original (Metropolis acceptance);
    - [drlsg] — the Deep-Reinforcement-Learning Sequence Generator; here a
                greedy distance-maximising policy that plays the same role
                (pick, at each step, the transformation that moves the
                lowered program furthest from the original);
    - [ga]    — a genetic algorithm over transformation sequences.

    [mcmc], [drlsg] and [ga] score candidates by the Euclidean distance
    between opcode histograms of the lowered ([-O0]) original and
    transformed programs — the metric the paper itself uses to quantify
    evasion capacity (Figure 10).  [score] lowers each candidate once,
    and not at all when the candidate is structurally equal to the program
    it was applied to: lowering is a function of the syntax tree, so such
    a candidate has that program's distance.  [rs] scores nothing; it
    lowers its one candidate only to check that it lowers. *)

open Yali_minic
module Rng = Yali_util.Rng
module E = Yali_embeddings

let base_histogram (p : Ast.program) : float array =
  E.Histogram.of_module (Lower.lower_program p)

(* [score h0 ~dist txs rng p]: apply [txs] to [p] under [rng] and return
   the result's distance from the original program's histogram [h0], with
   the result.  [dist] is [p]'s own distance: a result structurally equal
   to [p] gets it without being lowered.  A result that fails to lower (a
   transformation should never produce one, but search must be robust)
   scores [neg_infinity] and gives back [p]. *)
let score (h0 : float array) ~(dist : float) (txs : Source_tx.t list)
    (rng : Rng.t) (p : Ast.program) : float * Ast.program =
  let p' = Source_tx.apply_sequence txs rng p in
  if p' = p then (dist, p')
  else
    match Lower.lower_program p' with
    | m -> (E.Histogram.euclidean h0 (E.Histogram.of_module m), p')
    | exception _ -> (neg_infinity, p)

(** Random search: a random subset of the 15 transformations, each used at
    most once, in random order. *)
let rs ?(max_len = 8) (rng : Rng.t) (p : Ast.program) : Ast.program =
  let len = Rng.int_range rng 1 max_len in
  let seq = Rng.sample rng len Source_tx.all in
  let p' = Source_tx.apply_sequence seq rng p in
  match Lower.lower_program p' with _ -> p' | exception _ -> p

(** MCMC: propose single-step mutations of the sequence; accept with
    Metropolis probability on the distance objective. *)
let mcmc ?(iterations = 20) ?(max_len = 8) (rng : Rng.t) (p : Ast.program) :
    Ast.program =
  let h0 = base_histogram p in
  let score seq = score h0 ~dist:0.0 seq (Rng.copy rng) p in
  let mutate seq =
    let tx () = Rng.choice rng Source_tx.all in
    match Rng.int rng 3 with
    | 0 when List.length seq < max_len -> seq @ [ tx () ] (* grow *)
    | 1 when List.length seq > 1 -> List.tl seq (* shrink *)
    | _ ->
        (* replace a random position *)
        if seq = [] then [ tx () ]
        else
          let k = Rng.int rng (List.length seq) in
          List.mapi (fun i t -> if i = k then tx () else t) seq
  in
  let temperature = 2.0 in
  let rec go seq cur_s (best_score, best_p) iter =
    if iter >= iterations then best_p
    else
      let seq' = mutate seq in
      let s', p' = score seq' in
      let accept =
        s' >= cur_s || Rng.float rng < exp ((s' -. cur_s) /. temperature)
      in
      let seq, cur_s = if accept then (seq', s') else (seq, cur_s) in
      let best = if s' > best_score then (s', p') else (best_score, best_p) in
      go seq cur_s best (iter + 1)
  in
  let seq0 = [ Rng.choice rng Source_tx.all ] in
  let s0, p0 = score seq0 in
  go seq0 s0 (s0, p0) 0

(** Greedy distance-maximising sequence generation (the role DRLSG plays in
    Zhang et al.): at each step, apply the transformation whose result is
    furthest from the original program; stop when no step improves.  The
    first step takes its best candidate whatever it scores, so its bar sits
    below every distance; a no-op candidate keeps its place in the list
    with the current program's distance (0.0 at the first step), so ties
    break as they would had it been lowered. *)
let drlsg ?(max_len = 8) (rng : Rng.t) (p : Ast.program) : Ast.program =
  let h0 = base_histogram p in
  let rec go p dist steps =
    if steps >= max_len then p
    else
      let bar = if steps = 0 then -1.0 else dist in
      let candidates =
        List.map
          (fun tx -> score h0 ~dist [ tx ] (Rng.split rng) p)
          Source_tx.all
      in
      match List.stable_sort (fun (a, _) (b, _) -> compare b a) candidates with
      | (s, p') :: _ when s > bar -> go p' s (steps + 1)
      | _ -> p
  in
  go p 0.0 0

(** Genetic algorithm over sequences: tournament selection, one-point
    crossover, point mutation. *)
let ga ?(population = 12) ?(generations = 6) ?(max_len = 8) (rng : Rng.t)
    (p : Ast.program) : Ast.program =
  let h0 = base_histogram p in
  let random_seq () =
    let len = Rng.int_range rng 1 max_len in
    List.init len (fun _ -> Rng.choice rng Source_tx.all)
  in
  let fitness seq = score h0 ~dist:0.0 seq (Rng.copy rng) p in
  let crossover a b =
    if a = [] || b = [] then a
    else
      let ka = Rng.int rng (List.length a) in
      let kb = Rng.int rng (List.length b) in
      let take n l = List.filteri (fun i _ -> i < n) l in
      let drop n l = List.filteri (fun i _ -> i >= n) l in
      let child = take ka a @ drop kb b in
      take max_len child
  in
  let mutate seq =
    if seq = [] || Rng.bernoulli rng 0.5 then
      seq @ [ Rng.choice rng Source_tx.all ]
    else
      let k = Rng.int rng (List.length seq) in
      List.mapi
        (fun i t -> if i = k then Rng.choice rng Source_tx.all else t)
        seq
  in
  let pop = ref (List.init population (fun _ -> random_seq ())) in
  (* [(neg_infinity, p)] is what a sequence that fails to lower scores, so
     generation 1's first individual replaces it unless it failed *)
  let best = ref (neg_infinity, p) in
  for _ = 1 to generations do
    let scored = List.map (fun s -> (s, fitness s)) !pop in
    List.iter
      (fun (_, (f, p')) -> if f > fst !best then best := (f, p'))
      scored;
    let tournament () =
      let a = Rng.choice rng scored and b = Rng.choice rng scored in
      if fst (snd a) >= fst (snd b) then fst a else fst b
    in
    pop :=
      List.init population (fun _ ->
          let parent_a = tournament () and parent_b = tournament () in
          mutate (crossover parent_a parent_b))
  done;
  if generations = 0 then snd (fitness (List.hd !pop)) else snd !best

type strategy = {
  sname : string;
  run : Rng.t -> Ast.program -> Ast.program;
}

let all : strategy list =
  [
    { sname = "rs"; run = (fun rng p -> rs rng p) };
    { sname = "mcmc"; run = (fun rng p -> mcmc rng p) };
    { sname = "drlsg"; run = (fun rng p -> drlsg rng p) };
    { sname = "ga"; run = (fun rng p -> ga rng p) };
  ]

let find name = List.find_opt (fun s -> s.sname = name) all
