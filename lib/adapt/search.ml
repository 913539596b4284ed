(** The four search strategies of {!Yali_obfuscation.Strategies}, ported
    from source-rewrite space to {!Seqspace} — random search, hill
    climbing with restarts, multi-chain MCMC, and a genetic algorithm —
    with the classifier-in-the-loop fitness of {!Fitness} instead of the
    histogram-distance proxy.

    Every strategy proposes candidates {e sequentially} on the calling
    domain.  Every evaluation gets a fresh copy of the one evaluation rng
    the search draws before its first proposal ({!eval_rng}), so a
    candidate's eval is a pure function of its sequence, and a sequence
    the search has already scored is not evaluated again: a memo local to
    one {!run} call (at most [budget] records, dropped on return) answers
    repeats, and each round's unseen sequences go through
    {!Yali_exec.Pool.parallel_array_map}, entering the memo in batch order
    on the calling domain — so the whole search (and therefore the Pareto
    front) is bit-identical at any [--jobs]. *)

module Rng = Yali_util.Rng
module Pool = Yali_exec.Pool

type algo = Rs | Hill | Mcmc | Ga

let all = [ Rs; Hill; Mcmc; Ga ]

let algo_to_string = function
  | Rs -> "rs"
  | Hill -> "hill"
  | Mcmc -> "mcmc"
  | Ga -> "ga"

let algo_of_string = function
  | "rs" -> Some Rs
  | "hill" -> Some Hill
  | "mcmc" -> Some Mcmc
  | "ga" -> Some Ga
  | _ -> None

type outcome = {
  o_base : Fitness.eval;  (** the empty sequence (the passive evader) *)
  o_best : Fitness.eval;
  o_evals : Fitness.eval list;  (** every evaluation, in proposal order *)
}

let better (a : Fitness.eval) (b : Fitness.eval) : Fitness.eval =
  if b.Fitness.e_fitness > a.Fitness.e_fitness then b else a

(* mcmc acceptance temperature, on the fitness scale (evasion in [0,1]) *)
let temperature = 0.25

let eval_rng (rng : Rng.t) : Rng.t = Rng.split (Rng.copy rng)

let run (algo : algo) ~(budget : int) ~(batch : int) ~(max_len : int)
    (rng : Rng.t) (eval_fn : Rng.t -> Seqspace.seq -> Fitness.eval) : outcome
    =
  let batch = max 1 batch in
  (* [eval_rng rng], drawn before any proposal *)
  let erng = Rng.split rng in
  (* every sequence scored so far: at most [budget] records, since each
     counts against the budget, and dropped when [run] returns *)
  let memo : (Seqspace.seq, Fitness.eval) Hashtbl.t = Hashtbl.create 64 in
  let eval_batch (seqs : Seqspace.seq array) : Fitness.eval array =
    (* the batch's distinct unseen sequences, in batch order; a repeat is
       filled from the memo and still counts against the budget *)
    let fresh =
      Array.fold_left
        (fun acc s ->
          if Hashtbl.mem memo s || List.mem s acc then acc else s :: acc)
        [] seqs
      |> List.rev |> Array.of_list
    in
    let es =
      Pool.parallel_array_map (fun s -> eval_fn (Rng.copy erng) s) fresh
    in
    Array.iteri (fun i s -> Hashtbl.replace memo s es.(i)) fresh;
    Array.map (Hashtbl.find memo) seqs
  in
  let base = (eval_batch [| [] |]).(0) in
  let best = ref base in
  let used = ref 1 in
  let batches = ref [ [| base |] ] in
  let round (seqs : Seqspace.seq array) : Fitness.eval array =
    let es = eval_batch seqs in
    Array.iter (fun e -> best := better !best e) es;
    batches := es :: !batches;
    used := !used + Array.length seqs;
    es
  in
  (match algo with
  | Rs ->
      while !used < budget do
        let k = min batch (budget - !used) in
        ignore
          (round (Array.init k (fun _ -> Seqspace.random_seq rng ~max_len)))
      done
  | Hill ->
      (* steepest-ascent over the mutation neighbourhood; a stalled climb
         restarts from the identity (rng has advanced, so the restart
         explores a different path) *)
      let cur = ref base in
      while !used < budget do
        let k = min batch (budget - !used) in
        let es =
          round
            (Array.init k (fun _ ->
                 Seqspace.mutate rng ~max_len (!cur).Fitness.e_seq))
        in
        let round_best = Array.fold_left better es.(0) es in
        if round_best.Fitness.e_fitness > (!cur).Fitness.e_fitness then
          cur := round_best
        else cur := base
      done
  | Mcmc ->
      (* [batch] independent chains advancing in lockstep: each round every
         chain proposes one mutation, the proposals are evaluated as one
         parallel batch, and Metropolis acceptance runs sequentially with
         one uniform per chain *)
      let k0 = min batch (max 1 (budget - !used)) in
      (* a copy: [round]'s array is also that batch's record in [o_evals],
         which acceptance must not rewrite *)
      let states =
        Array.copy
          (round (Array.init k0 (fun _ -> Seqspace.random_seq rng ~max_len)))
      in
      while !used < budget do
        let k = min (Array.length states) (budget - !used) in
        let proposals =
          Array.init k (fun i ->
              Seqspace.mutate rng ~max_len states.(i).Fitness.e_seq)
        in
        let es = round proposals in
        Array.iteri
          (fun i (e : Fitness.eval) ->
            let cur = states.(i) in
            let u = Rng.float rng in
            let accept =
              e.e_fitness >= cur.Fitness.e_fitness
              || Float.is_finite e.e_fitness
                 && u
                    < exp ((e.e_fitness -. cur.Fitness.e_fitness) /. temperature)
            in
            if accept then states.(i) <- e)
          es
      done
  | Ga ->
      (* tournament selection, one-point crossover, point mutation — the
         [Strategies.ga] recipe over step sequences *)
      let take n l = List.filteri (fun i _ -> i < n) l in
      let drop n l = List.filteri (fun i _ -> i >= n) l in
      let pop =
        ref (Array.init batch (fun _ -> Seqspace.random_seq rng ~max_len))
      in
      while !used < budget do
        let k = min (Array.length !pop) (budget - !used) in
        let es = round (Array.sub !pop 0 k) in
        let tournament () =
          let a = es.(Rng.int rng (Array.length es)) in
          let b = es.(Rng.int rng (Array.length es)) in
          if a.Fitness.e_fitness >= b.Fitness.e_fitness then a.Fitness.e_seq
          else b.Fitness.e_seq
        in
        let crossover a b =
          if a = [] then b
          else if b = [] then a
          else
            let ka = Rng.int rng (List.length a + 1) in
            let kb = Rng.int rng (List.length b + 1) in
            take max_len (take ka a @ drop kb b)
        in
        pop :=
          Array.init batch (fun _ ->
              let child = crossover (tournament ()) (tournament ()) in
              if Rng.bernoulli rng 0.5 then Seqspace.mutate rng ~max_len child
              else child)
      done);
  {
    o_base = base;
    o_best = !best;
    o_evals = List.concat_map Array.to_list (List.rev !batches);
  }
