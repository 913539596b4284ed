(** Cost-priced, classifier-in-the-loop fitness for the adaptive evader.

    A candidate sequence is scored against a fixed set of {e challenges}
    (held-out programs the classifier was not trained on).  For each
    challenge the transformed module is (1) re-run on the challenge's
    seeded input vectors under the engine switchboard — its observable
    behaviour must match the baseline, and the abstract cost
    ({!Yali_ir.Interp.outcome}[.cost], the paper's stand-in for running
    time) prices the obfuscation — and (2) pushed through the classifier's
    per-class score oracle ({!Yali_ml.Model.margins}, in-process or via the
    {!Yali_serve} daemon).

    Fitness rewards the evasion rate, breaks ties by the normalised margin
    gap (how far the true class has fallen behind the best rival), and
    charges [lambda] per unit of cost multiplier above 1 — so the search
    surfaces the whole evasion-vs-slowdown trade-off rather than a single
    maximally-expensive evader ({!Pareto}). *)

module Rng = Yali_util.Rng
module Interp = Yali_ir.Interp
module Execution = Yali_vm.Execution

type challenge = {
  ch_module : Yali_ir.Irmod.t;
  ch_label : int;
  ch_inputs : int64 list array;
  ch_base : (int64 list * float list * string) array;
      (** baseline observations, one per input vector *)
  ch_base_cost : float;  (** mean abstract cost of the baseline *)
}

(* per-vector streams derived by index, so any vector can be regenerated
   in isolation *)
let inputs_for (rng : Rng.t) ~(vectors : int) ~(len : int) : int64 list array
    =
  Array.init vectors (fun ix ->
      let r = Rng.split_ix rng ix in
      List.init len (fun _ -> Int64.of_int (Rng.int_range r (-1000) 1000)))

let challenge ?(fuel = 2_000_000) ?(vectors = 2) (rng : Rng.t) ~(label : int)
    (m : Yali_ir.Irmod.t) : (challenge, string) result =
  let inputs = inputs_for rng ~vectors ~len:32 in
  match
    let runm = Execution.prepare m in
    Array.map
      (fun input ->
        let o = runm ~fuel input in
        (Interp.observe o, o.Interp.cost))
      inputs
  with
  | outs ->
      let cost =
        Array.fold_left (fun a (_, c) -> a +. float_of_int c) 0.0 outs
        /. float_of_int (max 1 vectors)
      in
      Ok
        {
          ch_module = m;
          ch_label = label;
          ch_inputs = inputs;
          ch_base = Array.map fst outs;
          ch_base_cost = Float.max 1.0 cost;
        }
  | exception e -> Error (Printexc.to_string e)

type eval = {
  e_seq : Seqspace.seq;
  e_evasion : float;  (** fraction of challenges misclassified *)
  e_cost : float;  (** mean cost multiplier vs the baselines *)
  e_gap : float;  (** mean normalised margin gap (rival − true class) *)
  e_fitness : float;
}

(** Sequences whose transforms break behaviour (or blow the fuel headroom)
    are rejected with this sentinel — never on a Pareto front. *)
let rejected (s : Seqspace.seq) : eval =
  {
    e_seq = s;
    e_evasion = 0.0;
    e_cost = infinity;
    e_gap = neg_infinity;
    e_fitness = neg_infinity;
  }

(* transformed programs run strictly more instructions; give them headroom
   over the baseline fuel before calling a candidate non-terminating *)
let fuel_headroom = 16

(* the margin-gap tiebreak weight: small enough that one extra evaded
   challenge always dominates any gap movement *)
let gap_weight = 0.05

let evaluate ~(oracle : Yali_ir.Irmod.t -> float array) ~(lambda : float)
    ~(fuel : int) (chs : challenge array) (rng : Rng.t) (s : Seqspace.seq) :
    eval =
  let n = Array.length chs in
  let evaded = ref 0 and cost_sum = ref 0.0 and gap_sum = ref 0.0 in
  let valid = ref (n > 0) in
  Array.iteri
    (fun i ch ->
      if !valid then begin
        let m' = Seqspace.apply (Rng.split_ix rng i) s ch.ch_module in
        match
          let runm = Execution.prepare m' in
          Array.mapi
            (fun j input ->
              let o = runm ~fuel:(fuel * fuel_headroom) input in
              if
                not
                  (Interp.equal_observation (Interp.observe o) ch.ch_base.(j))
              then failwith "behaviour diverged";
              o.Interp.cost)
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
            Array.iteri
              (fun cidx v -> if cidx <> y && v > !rival then rival := v)
              scores;
            let denom =
              Array.fold_left (fun a v -> a +. Float.abs v) 0.0 scores
            in
            let gap = !rival -. scores.(y) in
            gap_sum := !gap_sum +. (if denom > 0.0 then gap /. denom else 0.0);
            if Yali_ml.Model.argmax scores <> y then incr evaded
      end)
    chs;
  if not !valid then rejected s
  else
    let nf = float_of_int n in
    let evasion = float_of_int !evaded /. nf in
    let cost = !cost_sum /. nf in
    let gap = !gap_sum /. nf in
    {
      e_seq = s;
      e_evasion = evasion;
      e_cost = cost;
      e_gap = gap;
      e_fitness =
        evasion +. (gap_weight *. gap)
        -. (lambda *. Float.max 0.0 (cost -. 1.0));
    }
