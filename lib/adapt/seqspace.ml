(** The adaptive evader's gene space: sequences of parameterised IR-level
    obfuscation steps.

    Where {!Yali_obfuscation.Strategies} searches over the fifteen
    source-level rewrites with a fixed-distance objective, the adaptive
    evader searches {e here} — over the O-LLVM-style IR passes and their
    knobs (substitution probability and rounds, bogus-control-flow
    probability, the combined ollvm settings) — with the trained classifier
    itself in the loop ({!Fitness}).  Knob values are drawn from small
    discrete grids so the space stays enumerable and mutation is a
    well-defined neighbourhood move rather than a float perturbation. *)

module Rng = Yali_util.Rng
module Ob = Yali_obfuscation

type step =
  | Sub of { probability : float; rounds : int }
  | Fla
  | Bcf of { probability : float }
  | Ollvm of {
      sub_probability : float;
      sub_rounds : int;
      bcf_probability : float;
    }

type seq = step list

(* the discrete knob grids; probabilities are quartiles, rounds stay small
   because substitution growth compounds exponentially *)
let prob_grid = [| 0.25; 0.5; 0.75; 1.0 |]

let rounds_grid = [| 1; 2 |]

let random_step (rng : Rng.t) : step =
  let prob () = Rng.choice_arr rng prob_grid in
  let rounds () = Rng.choice_arr rng rounds_grid in
  match Rng.int rng 4 with
  | 0 -> Sub { probability = prob (); rounds = rounds () }
  | 1 -> Fla
  | 2 -> Bcf { probability = prob () }
  | _ ->
      Ollvm
        {
          sub_probability = prob ();
          sub_rounds = rounds ();
          bcf_probability = prob ();
        }

let random_seq (rng : Rng.t) ~(max_len : int) : seq =
  let len = Rng.int_range rng 1 (max 1 max_len) in
  List.init len (fun _ -> random_step rng)

(* retune: keep the step kind, move one knob to a fresh grid value *)
let retune (rng : Rng.t) : step -> step = function
  | Sub { probability; rounds } ->
      if Rng.bool rng then
        Sub { probability = Rng.choice_arr rng prob_grid; rounds }
      else Sub { probability; rounds = Rng.choice_arr rng rounds_grid }
  | Fla -> Fla
  | Bcf _ -> Bcf { probability = Rng.choice_arr rng prob_grid }
  | Ollvm o -> (
      match Rng.int rng 3 with
      | 0 -> Ollvm { o with sub_probability = Rng.choice_arr rng prob_grid }
      | 1 -> Ollvm { o with sub_rounds = Rng.choice_arr rng rounds_grid }
      | _ -> Ollvm { o with bcf_probability = Rng.choice_arr rng prob_grid })

let mutate (rng : Rng.t) ~(max_len : int) (s : seq) : seq =
  let n = List.length s in
  match Rng.int rng 4 with
  | 0 when n < max_len ->
      (* insert a fresh step at a random position *)
      let k = Rng.int rng (n + 1) in
      List.filteri (fun i _ -> i < k) s
      @ [ random_step rng ]
      @ List.filteri (fun i _ -> i >= k) s
  | 1 when n > 1 ->
      let k = Rng.int rng n in
      List.filteri (fun i _ -> i <> k) s
  | 2 when n > 0 ->
      let k = Rng.int rng n in
      List.mapi (fun i st -> if i = k then random_step rng else st) s
  | _ ->
      if n = 0 then [ random_step rng ]
      else
        let k = Rng.int rng n in
        List.mapi (fun i st -> if i = k then retune rng st else st) s

let apply_step (rng : Rng.t) (st : step) (m : Yali_ir.Irmod.t) :
    Yali_ir.Irmod.t =
  match st with
  | Sub { probability; rounds } -> Ob.Sub.run ~probability ~rounds rng m
  | Fla -> Ob.Fla.run rng m
  | Bcf { probability } -> Ob.Bcf.run ~probability rng m
  | Ollvm { sub_probability; sub_rounds; bcf_probability } ->
      Ob.Ollvm.run ~sub_probability ~sub_rounds ~bcf_probability rng m

let apply (rng : Rng.t) (s : seq) (m : Yali_ir.Irmod.t) : Yali_ir.Irmod.t =
  fst
    (List.fold_left
       (fun (m, ix) st ->
         let r = Rng.split_ix rng ix in
         (* search must be robust: a step that crashes is a no-op, not a
            dead candidate — and so is one whose output fails
            verification, since only well-formed modules may reach the
            interpreter and the classifier *)
         let m' =
           match apply_step r st m with
           | m' -> if Yali_ir.Verify.check_module m' = [] then m' else m
           | exception _ -> m
         in
         (m', ix + 1))
       (m, 0) s)

let step_to_string = function
  | Sub { probability; rounds } ->
      Printf.sprintf "sub(p=%.2f,r=%d)" probability rounds
  | Fla -> "fla"
  | Bcf { probability } -> Printf.sprintf "bcf(p=%.2f)" probability
  | Ollvm { sub_probability; sub_rounds; bcf_probability } ->
      Printf.sprintf "ollvm(sp=%.2f,sr=%d,bp=%.2f)" sub_probability sub_rounds
        bcf_probability

let to_string = function
  | [] -> "id"
  | s -> String.concat ";" (List.map step_to_string s)

let of_string (t : string) : seq =
  let fail () = invalid_arg ("Seqspace.of_string: " ^ String.escaped t) in
  let step w =
    let scan fmt k = Scanf.sscanf w fmt k in
    if w = "fla" then Fla
    else if String.starts_with ~prefix:"sub(" w then
      scan "sub(p=%f,r=%d)%!" (fun probability rounds ->
          Sub { probability; rounds })
    else if String.starts_with ~prefix:"bcf(" w then
      scan "bcf(p=%f)%!" (fun probability -> Bcf { probability })
    else if String.starts_with ~prefix:"ollvm(" w then
      scan "ollvm(sp=%f,sr=%d,bp=%f)%!"
        (fun sub_probability sub_rounds bcf_probability ->
          Ollvm { sub_probability; sub_rounds; bcf_probability })
    else fail ()
  in
  (* the scanners accept more spellings than [to_string] prints (["p=1"],
     ["r=02"]); reprinting keeps only the printed one *)
  match
    if t = "id" then [] else List.map step (String.split_on_char ';' t)
  with
  | s when to_string s = t -> s
  | _ | (exception (Scanf.Scan_failure _ | Failure _ | End_of_file)) -> fail ()
