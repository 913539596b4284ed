(** See passdb.mli. *)

module Rng = Yali_util.Rng
module P = Yali_transforms.Pipeline
module Ob = Yali_obfuscation

type stage = {
  sname : string;
  srun : Rng.t -> Yali_ir.Irmod.t -> Yali_ir.Irmod.t;
}

type entry = { ename : string; efuel : int; estages : stage list }

exception Stage_failed of string * exn

let apply ?(check = ignore) (e : entry) (rng : Rng.t) (m : Yali_ir.Irmod.t) =
  let step (m, k) s =
    match
      let m = s.srun (Rng.split_ix rng k) m in
      check m;
      m
    with
    | m -> (m, k + 1)
    | exception ex -> raise (Stage_failed (s.sname, ex))
  in
  fst (List.fold_left step (m, 0) e.estages)

(* an entry is named after its stages: ["fla"], ["O2+fla"] *)
let entry ?(fuel = 4) stages =
  {
    ename = String.concat "+" (List.map (fun s -> s.sname) stages);
    efuel = fuel;
    estages = stages;
  }

let pure_stage name f = { sname = name; srun = (fun _ m -> f m) }
let pure ?fuel name f = entry ?fuel [ pure_stage name f ]
let o1 = pure_stage "O1" P.o1
let o2 = pure_stage "O2" P.o2
let o3 = pure_stage "O3" P.o3
let sub = { sname = "sub"; srun = Ob.Sub.run }
let bcf = { sname = "bcf"; srun = Ob.Bcf.run }
let fla = { sname = "fla"; srun = Ob.Fla.run }
let ollvm = { sname = "ollvm"; srun = Ob.Ollvm.run }

let all : entry list =
  [ { ename = "O0"; efuel = 1; estages = [] } ]
  @ [ entry [ o1 ]; entry [ o2 ]; entry [ o3 ] ]
  @ List.map (fun (p : P.pass) -> pure p.pname p.prun) P.all_passes
  @ [
      entry ~fuel:8 [ sub ];
      entry ~fuel:8 [ bcf ];
      entry ~fuel:16 [ fla ];
      entry ~fuel:16 [ ollvm ];
    ]
  (* optimize-then-obfuscate is the paper's evader pipeline;
     obfuscate-then-optimize asks the optimizers to chew on adversarial
     CFGs *)
  @ [
      entry ~fuel:8 [ o2; sub ];
      entry ~fuel:8 [ o2; bcf ];
      entry ~fuel:16 [ o2; fla ];
      entry ~fuel:16 [ o3; ollvm ];
      entry ~fuel:16 [ fla; o2 ];
      entry ~fuel:16 [ ollvm; o3 ];
    ]
  (* flattening flattened code: on generated programs these run up to
     225x the -O0 steps *)
  @ [
      entry ~fuel:256 [ fla; fla ];
      entry ~fuel:256 [ fla; ollvm ];
      entry ~fuel:256 [ ollvm; fla ];
      entry ~fuel:256 [ ollvm; ollvm ];
    ]

let find name = List.find_opt (fun e -> e.ename = name) all
