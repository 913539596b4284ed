(** See engine.mli. *)

type tier = Smoke | Deep

type config = {
  seed : int;
  tier : tier;
  per_pass : int option;
  prop_count : int option;
  out_dir : string option;
  save_findings : bool;
  corpus_dir : string option;
  log : string -> unit;
}

let default =
  {
    seed = 42;
    tier = Smoke;
    per_pass = None;
    prop_count = None;
    out_dir = None;
    save_findings = false;
    corpus_dir = Some Corpus.default_dir;
    log = ignore;
  }

let tier_per_pass = function Smoke -> 5 | Deep -> 200
let tier_prop_count = function Smoke -> 25 | Deep -> 300

type report = { e_tv : Tv.report; e_props : Prop.result list; e_ok : bool }

let sanitize name =
  String.map (fun c -> if c = ':' || c = '/' || c = ' ' then '-' else c) name

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let summary (r : report) : string =
  let b = Buffer.create 512 in
  Buffer.add_string b (Tv.summary r.e_tv);
  Buffer.add_char b '\n';
  Buffer.add_string b (Prop.summary r.e_props);
  Printf.bprintf b "\ncheck %s\n" (if r.e_ok then "OK" else "FAILED");
  Buffer.contents b

(* the minimized reproducer, or the original program when shrinking was
   off; [None] for a corpus file that did not parse *)
let reproducer (f : Tv.failure) =
  match f.Tv.f_minimized with Some p -> Some p | None -> f.Tv.f_program

(* one .c artifact per translation-validation failure: the reproducer, with
   the pass name and failure kind in a leading comment — exactly what a CI
   artifact needs to replay the bug locally *)
let dump_artifacts dir (r : report) =
  Yali_util.Fs.mkdir_p dir;
  List.iteri
    (fun k (f : Tv.failure) ->
      let body =
        Printf.sprintf "// pass: %s\n// origin: %s\n// %s\n%s"
          f.Tv.f_pass f.Tv.f_origin
          (Tv.failure_kind_to_string f.Tv.f_kind)
          (Option.fold ~none:"" ~some:Yali_minic.Pp.program_to_string
             (reproducer f))
      in
      write_file
        (Filename.concat dir
           (Printf.sprintf "counterexample-%02d-%s.c" k (sanitize f.Tv.f_pass)))
        body)
    r.e_tv.Tv.c_failures;
  write_file (Filename.concat dir "report.txt") (summary r)

let run (cfg : config) : report =
  let per_pass = Option.value cfg.per_pass ~default:(tier_per_pass cfg.tier) in
  let prop_count =
    Option.value cfg.prop_count ~default:(tier_prop_count cfg.tier)
  in
  let tv =
    Tv.run
      {
        Tv.default with
        seed = cfg.seed;
        per_pass;
        corpus_dir = cfg.corpus_dir;
        log = cfg.log;
      }
  in
  let props = Prop.run_all ~count:prop_count ~seed:cfg.seed Oracles.all in
  let ok = tv.Tv.c_failures = [] && Prop.failed props = [] in
  let report = { e_tv = tv; e_props = props; e_ok = ok } in
  (match cfg.out_dir with
  | Some dir when not ok -> dump_artifacts dir report
  | _ -> ());
  (if cfg.save_findings then
     match cfg.corpus_dir with
     | Some dir ->
         List.iter
           (fun f ->
             Option.iter (fun p -> ignore (Corpus.save ~dir p)) (reproducer f))
           tv.Tv.c_failures
     | None -> ());
  report
