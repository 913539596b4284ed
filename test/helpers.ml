(** Shared helpers for the test suites. *)

module Rng = Yali.Rng
module Ir = Yali.Ir
module Minic = Yali.Minic

(* The daemons of the serve and adapt suites are this binary re-run in
   the hidden daemon mode, which must take over before Alcotest reads
   [Sys.argv]. *)
let () = Yali.Serve.Client.daemon_mode ()

let parse = Yali.parse
let lower = Yali.lower

(** Compile a source snippet and run it. *)
let run_src ?(input = []) (src : string) : Ir.Interp.outcome =
  Ir.Interp.run (lower (parse src)) input

(** Integer outputs of a run. *)
let outputs (o : Ir.Interp.outcome) : int list =
  List.map Int64.to_int o.output

let exit_int (o : Ir.Interp.outcome) : int =
  match o.exit_value with
  | Ir.Interp.RInt n -> Int64.to_int n
  | _ -> Alcotest.fail "expected integer exit value"

(** A deterministic input stream for fuzz runs. *)
let fuzz_input (seed : int) : int64 list =
  let rng = Rng.make (seed * 77 + 13) in
  List.init 48 (fun _ -> Int64.of_int (Rng.int_range rng (-500) 500))

(** Draw a dataset program deterministically from a seed: problem [seed mod
    104], sample variation from the rest of the seed.  Gives qcheck
    properties a rich supply of realistic programs. *)
let dataset_program (seed : int) : Minic.Ast.program =
  let seed = abs seed in
  let problem = Yali.Dataset.Genprog.nth (seed mod Yali.Dataset.Genprog.count) in
  problem.generate (Rng.make (seed / 104))

(** Check that a module transformation preserves observable behaviour on the
    program drawn from [seed], using that seed's fuzz input. *)
let preserves_behaviour ?(fuel = 4_000_000)
    (tx : Ir.Irmod.t -> Ir.Irmod.t) (seed : int) : bool =
  let m = lower (dataset_program seed) in
  let input = fuzz_input seed in
  let base = Ir.Interp.run ~fuel m input in
  let m' = tx m in
  (match Ir.Verify.check_module m' with
  | [] -> ()
  | e :: _ ->
      Alcotest.failf "transformed module fails verification: %a"
        Ir.Verify.pp_error e);
  let o = Ir.Interp.run ~fuel:(fuel * 8) m' input in
  Ir.Interp.equal_behaviour base o

(** Same, for source-to-source transformations. *)
let source_preserves_behaviour ?(fuel = 4_000_000)
    (tx : Rng.t -> Minic.Ast.program -> Minic.Ast.program) (seed : int) : bool
    =
  let p = dataset_program seed in
  let input = fuzz_input seed in
  let base = Ir.Interp.run ~fuel (lower p) input in
  let p' = tx (Rng.make seed) p in
  let o = Ir.Interp.run ~fuel:(fuel * 8) (lower p') input in
  Ir.Interp.equal_behaviour base o

(** A program that prints NaN: its run must equal itself, though
    [nan <> nan]. *)
let prints_nan =
  "int main() { double z = 0.0; double q = z / z; print_float(q); return 0; }"

let qtest ?(count = 60) name prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name QCheck.small_int prop)

let approx ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

(** Bit equality of float arrays: [=] takes [-0.0] for [0.0] and fails on
    NaN. *)
let same_bits (a : float array) (b : float array) : bool =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
       a b

(** Whether a daemon's [socket] file is gone within 10 s: [Server.run]
    closes every connection and then removes it on its way out. *)
let socket_gone (socket : string) : bool =
  let rec go tries =
    (not (Sys.file_exists socket))
    || tries > 0
       && begin
         Unix.sleepf 0.05;
         go (tries - 1)
       end
  in
  go 200

let contains_substring (haystack : string) (needle : string) : bool =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* A model snapshot written by hand: [Model.save]'s header (magic, version
   1, kind tag), then [payload] — for payloads [save] never writes. *)
let model_blob tag payload =
  let b = Buffer.create 128 in
  Buffer.add_string b "YMDL";
  Yali.Util.Bin.w_u16 b 1;
  Yali.Util.Bin.w_u8 b tag;
  payload b;
  Buffer.contents b
