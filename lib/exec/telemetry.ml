(** See telemetry.mli.  One global lock guards the aggregate tables; spans
    and counters are coarse-grained events, so contention is negligible
    next to the work they measure. *)

type span_stat = { span_count : int; span_seconds : float }

type report = {
  r_counters : (string * int) list;
  r_spans : (string * span_stat) list;
}

let lock = Mutex.create ()
let counters : (string, int ref) Hashtbl.t = Hashtbl.create 64

type mutable_span = { mutable count : int; mutable seconds : float }

let spans : (string, mutable_span) Hashtbl.t = Hashtbl.create 64

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* ------------------------------------------------------------------ *)
(* clocks                                                              *)
(* ------------------------------------------------------------------ *)

(* [Unix.gettimeofday] is the only wall clock the bundled Unix library
   offers (no [clock_gettime]); pinning readings to be non-decreasing
   makes timings survive NTP step adjustments. *)
let clock_lock = Mutex.create ()
let last_reading = ref 0.0

let clock () =
  Mutex.lock clock_lock;
  let now = Unix.gettimeofday () in
  let t = if now > !last_reading then now else !last_reading in
  last_reading := t;
  Mutex.unlock clock_lock;
  t

(* ------------------------------------------------------------------ *)
(* events                                                              *)
(* ------------------------------------------------------------------ *)

let incr ?(by = 1) name =
  locked (fun () ->
      match Hashtbl.find_opt counters name with
      | Some r -> r := !r + by
      | None -> Hashtbl.replace counters name (ref by))

let counter name =
  locked (fun () ->
      match Hashtbl.find_opt counters name with Some r -> !r | None -> 0)

let record_span name seconds =
  locked (fun () ->
      match Hashtbl.find_opt spans name with
      | Some s ->
          s.count <- s.count + 1;
          s.seconds <- s.seconds +. seconds
      | None -> Hashtbl.replace spans name { count = 1; seconds })

let with_span name f =
  let t0 = clock () in
  Fun.protect ~finally:(fun () -> record_span name (clock () -. t0)) f

(* ------------------------------------------------------------------ *)
(* reporting                                                           *)
(* ------------------------------------------------------------------ *)

let snapshot () =
  locked (fun () ->
      let cs =
        Hashtbl.fold (fun name r acc -> (name, !r) :: acc) counters []
      in
      let ss =
        Hashtbl.fold
          (fun name s acc ->
            (name, { span_count = s.count; span_seconds = s.seconds }) :: acc)
          spans []
      in
      let by_name (a, _) (b, _) = compare (a : string) b in
      { r_counters = List.sort by_name cs; r_spans = List.sort by_name ss })

let reset () =
  locked (fun () ->
      Hashtbl.reset counters;
      Hashtbl.reset spans)

let report_json () =
  let module J = Yali_util.Json in
  let r = snapshot () in
  let span (name, s) =
    ( name,
      J.Obj
        [ ("count", J.Int s.span_count); ("seconds", J.Fixed (6, s.span_seconds)) ]
    )
  in
  J.Obj
    [
      ("counters", J.Obj (List.map (fun (name, v) -> (name, J.Int v)) r.r_counters));
      ("spans", J.Obj (List.map span r.r_spans));
    ]

let to_json () = Yali_util.Json.pretty (report_json ()) ^ "\n"
let write_json path = Yali_util.Json.write path (report_json ())

(* ------------------------------------------------------------------ *)
(* histograms                                                          *)
(* ------------------------------------------------------------------ *)

module Histogram = struct
  (* Values below [sub] get a bucket each.  Above, every power-of-two
     range [2^e, 2^(e+1)) splits into [sub] equal buckets, so a bucket is
     at most 1/[sub] of its lower bound wide; reporting its midpoint is
     within 1/(2*[sub]) of any value in it. *)
  let sub_bits = 4
  let sub = 1 lsl sub_bits
  let n_buckets = sub + ((Sys.int_size - 1 - sub_bits) * sub)

  type t = { buckets : int array; mutable count : int }

  let create () = { buckets = Array.make n_buckets 0; count = 0 }

  let reset h =
    Array.fill h.buckets 0 n_buckets 0;
    h.count <- 0

  let rec msb v = if v <= 1 then 0 else 1 + msb (v lsr 1)

  let index v =
    if v < sub then max v 0
    else
      let shift = msb v - sub_bits in
      sub + (shift * sub) + ((v lsr shift) - sub)

  (* the midpoint of a bucket: exact below [sub] *)
  let value_of i =
    if i < sub then i
    else
      let shift = (i - sub) / sub in
      let lo = (sub + ((i - sub) mod sub)) lsl shift in
      lo + ((1 lsl shift) / 2)

  let add h v =
    let i = index v in
    h.buckets.(i) <- h.buckets.(i) + 1;
    h.count <- h.count + 1

  let quantile h q =
    if h.count = 0 then 0
    else
      let rank = min (h.count - 1) (int_of_float ((float_of_int (h.count - 1) *. q) +. 0.5)) in
      let rec find i seen =
        let seen = seen + h.buckets.(i) in
        if seen > rank then value_of i else find (i + 1) seen
      in
      find 0 0
end
