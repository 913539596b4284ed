(** See pool.mli.  Workers are spawned per batch: the work dispatched
    through the pool is coarse (whole embedding loops, whole forests), so
    domain spawn cost is noise, and a batch-scoped pool cannot leak
    domains or deadlock on nesting. *)

module Rng = Yali_util.Rng

(* ------------------------------------------------------------------ *)
(* configuration                                                       *)
(* ------------------------------------------------------------------ *)

let env_jobs () =
  match Sys.getenv_opt "YALI_JOBS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some n
      | _ -> None)

let default_jobs () =
  match env_jobs () with
  | Some n -> n
  | None -> Domain.recommended_domain_count ()

let configured : int option ref = ref None

let get_jobs () =
  match !configured with
  | Some j -> j
  | None ->
      let j = default_jobs () in
      configured := Some j;
      j

let set_jobs n =
  if n < 1 then invalid_arg "Pool.set_jobs: jobs must be positive";
  configured := Some n

let with_jobs n f =
  let old = get_jobs () in
  set_jobs n;
  Fun.protect ~finally:(fun () -> set_jobs old) f

let inside : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)
let inside_worker () = Domain.DLS.get inside

(* ------------------------------------------------------------------ *)
(* batch execution                                                     *)
(* ------------------------------------------------------------------ *)

(* Every worker takes the next unstarted index from one shared counter
   until it passes [n]: tasks are coarse, so one atomic increment per task
   balances irregular sizes without per-worker queues. *)
let run ~n task =
  if n > 0 then begin
    Telemetry.incr ~by:n "pool.tasks";
    let j = min (get_jobs ()) n in
    if j <= 1 || inside_worker () then begin
      Telemetry.incr "pool.sequential_batches";
      for i = 0 to n - 1 do
        task i
      done
    end
    else begin
      Telemetry.incr "pool.parallel_batches";
      let next = Atomic.make 0 in
      let failure = Atomic.make None in
      let rec work () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (try task i
           with e ->
             let bt = Printexc.get_raw_backtrace () in
             (* remember the first failure; remaining tasks still run, which
                is harmless for the pure tasks this pool schedules *)
             ignore (Atomic.compare_and_set failure None (Some (e, bt))));
          work ()
        end
      in
      let worker () =
        Domain.DLS.set inside true;
        work ()
      in
      let domains = Array.init (j - 1) (fun _ -> Domain.spawn worker) in
      (* the calling domain is worker 0 *)
      Domain.DLS.set inside true;
      Fun.protect ~finally:(fun () -> Domain.DLS.set inside false) work;
      Array.iter Domain.join domains;
      match Atomic.get failure with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    end
  end

(* ------------------------------------------------------------------ *)
(* combinators                                                         *)
(* ------------------------------------------------------------------ *)

let parallel_array_mapi f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    run ~n (fun i -> out.(i) <- Some (f i xs.(i)));
    Array.map (function Some v -> v | None -> assert false) out
  end

let parallel_array_map f xs = parallel_array_mapi (fun _ x -> f x) xs

let parallel_map f xs =
  Array.to_list (parallel_array_map f (Array.of_list xs))

let parallel_array_map_rng rng f xs =
  let base = Rng.split rng in
  parallel_array_mapi (fun i x -> f (Rng.split_ix base i) x) xs

let parallel_for_chunks ?(min_chunk = 1) n f =
  if n > 0 then begin
    let min_chunk = max 1 min_chunk in
    let max_chunks = max 1 (n / min_chunk) in
    (* a few chunks per worker so the shared counter can still rebalance *)
    let chunks = min max_chunks (get_jobs () * 4) in
    run ~n:chunks (fun c ->
        let lo = c * n / chunks and hi = (c + 1) * n / chunks in
        f lo hi)
  end
