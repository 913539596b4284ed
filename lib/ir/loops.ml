(** Natural-loop detection: back edges via dominance, loop bodies by
    backward reachability.  Used by loop-aware passes (LICM) and by
    structural metrics. *)

type loop = { header : int; latches : int list; body : bool array; size : int }
type t = { cfg : Cfg.t; loops : loop list }

let compute (g : Cfg.t) (dom : Dominance.t) : t =
  (* back edge: u -> h where u is reachable and h dominates u, grouped by
     the header's label (LICM visits equal-sized loops in this table's fold
     order); dominance is reflexive even on unreachable blocks, so an
     unreachable self-loop would otherwise head a loop *)
  let by_header = Hashtbl.create 8 in
  for u = 0 to g.n_blocks - 1 do
    List.iter
      (fun h ->
        if Dominance.reachable dom u && Dominance.dominates dom h u then
          let l = Cfg.label g h in
          let latches = Option.fold ~none:[] ~some:snd (Hashtbl.find_opt by_header l) in
          Hashtbl.replace by_header l (h, u :: latches))
      g.succ.(u)
  done;
  let loops =
    Hashtbl.fold
      (fun _ (header, latches) acc ->
        (* body: header + reachable blocks that reach a latch without
           passing through the header (standard natural-loop algorithm) *)
        let body = Array.make (Cfg.size g) false in
        body.(header) <- true;
        let size = ref 1 in
        let work = Queue.create () in
        List.iter (fun l -> Queue.add l work) latches;
        while not (Queue.is_empty work) do
          let b = Queue.pop work in
          if not body.(b) then begin
            body.(b) <- true;
            incr size;
            List.iter
              (fun p ->
                if (not body.(p)) && Dominance.reachable dom p then
                  Queue.add p work)
              g.pred.(b)
          end
        done;
        { header; latches; body; size = !size } :: acc)
      by_header []
  in
  { cfg = g; loops }

let of_func (f : Func.t) : t =
  let g = Cfg.of_func f in
  compute g (Dominance.compute g)

let mem (t : t) (l : loop) label =
  match Cfg.find t.cfg label with Some i -> l.body.(i) | None -> false

(** Innermost-first ordering (by body size, ascending). *)
let innermost_first (t : t) : loop list =
  List.sort (fun a b -> compare a.size b.size) t.loops

(** The loop nesting depth of each block. *)
let depth_map (t : t) : int array =
  let depth = Array.make (Cfg.size t.cfg) 0 in
  List.iter
    (fun l -> Array.iteri (fun i inside -> if inside then depth.(i) <- depth.(i) + 1) l.body)
    t.loops;
  depth

let loop_count (t : t) = List.length t.loops
