(** Dominator tree via the Cooper–Harvey–Kennedy iterative algorithm, with
    pre/post numbers on the tree so that [dominates] is two comparisons.
    Dominance frontiers, which only SSA construction needs, are computed on
    demand by {!frontiers}. *)

type t = {
  rpo : int array;
  idom : int array;
  children : int list array;
  pre : int array;
  post : int array;
}

let compute (g : Cfg.t) : t =
  let n = Cfg.size g in
  let rpo = Array.of_list (Cfg.reverse_postorder g) in
  let order = Array.make n (-1) in
  Array.iteri (fun k i -> order.(i) <- k) rpo;
  let idom = Array.make n (-1) in
  idom.(g.entry) <- g.entry;
  (* walk up the (partial) dominator tree by rpo index *)
  let rec intersect a b =
    if a = b then a
    else if order.(a) > order.(b) then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun l ->
        if l <> g.entry then
          let d =
            List.fold_left
              (fun d p ->
                if idom.(p) < 0 then d else if d < 0 then p else intersect d p)
              (-1) g.pred.(l)
          in
          if d >= 0 && idom.(l) <> d then (
            idom.(l) <- d;
            changed := true))
      rpo
  done;
  let children = Array.make n [] in
  for k = Array.length rpo - 1 downto 1 do
    let i = rpo.(k) in
    children.(idom.(i)) <- i :: children.(idom.(i))
  done;
  let pre = Array.make n (-1) and post = Array.make n (-1) in
  let npre = ref 0 and npost = ref 0 in
  let rec number i =
    pre.(i) <- !npre;
    incr npre;
    List.iter number children.(i);
    post.(i) <- !npost;
    incr npost
  in
  number g.entry;
  { rpo; idom; children; pre; post }

let reachable (d : t) i = d.pre.(i) >= 0

let idom (d : t) i =
  let p = d.idom.(i) in
  if p < 0 || p = i then None else Some p

(** Does block [a] dominate block [b]?  (Reflexive.) *)
let dominates (d : t) a b =
  a = b || (d.pre.(b) >= 0 && d.pre.(a) <= d.pre.(b) && d.post.(b) <= d.post.(a))

let frontiers (g : Cfg.t) (d : t) : int list array =
  let df = Array.make (Cfg.size g) [] in
  Array.iter
    (fun l ->
      let preds = List.filter (reachable d) g.pred.(l) in
      if List.length preds >= 2 then
        List.iter
          (fun p ->
            (* the entry is its own idom, which ends the climb *)
            let rec runner r =
              if r <> d.idom.(l) then (
                if not (List.mem l df.(r)) then df.(r) <- l :: df.(r);
                if d.idom.(r) <> r then runner d.idom.(r))
            in
            runner p)
          preds)
    d.rpo;
  df
