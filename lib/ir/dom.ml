(* Dominator tree and dominance frontiers, after Cooper, Harvey &
   Kennedy, "A Simple, Fast Dominance Algorithm"; and immediate
   postdominators ([ipostdoms]), the reconvergence points used by the
   divergence analysis, the register allocator and the SIMT executor. *)

open Proteus_support

type t = {
  cfg : Cfg.t;
  idom : string Util.Smap.t;            (* immediate dominator; entry maps to itself *)
  children : string list Util.Smap.t;   (* dominator-tree children *)
  frontier : Util.Sset.t Util.Smap.t;   (* dominance frontier *)
  order : int Util.Smap.t;              (* RPO index, for intersect *)
}

let compute (cfg : Cfg.t) =
  let rpo = cfg.rpo in
  let order =
    List.fold_left
      (fun (m, i) l -> (Util.Smap.add l i m, i + 1))
      (Util.Smap.empty, 0) rpo
    |> fst
  in
  let entry = match rpo with e :: _ -> e | [] -> Util.failf "Dom.compute: empty CFG" in
  let idom = ref (Util.Smap.singleton entry entry) in
  let intersect a b =
    let rec go a b =
      if a = b then a
      else
        let ia = Util.Smap.find a order and ib = Util.Smap.find b order in
        if ia > ib then go (Util.Smap.find a !idom) b else go a (Util.Smap.find b !idom)
    in
    go a b
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        if b <> entry then begin
          let processed_preds =
            List.filter
              (fun p -> Util.Smap.mem p !idom && Util.Smap.mem p order)
              (Cfg.preds cfg b)
          in
          match processed_preds with
          | [] -> ()
          | first :: rest ->
              let new_idom = List.fold_left intersect first rest in
              if
                (not (Util.Smap.mem b !idom))
                || Util.Smap.find b !idom <> new_idom
              then begin
                idom := Util.Smap.add b new_idom !idom;
                changed := true
              end
        end)
      rpo
  done;
  let children =
    Util.Smap.fold
      (fun b d acc ->
        if b = entry then acc
        else
          let cur = try Util.Smap.find d acc with Not_found -> [] in
          Util.Smap.add d (cur @ [ b ]) acc)
      !idom Util.Smap.empty
  in
  (* Dominance frontiers. *)
  let frontier = ref Util.Smap.empty in
  let add_df n x =
    let cur = try Util.Smap.find n !frontier with Not_found -> Util.Sset.empty in
    frontier := Util.Smap.add n (Util.Sset.add x cur) !frontier
  in
  List.iter
    (fun b ->
      let preds = List.filter (fun p -> Util.Smap.mem p order) (Cfg.preds cfg b) in
      if List.length preds >= 2 then
        List.iter
          (fun p ->
            let rec runner r =
              if r <> Util.Smap.find b !idom then begin
                add_df r b;
                runner (Util.Smap.find r !idom)
              end
            in
            runner p)
          preds)
    rpo;
  { cfg; idom = !idom; children; frontier = !frontier; order }

let idom t l = Util.Smap.find_opt l t.idom
let children t l = try Util.Smap.find l t.children with Not_found -> []
let frontier t l = try Util.Smap.find l t.frontier with Not_found -> Util.Sset.empty

(* Does [a] dominate [b]? Walk [b]'s idom chain. *)
let dominates t a b =
  let rec go b = if a = b then true else match idom t b with
    | Some d when d <> b -> go d
    | _ -> false
  in
  go b

(* Preorder walk of the dominator tree from the entry. *)
let preorder t =
  let entry = match t.cfg.Cfg.rpo with e :: _ -> e | [] -> Util.failf "Dom.preorder" in
  let rec go l = l :: List.concat_map go (children t l) in
  go entry

(* Immediate postdominators by iterative dataflow on block label lists.
   A virtual exit postdominates everything. *)
let ipostdoms (labels : string list) (succs : string -> string list) :
    string Util.Smap.t =
  let exit_name = "<exit>" in
  let all = labels in
  (* postdom sets, initialised to everything *)
  let full = Util.Sset.of_list (exit_name :: all) in
  let pdom = ref Util.Smap.empty in
  List.iter
    (fun l ->
      let init = if succs l = [] then Util.Sset.of_list [ l; exit_name ] else full in
      pdom := Util.Smap.add l init !pdom)
    all;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun l ->
        let ss = succs l in
        let meet =
          match ss with
          | [] -> Util.Sset.singleton exit_name
          | s :: rest ->
              List.fold_left
                (fun acc s' -> Util.Sset.inter acc (Util.Smap.find s' !pdom))
                (Util.Smap.find s !pdom) rest
        in
        let nv = Util.Sset.add l meet in
        if not (Util.Sset.equal nv (Util.Smap.find l !pdom)) then begin
          pdom := Util.Smap.add l nv !pdom;
          changed := true
        end)
      all
  done;
  (* ipdom(l) = the postdominator of l (other than l) postdominated by
     all other postdominators of l. *)
  List.fold_left
    (fun acc l ->
      let cands = Util.Sset.remove l (Util.Smap.find l !pdom) in
      let ip =
        Util.Sset.fold
          (fun c best ->
            match best with
            | None -> Some c
            | Some b ->
                (* c is "closer" if b postdominates c *)
                let cpd = try Util.Smap.find c !pdom with Not_found -> Util.Sset.empty in
                if Util.Sset.mem b cpd && c <> b then Some c else best)
          cands None
      in
      match ip with Some ip -> Util.Smap.add l ip acc | None -> acc)
    Util.Smap.empty all
