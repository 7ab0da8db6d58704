open Nt_base
open Nt_spec

type conflict_mode = Conflict.mode = Access_level | Operation_level

let build mode (schema : Schema.t) trace =
  let g = Graph.create () in
  (* Nodes: lowtransactions of visible events (except T0 itself, which
     has no parent to be grouped under). *)
  let vis = Trace.visible trace ~to_:Txn_id.root in
  Array.iter
    (fun a ->
      match Action.lowtransaction a with
      | Some t when not (Txn_id.is_root t) -> Graph.add_node g t
      | _ -> ())
    vis;
  List.iter (fun (a, b) -> Graph.add_edge g a b ()) (Conflict.relation mode schema trace);
  List.iter (fun (a, b) -> Graph.add_edge g a b ()) (Precedes.relation trace);
  g

(* Group a global topological sort by parent, preserving order; each
   group is a chain for that parent.  SG edges only connect siblings,
   so the per-parent subsequences of any topological order of SG are
   themselves consistent with every edge: the grouped order is a valid
   witness sibling order. *)
let sibling_order_of_topo sorted =
  let by_parent = Txn_id.Tbl.create 16 in
  List.iter
    (fun t ->
      match Txn_id.parent t with
      | None -> ()
      | Some p ->
          let l =
            match Txn_id.Tbl.find_opt by_parent p with
            | Some l -> l
            | None -> []
          in
          Txn_id.Tbl.replace by_parent p (t :: l))
    sorted;
  let chains = Txn_id.Tbl.fold (fun _ l acc -> List.rev l :: acc) by_parent [] in
  Sibling_order.of_chains chains

let witness_order g =
  match Graph.topological_sort g with
  | None -> None
  | Some sorted -> Some (sibling_order_of_topo sorted)
