open Core
open Util

(* A refusal names its blockers.  [Runtime.break_deadlock] finds
   waits-for cycles through [waiting_on], so every backend must name at
   least one blocker whenever [try_respond] refuses, and none when it
   responds.  Each factory is wrapped so that every [try_respond] first
   reads [waiting_on] on the state it is about to decide on; 300
   generated scenarios per backend (replication serves through undo's
   factory). *)
let t_refusal_names_blockers () =
  List.iter
    (fun backend ->
      let name = Check.backend_name backend in
      let refusals = ref 0 in
      let checked factory schema x =
        let o = factory schema x in
        {
          o with
          Gobj.try_respond =
            (fun u ->
              let blockers = o.Gobj.waiting_on u in
              let r = o.Gobj.try_respond u in
              (match (r, blockers) with
              | None, [] ->
                  Alcotest.failf "%s: %s refused at %s with no blocker" name
                    (Txn_id.to_string u) (Obj_id.name x)
              | Some _, (b, _) :: _ ->
                  Alcotest.failf "%s: %s responded at %s blocked by %s" name
                    (Txn_id.to_string u) (Obj_id.name x) (Txn_id.to_string b)
              | None, _ :: _ -> incr refusals
              | Some _, [] -> ());
              r);
        }
      in
      for i = 0 to 299 do
        let sc = Check.gen_scenario backend (Rng.create (5100 + i)) in
        ignore
          (Runtime.run ~policy:sc.Check.policy
             ~inform_policy:sc.Check.inform_policy
             ~abort_prob:sc.Check.abort_prob ~seed:sc.Check.sched_seed
             (Check.schema_of_scenario sc)
             (checked (Check.factory_of backend))
             sc.Check.forest)
      done;
      check_bool (name ^ ": some access was refused") true (!refusals > 0))
    [ Check.Moss; Check.Commlock; Check.Undo; Check.Mvts ]

let suite =
  ( "gobj",
    [
      Alcotest.test_case "a refusal names its blockers" `Quick
        t_refusal_names_blockers;
    ] )
