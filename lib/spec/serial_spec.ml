open Nt_base

type operation = Datatype.op * Value.t

type fold_step = Fold of operation | Skip | Stop

(* The one replay loop: every check of recorded return values below
   runs through it. *)
let fold_prefix ?init (dt : Datatype.t) classify entries =
  let rec go s = function
    | [] -> Some (s, [])
    | e :: rest as l -> (
        match classify e with
        | Stop -> Some (s, l)
        | Skip -> go s rest
        | Fold (op, v) ->
            let s', v' = dt.apply s op in
            if Value.equal v v' then go s' rest else None)
  in
  go (match init with Some s -> s | None -> dt.init) entries

let final_state ?init dt xi =
  match fold_prefix ?init dt (fun o -> Fold o) xi with
  | Some (s, _) -> Some s
  | None -> None

let legal ?init dt xi = final_state ?init dt xi <> None

let response ?init (dt : Datatype.t) xi op =
  match final_state ?init dt xi with
  | None -> None
  | Some s -> Some (snd (dt.apply s op))

let equieffective dt xi eta =
  match (final_state dt xi, final_state dt eta) with
  | Some s, Some s' -> Value.equal s s'
  | _ -> false

(* One direction of the definitional check from a single state [s]:
   if [p] then [q] replays from [s] with the recorded return values,
   then [q] then [p] must replay likewise and reach the same state. *)
let directional_ok (dt : Datatype.t) s ((p, vp) : operation) ((q, vq) : operation)
    =
  let s1, u1 = dt.apply s p in
  if not (Value.equal u1 vp) then true (* forward not a behavior: vacuous *)
  else
    let s2, u2 = dt.apply s1 q in
    if not (Value.equal u2 vq) then true
    else
      let t1, w1 = dt.apply s q in
      Value.equal w1 vq
      &&
      let t2, w2 = dt.apply t1 p in
      Value.equal w2 vp && Value.equal t2 s2

let commutes_backward_semantic (dt : Datatype.t) ?states o1 o2 =
  let states = match states with Some l -> l | None -> dt.probe_states in
  List.for_all
    (fun s -> directional_ok dt s o1 o2 && directional_ok dt s o2 o1)
    states
