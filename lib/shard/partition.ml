open Nt_base
open Nt_spec

type t = {
  n : int;
  all : (Obj_id.t * Datatype.t) list;
  per_shard : (Obj_id.t * Datatype.t) list array;
}

let default_key x =
  let s = Obj_id.name x in
  match String.rindex_opt s '#' with
  | Some i -> String.sub s 0 i
  | None -> s

(* [Hashtbl.hash] diffuses the low bits of short similar strings
   poorly ("x0" and "x1" agree mod 2), and placement takes the hash
   mod a small shard count — so scramble it first. *)
let mix h =
  let h = h lxor (h lsr 16) in
  let h = h * 0x45d9f3b land 0x3FFFFFFF in
  let h = h lxor (h lsr 13) in
  let h = h * 0x45d9f3b land 0x3FFFFFFF in
  h lxor (h lsr 16)

let place n x = mix (Hashtbl.hash (default_key x)) mod n

let create ~shards objects =
  if shards < 1 then invalid_arg "Partition.create: shards < 1";
  let per_shard = Array.make shards [] in
  List.iter
    (fun (x, dt) ->
      let s = place shards x in
      per_shard.(s) <- (x, dt) :: per_shard.(s))
    objects;
  {
    n = shards;
    all = objects;
    per_shard = Array.map List.rev per_shard;
  }

let shards t = t.n
let shard_of t x = place t.n x
let objects_of t s = t.per_shard.(s)
let objects t = t.all
