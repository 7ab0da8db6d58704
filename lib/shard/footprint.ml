open Nt_serial

type classification = Local of int | Cross of int list

let classify part prog =
  let shards =
    Program.objects prog
    |> List.map (Partition.shard_of part)
    |> List.sort_uniq compare
  in
  match shards with
  | [] -> Local 0
  | [ s ] -> Local s
  | many -> Cross many
