type counter = { mutable c : int }
type gauge = { mutable g : float }

(* Bucket [i] counts observations [v] with [bucket_of v = i]:
   bucket 0 holds v <= 0, bucket i holds 2^(i-1) <= v < 2^i. *)
let n_buckets = 64

type histogram = {
  buckets : int array;
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_min : int;
  mutable h_max : int;
}

type instrument = Counter of counter | Gauge of gauge | Histogram of histogram

type t = (string, instrument) Hashtbl.t

let create () = Hashtbl.create 32

let get_or_make t name make =
  match Hashtbl.find_opt t name with
  | Some i -> i
  | None ->
      let i = make () in
      Hashtbl.replace t name i;
      i

let kind_error name =
  invalid_arg ("Metrics: " ^ name ^ " already registered as another kind")

let counter t name =
  match get_or_make t name (fun () -> Counter { c = 0 }) with
  | Counter c -> c
  | _ -> kind_error name

let gauge t name =
  match get_or_make t name (fun () -> Gauge { g = 0.0 }) with
  | Gauge g -> g
  | _ -> kind_error name

let histogram t name =
  match
    get_or_make t name (fun () ->
        Histogram
          {
            buckets = Array.make n_buckets 0;
            h_count = 0;
            h_sum = 0;
            h_min = 0;
            h_max = 0;
          })
  with
  | Histogram h -> h
  | _ -> kind_error name

let incr ?(by = 1) c = c.c <- c.c + by
let counter_value c = c.c

let counters t =
  Hashtbl.fold
    (fun name i acc ->
      match i with Counter c -> (name, c.c) :: acc | _ -> acc)
    t []
  |> List.sort compare
let set g v = g.g <- v
let gauge_value g = g.g

let bucket_of v =
  if v <= 0 then 0
  else
    (* 1 + floor(log2 v), capped. *)
    let rec go i v = if v = 0 then i else go (i + 1) (v lsr 1) in
    min (n_buckets - 1) (go 0 v)

let observe h v =
  let v = max 0 v in
  let i = bucket_of v in
  h.buckets.(i) <- h.buckets.(i) + 1;
  if h.h_count = 0 then begin
    h.h_min <- v;
    h.h_max <- v
  end
  else begin
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v
  end;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v

type hstats = {
  count : int;
  sum : int;
  min : int;
  max : int;
  p50 : int;
  p99 : int;
  p999 : int;
}

(* Quantile as the upper bound (2^i - 1, i.e. the largest value the
   bucket can hold) of the bucket where the cumulative count crosses
   the rank, clamped to the observed max. *)
let quantile buckets ~count ~max:vmax q =
  if count = 0 then 0
  else begin
    let rank = Stdlib.max 1 (int_of_float (ceil (q *. float_of_int count))) in
    let rec go i acc =
      if i >= Array.length buckets then vmax
      else
        let acc = acc + buckets.(i) in
        if acc >= rank then
          if i = 0 then 0 else Stdlib.min vmax ((1 lsl i) - 1)
        else go (i + 1) acc
    in
    go 0 0
  end

let histogram_stats h =
  let quantile = quantile h.buckets ~count:h.h_count ~max:h.h_max in
  {
    count = h.h_count;
    sum = h.h_sum;
    min = h.h_min;
    max = h.h_max;
    p50 = quantile 0.5;
    p99 = quantile 0.99;
    p999 = quantile 0.999;
  }

let histogram_buckets h =
  let acc = ref [] in
  for i = n_buckets - 1 downto 0 do
    if h.buckets.(i) > 0 then acc := (i, h.buckets.(i)) :: !acc
  done;
  !acc

let bucket_lower i = if i <= 0 then 0 else 1 lsl (i - 1)
let bucket_upper i = if i <= 0 then 0 else (1 lsl i) - 1

let is_empty t = Hashtbl.length t = 0

let reset t =
  Hashtbl.iter
    (fun _ i ->
      match i with
      | Counter c -> c.c <- 0
      | Gauge g -> g.g <- 0.0
      | Histogram h ->
          Array.fill h.buckets 0 n_buckets 0;
          h.h_count <- 0;
          h.h_sum <- 0;
          h.h_min <- 0;
          h.h_max <- 0)
    t

let merge dst src =
  Hashtbl.iter
    (fun name inst ->
      match inst with
      | Counter c -> incr ~by:c.c (counter dst name)
      | Gauge g -> set (gauge dst name) g.g
      | Histogram h ->
          let d = histogram dst name in
          if h.h_count > 0 then begin
            if d.h_count = 0 then begin
              d.h_min <- h.h_min;
              d.h_max <- h.h_max
            end
            else begin
              if h.h_min < d.h_min then d.h_min <- h.h_min;
              if h.h_max > d.h_max then d.h_max <- h.h_max
            end;
            d.h_count <- d.h_count + h.h_count;
            d.h_sum <- d.h_sum + h.h_sum;
            Array.iteri
              (fun i n -> d.buckets.(i) <- d.buckets.(i) + n)
              h.buckets
          end)
    src

let copy src =
  let dst = create () in
  Hashtbl.iter
    (fun name inst ->
      let inst' =
        match inst with
        | Counter c -> Counter { c = c.c }
        | Gauge g -> Gauge { g = g.g }
        | Histogram h ->
            Histogram
              {
                buckets = Array.copy h.buckets;
                h_count = h.h_count;
                h_sum = h.h_sum;
                h_min = h.h_min;
                h_max = h.h_max;
              }
      in
      Hashtbl.replace dst name inst')
    src;
  dst

(* Per-interval delta of two cumulative registries.  Counters and
   histogram buckets/count/sum subtract exactly; gauges take the
   current value (a gauge is already instantaneous).  A delta
   histogram's min/max cannot be recovered from cumulative extremes
   alone: they are exact when the interval moved the cumulative
   extreme, else approximated by the bounds of the interval's extreme
   non-empty buckets (clamped into the cumulative [min, max]). *)
let diff ~cur ~prev =
  let dst = create () in
  Hashtbl.iter
    (fun name inst ->
      match inst with
      | Counter c ->
          let p =
            match Hashtbl.find_opt prev name with
            | Some (Counter pc) -> pc.c
            | Some _ -> kind_error name
            | None -> 0
          in
          incr ~by:(c.c - p) (counter dst name)
      | Gauge g -> set (gauge dst name) g.g
      | Histogram h ->
          let d = histogram dst name in
          let pb, p_min, p_max, p_count, p_sum =
            match Hashtbl.find_opt prev name with
            | Some (Histogram p) ->
                (p.buckets, p.h_min, p.h_max, p.h_count, p.h_sum)
            | Some _ -> kind_error name
            | None -> (Array.make n_buckets 0, 0, 0, 0, 0)
          in
          let lo = ref (-1) and hi = ref (-1) in
          for i = 0 to n_buckets - 1 do
            let n = h.buckets.(i) - pb.(i) in
            d.buckets.(i) <- n;
            if n > 0 then begin
              if !lo < 0 then lo := i;
              hi := i
            end
          done;
          d.h_count <- h.h_count - p_count;
          d.h_sum <- h.h_sum - p_sum;
          if d.h_count > 0 then begin
            d.h_min <-
              (if p_count = 0 || h.h_min < p_min then h.h_min
               else Stdlib.max h.h_min (bucket_lower !lo));
            d.h_max <-
              (if p_count = 0 || h.h_max > p_max then h.h_max
               else Stdlib.min h.h_max (bucket_upper !hi))
          end)
    cur;
  dst

let sorted t =
  Hashtbl.fold (fun name i acc -> (name, i) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let pp fmt t =
  let items = sorted t in
  Format.fprintf fmt "@[<v>";
  List.iteri
    (fun i (name, inst) ->
      if i > 0 then Format.fprintf fmt "@,";
      match inst with
      | Counter c -> Format.fprintf fmt "%-32s %d" name c.c
      | Gauge g -> Format.fprintf fmt "%-32s %g" name g.g
      | Histogram h ->
          let s = histogram_stats h in
          Format.fprintf fmt
            "%-32s count %d  sum %d  min %d  p50 %d  p99 %d  p999 %d  max \
             %d"
            name s.count s.sum s.min s.p50 s.p99 s.p999 s.max)
    items;
  Format.fprintf fmt "@]"

(* Prometheus text exposition format.  Instrument names here use dots
   ("monitor.feed.edges"); Prometheus metric names allow only
   [a-zA-Z0-9_:], so everything else maps to '_'. *)
let prom_name name =
  let b = Bytes.of_string name in
  Bytes.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> ()
      | _ -> Bytes.set b i '_')
    b;
  let s = Bytes.to_string b in
  if s = "" then "_"
  else match s.[0] with '0' .. '9' -> "_" ^ s | _ -> s

let pp_prometheus fmt t =
  List.iter
    (fun (name, inst) ->
      let p = prom_name name in
      match inst with
      | Counter c ->
          Format.fprintf fmt "# TYPE %s counter@\n%s %d@\n" p p c.c
      | Gauge g -> Format.fprintf fmt "# TYPE %s gauge@\n%s %g@\n" p p g.g
      | Histogram h ->
          let s = histogram_stats h in
          Format.fprintf fmt "# TYPE %s summary@\n" p;
          Format.fprintf fmt "%s{quantile=\"0.5\"} %d@\n" p s.p50;
          Format.fprintf fmt "%s{quantile=\"0.99\"} %d@\n" p s.p99;
          Format.fprintf fmt "%s{quantile=\"0.999\"} %d@\n" p s.p999;
          Format.fprintf fmt "%s_sum %d@\n" p s.sum;
          Format.fprintf fmt "%s_count %d@\n" p s.count)
    (sorted t)

let to_json t =
  let counters = ref [] and gauges = ref [] and histograms = ref [] in
  List.iter
    (fun (name, inst) ->
      match inst with
      | Counter c -> counters := (name, Json.Int c.c) :: !counters
      | Gauge g -> gauges := (name, Json.Float g.g) :: !gauges
      | Histogram h ->
          let s = histogram_stats h in
          histograms :=
            ( name,
              Json.Obj
                [
                  ("count", Json.Int s.count);
                  ("sum", Json.Int s.sum);
                  ("min", Json.Int s.min);
                  ("max", Json.Int s.max);
                  ("p50", Json.Int s.p50);
                  ("p99", Json.Int s.p99);
                  ("p999", Json.Int s.p999);
                ] )
            :: !histograms)
    (sorted t);
  Json.Obj
    [
      ("counters", Json.Obj (List.rev !counters));
      ("gauges", Json.Obj (List.rev !gauges));
      ("histograms", Json.Obj (List.rev !histograms));
    ]
