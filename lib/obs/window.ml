(* Ring-buffered sliding-window instruments.  One array cell (or one
   64-bucket histogram row) per slot; the hot path touches only the
   head slot, and [tick] rotates the ring by zeroing the slot it is
   about to reuse — no allocation after registration. *)

let n_buckets = 64  (* Metrics.bucket_of's range *)

type t = {
  slots : int;
  mutable head : int;
  mutable rotations : int;
  instruments : (string, winstr) Hashtbl.t;
}

and wcounter = { win : t; cells : int array }

and whistogram = {
  hwin : t;
  rows : int array;  (* slots x n_buckets, flattened *)
  counts : int array;
  sums : int array;
  mins : int array;  (* valid only where counts > 0 *)
  maxs : int array;
}

and winstr = Wcounter of wcounter | Whistogram of whistogram

let create ?(slots = 8) () =
  if slots < 1 then invalid_arg "Window.create: slots must be >= 1";
  { slots; head = 0; rotations = 0; instruments = Hashtbl.create 16 }

let slots t = t.slots
let rotations t = t.rotations

let kind_error name =
  invalid_arg ("Window: " ^ name ^ " already registered as another kind")

let get_or_make t name make =
  match Hashtbl.find_opt t.instruments name with
  | Some i -> i
  | None ->
      let i = make () in
      Hashtbl.replace t.instruments name i;
      i

let counter t name =
  match
    get_or_make t name (fun () ->
        Wcounter { win = t; cells = Array.make t.slots 0 })
  with
  | Wcounter c -> c
  | Whistogram _ -> kind_error name

let histogram t name =
  match
    get_or_make t name (fun () ->
        Whistogram
          {
            hwin = t;
            rows = Array.make (t.slots * n_buckets) 0;
            counts = Array.make t.slots 0;
            sums = Array.make t.slots 0;
            mins = Array.make t.slots 0;
            maxs = Array.make t.slots 0;
          })
  with
  | Whistogram h -> h
  | Wcounter _ -> kind_error name

let incr ?(by = 1) c = c.cells.(c.win.head) <- c.cells.(c.win.head) + by

let observe h v =
  let v = max 0 v in
  let s = h.hwin.head in
  let i = Metrics.bucket_of v in
  h.rows.((s * n_buckets) + i) <- h.rows.((s * n_buckets) + i) + 1;
  if h.counts.(s) = 0 then begin
    h.mins.(s) <- v;
    h.maxs.(s) <- v
  end
  else begin
    if v < h.mins.(s) then h.mins.(s) <- v;
    if v > h.maxs.(s) then h.maxs.(s) <- v
  end;
  h.counts.(s) <- h.counts.(s) + 1;
  h.sums.(s) <- h.sums.(s) + v

let tick t =
  t.rotations <- t.rotations + 1;
  t.head <- (t.head + 1) mod t.slots;
  let s = t.head in
  Hashtbl.iter
    (fun _ inst ->
      match inst with
      | Wcounter c -> c.cells.(s) <- 0
      | Whistogram h ->
          Array.fill h.rows (s * n_buckets) n_buckets 0;
          h.counts.(s) <- 0;
          h.sums.(s) <- 0;
          h.mins.(s) <- 0;
          h.maxs.(s) <- 0)
    t.instruments

let filled t = min (t.rotations + 1) t.slots

let counter_current c = c.cells.(c.win.head)
let counter_total c = Array.fold_left ( + ) 0 c.cells

type view = {
  count : int;
  sum : int;
  min : int;
  max : int;
  p50 : int;
  p99 : int;
  p999 : int;
  buckets : (int * int) list;
}

let empty_view =
  { count = 0; sum = 0; min = 0; max = 0; p50 = 0; p99 = 0; p999 = 0;
    buckets = [] }

let view_of_slots h slot_list =
  let merged = Array.make n_buckets 0 in
  let count = ref 0 and sum = ref 0 in
  let vmin = ref max_int and vmax = ref 0 in
  List.iter
    (fun s ->
      if h.counts.(s) > 0 then begin
        for i = 0 to n_buckets - 1 do
          merged.(i) <- merged.(i) + h.rows.((s * n_buckets) + i)
        done;
        count := !count + h.counts.(s);
        sum := !sum + h.sums.(s);
        if h.mins.(s) < !vmin then vmin := h.mins.(s);
        if h.maxs.(s) > !vmax then vmax := h.maxs.(s)
      end)
    slot_list;
  if !count = 0 then empty_view
  else begin
    let buckets = ref [] in
    for i = n_buckets - 1 downto 0 do
      if merged.(i) > 0 then buckets := (i, merged.(i)) :: !buckets
    done;
    {
      count = !count;
      sum = !sum;
      min = !vmin;
      max = !vmax;
      p50 = Metrics.quantile merged ~count:!count ~max:!vmax 0.5;
      p99 = Metrics.quantile merged ~count:!count ~max:!vmax 0.99;
      p999 = Metrics.quantile merged ~count:!count ~max:!vmax 0.999;
      buckets = !buckets;
    }
  end

let histogram_current h = view_of_slots h [ h.hwin.head ]

(* Valid slots are 0..rotations while the ring is filling (head has
   only ever advanced that far), then all of them. *)
let histogram_view h = view_of_slots h (List.init (filled h.hwin) Fun.id)
