module Driver = Tl_engine.Driver
module Pool = Tl_engine.Pool
module Trace = Tl_engine.Trace

let version = 1

(* ---------- bucket layout ----------

   One fixed log-spaced layout shared by every histogram: boundaries
   grow by 2^(1/4) per bucket from 1e-6 s, the last bucket is +Inf. 126
   finite boundaries reach ~3000 s — beyond any latency this repo can
   produce without the run failing on max_rounds first. *)

let n_buckets = 128

let les =
  Array.init n_buckets (fun i ->
      if i = n_buckets - 1 then infinity
      else 1e-6 *. Float.pow 2. (float_of_int i /. 4.))

let bucket_le i = les.(i)

(* Smallest i with x <= les.(i): total (NaN compares false everywhere
   and lands in bucket 0), monotone, and exact on the boundary table —
   a 7-step binary search, no floats boxed, no allocation. *)
let bucket_index x =
  if not (x > les.(0)) then 0
  else begin
    (* invariant: x > les.(lo), x <= les.(hi) *)
    let lo = ref 0 and hi = ref (n_buckets - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if x <= Array.unsafe_get les mid then hi := mid else lo := mid
    done;
    !hi
  end

(* ---------- metric cells ----------

   Every counter/histogram is an array of per-domain cells: slot =
   domain id mod [slots]. Two domains can share a slot (fetch_and_add
   keeps that correct); sharding only serves to keep the common case —
   few domains, distinct low ids — contention-free. *)

let slots = 8
let slot () = (Domain.self () :> int) land (slots - 1)

type counter = int Atomic.t array
type gauge = int Atomic.t

type histogram = {
  cells : int Atomic.t array;  (* slots * n_buckets bucket counts *)
  sums : int Atomic.t array;  (* per-slot sample sums, nanoseconds *)
}

let incr (c : counter) n =
  ignore (Atomic.fetch_and_add (Array.unsafe_get c (slot ())) n)

let counter_value (c : counter) =
  Array.fold_left (fun acc cell -> acc + Atomic.get cell) 0 c

let set_gauge (g : gauge) v = Atomic.set g v

let rec gauge_max (g : gauge) v =
  let cur = Atomic.get g in
  if v > cur && not (Atomic.compare_and_set g cur v) then gauge_max g v

let gauge_value (g : gauge) = Atomic.get g

let observe (h : histogram) x =
  let s = slot () in
  let i = bucket_index x in
  ignore
    (Atomic.fetch_and_add (Array.unsafe_get h.cells ((s * n_buckets) + i)) 1);
  let ns = if x > 0. then int_of_float (x *. 1e9) else 0 in
  ignore (Atomic.fetch_and_add (Array.unsafe_get h.sums s) ns)

(* ---------- registry ---------- *)

type metric = C of counter | G of gauge | H of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_mu = Mutex.create ()

let key name labels =
  match labels with
  | [] -> name
  | l ->
    name ^ "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) l)
    ^ "}"

let register name labels make cast =
  let k = key name labels in
  Mutex.lock registry_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry_mu)
    (fun () ->
      match Hashtbl.find_opt registry k with
      | Some m -> cast k m
      | None ->
        let m = make () in
        Hashtbl.add registry k m;
        cast k m)

let counter ?(labels = []) name =
  register name labels
    (fun () -> C (Array.init slots (fun _ -> Atomic.make 0)))
    (fun k m ->
      match m with C c -> c | _ -> invalid_arg ("Metrics: " ^ k ^ " is not a counter"))

let gauge ?(labels = []) name =
  register name labels
    (fun () -> G (Atomic.make 0))
    (fun k m ->
      match m with G g -> g | _ -> invalid_arg ("Metrics: " ^ k ^ " is not a gauge"))

let histogram ?(labels = []) name =
  register name labels
    (fun () ->
      H
        {
          cells = Array.init (slots * n_buckets) (fun _ -> Atomic.make 0);
          sums = Array.init slots (fun _ -> Atomic.make 0);
        })
    (fun k m ->
      match m with
      | H h -> h
      | _ -> invalid_arg ("Metrics: " ^ k ^ " is not a histogram"))

(* ---------- snapshots ---------- *)

type hsnap = { h_count : int; h_sum : float; h_buckets : (float * int) list }

type snapshot = {
  counters : (string * int) list;
  gauges : (string * int) list;
  histograms : (string * hsnap) list;
}

let histogram_snapshot (h : histogram) =
  (* merge the per-domain cells on the scraping domain; concurrent
     observes may straddle the reads — each sample is still counted in
     exactly one bucket of some later scrape *)
  let count = ref 0 in
  let buckets = ref [] in
  for i = n_buckets - 1 downto 0 do
    let per_bucket = ref 0 in
    for s = 0 to slots - 1 do
      per_bucket := !per_bucket + Atomic.get h.cells.((s * n_buckets) + i)
    done;
    count := !count + !per_bucket;
    if !per_bucket > 0 && i < n_buckets - 1 then
      (* cumulative count over buckets <= i is filled below *)
      buckets := (les.(i), !per_bucket) :: !buckets
  done;
  let _, cumulative =
    List.fold_left_map (fun acc (le, d) -> (acc + d, (le, acc + d))) 0 !buckets
  in
  let sum_ns = Array.fold_left (fun acc s -> acc + Atomic.get s) 0 h.sums in
  { h_count = !count; h_sum = float_of_int sum_ns *. 1e-9;
    h_buckets = cumulative }

(* The downward scan above accumulates +Inf-bucket deltas into h_count
   but records per-bucket deltas; fold_left_map turns the ascending
   delta list into cumulative counts. *)

let snapshot () =
  Mutex.lock registry_mu;
  let entries =
    Fun.protect
      ~finally:(fun () -> Mutex.unlock registry_mu)
      (fun () -> Hashtbl.fold (fun k m acc -> (k, m) :: acc) registry [])
  in
  let entries = List.sort (fun (a, _) (b, _) -> compare a b) entries in
  let counters = ref [] and gauges = ref [] and histograms = ref [] in
  List.iter
    (fun (k, m) ->
      match m with
      | C c -> counters := (k, counter_value c) :: !counters
      | G g -> gauges := (k, gauge_value g) :: !gauges
      | H h -> histograms := (k, histogram_snapshot h) :: !histograms)
    entries;
  {
    counters = List.rev !counters;
    gauges = List.rev !gauges;
    histograms = List.rev !histograms;
  }

(* Pointwise sum of two scrapes: deltas are merged by boundary (both
   sides carry boundaries from the one shared layout, so float equality
   is exact), then re-accumulated. *)
let merge_hsnap a b =
  let deltas l =
    let _, ds =
      List.fold_left_map (fun prev (le, cum) -> (cum, (le, cum - prev))) 0 l
    in
    ds
  in
  let rec merge xs ys =
    match (xs, ys) with
    | [], l | l, [] -> l
    | (lx, dx) :: tx, (ly, dy) :: ty ->
      if lx = ly then (lx, dx + dy) :: merge tx ty
      else if lx < ly then (lx, dx) :: merge tx ys
      else (ly, dy) :: merge xs ty
  in
  let merged = merge (deltas a.h_buckets) (deltas b.h_buckets) in
  let _, cumulative =
    List.fold_left_map (fun acc (le, d) -> (acc + d, (le, acc + d))) 0 merged
  in
  {
    h_count = a.h_count + b.h_count;
    h_sum = a.h_sum +. b.h_sum;
    h_buckets = cumulative;
  }

let quantile h q =
  if h.h_count = 0 then 0.
  else begin
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int h.h_count))) in
    let rec find = function
      | [] -> infinity (* rank falls in the +Inf bucket *)
      | (le, cum) :: rest -> if cum >= rank then le else find rest
    in
    find h.h_buckets
  end

(* ---------- JSON round-trip (tl_metrics = 1) ---------- *)

let hsnap_to_json h =
  Json.Obj
    [
      ("count", Json.Num (float_of_int h.h_count));
      ("sum", Json.Num h.h_sum);
      ( "buckets",
        Json.Arr
          (List.map
             (fun (le, cum) ->
               Json.Arr [ Json.Num le; Json.Num (float_of_int cum) ])
             h.h_buckets) );
    ]

let snapshot_to_json s =
  let ints kvs =
    Json.Obj (List.map (fun (k, v) -> (k, Json.Num (float_of_int v))) kvs)
  in
  Json.Obj
    [
      ("tl_metrics", Json.Num (float_of_int version));
      ("counters", ints s.counters);
      ("gauges", ints s.gauges);
      ( "histograms",
        Json.Obj (List.map (fun (k, h) -> (k, hsnap_to_json h)) s.histograms)
      );
    ]

let hsnap_of_json j =
  match
    ( Option.bind (Json.member "count" j) Json.to_int,
      Option.bind (Json.member "sum" j) Json.to_float,
      Option.bind (Json.member "buckets" j) Json.to_list )
  with
  | Some h_count, Some h_sum, Some buckets ->
    let bucket = function
      | Json.Arr [ le; cum ] -> (
        match (Json.to_float le, Json.to_int cum) with
        | Some le, Some cum -> Some (le, cum)
        | _ -> None)
      | _ -> None
    in
    let decoded = List.filter_map bucket buckets in
    if List.length decoded <> List.length buckets then None
    else Some { h_count; h_sum; h_buckets = decoded }
  | _ -> None

let snapshot_of_json j =
  match Option.bind (Json.member "tl_metrics" j) Json.to_int with
  | None -> Error "not a tl_metrics snapshot (missing tl_metrics field)"
  | Some v when v <> version ->
    Error (Printf.sprintf "unsupported tl_metrics version %d" v)
  | Some _ -> (
    let ints field =
      Option.bind (Json.member field j) Json.to_assoc
      |> Option.map
           (List.filter_map (fun (k, v) ->
                Option.map (fun i -> (k, i)) (Json.to_int v)))
    in
    let hists =
      Option.bind (Json.member "histograms" j) Json.to_assoc
      |> Option.map
           (List.filter_map (fun (k, v) ->
                Option.map (fun h -> (k, h)) (hsnap_of_json v)))
    in
    match (ints "counters", ints "gauges", hists) with
    | Some counters, Some gauges, Some histograms ->
      Ok { counters; gauges; histograms }
    | _ -> Error "malformed tl_metrics snapshot")

(* ---------- Prometheus text exposition ---------- *)

(* Registry keys are already [name] or [name{k="v",...}]; split them
   back apart so histogram series can splice in the [le] label. *)
let split_key k =
  match String.index_opt k '{' with
  | None -> (k, "")
  | Some i ->
    (String.sub k 0 i, String.sub k (i + 1) (String.length k - i - 2))

let prom_num x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%g" x

let to_prometheus s =
  let buf = Buffer.create 1024 in
  let typed = Hashtbl.create 16 in
  let type_line name kind =
    if not (Hashtbl.mem typed name) then begin
      Hashtbl.add typed name ();
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
    end
  in
  let sample name labels value =
    let series = if labels = "" then name else name ^ "{" ^ labels ^ "}" in
    Buffer.add_string buf (Printf.sprintf "%s %s\n" series value)
  in
  let with_le labels le =
    let le_label = Printf.sprintf "le=\"%s\"" le in
    if labels = "" then le_label else labels ^ "," ^ le_label
  in
  List.iter
    (fun (k, v) ->
      let name, labels = split_key k in
      type_line name "counter";
      sample name labels (string_of_int v))
    s.counters;
  List.iter
    (fun (k, v) ->
      let name, labels = split_key k in
      type_line name "gauge";
      sample name labels (string_of_int v))
    s.gauges;
  List.iter
    (fun (k, h) ->
      let name, labels = split_key k in
      type_line name "histogram";
      List.iter
        (fun (le, cum) ->
          sample (name ^ "_bucket") (with_le labels (prom_num le))
            (string_of_int cum))
        h.h_buckets;
      sample (name ^ "_bucket") (with_le labels "+Inf")
        (string_of_int h.h_count);
      sample (name ^ "_sum") labels (Printf.sprintf "%g" h.h_sum);
      sample (name ^ "_count") labels (string_of_int h.h_count))
    s.histograms;
  Buffer.contents buf

(* ---------- flight recorder ---------- *)

module Recorder = struct
  type event = {
    ts : float;
    kind : string;
    key : string;
    detail : string;
    outcome : string;
    latency_s : float;
  }

  let capacity = 512
  let ring : event option array = Array.make capacity None
  let next = ref 0 (* total events ever recorded *)
  let mu = Mutex.create ()

  let record ev =
    Mutex.lock mu;
    ring.(!next mod capacity) <- Some ev;
    next := !next + 1;
    Mutex.unlock mu

  let clear () =
    Mutex.lock mu;
    Array.fill ring 0 capacity None;
    next := 0;
    Mutex.unlock mu

  let tail ?(limit = capacity) () =
    Mutex.lock mu;
    let total = !next in
    let retained = min total capacity in
    let take = min (max 0 limit) retained in
    let events =
      List.init take (fun i ->
          Option.get (ring.((total - take + i) mod capacity)))
    in
    Mutex.unlock mu;
    events

  let event_to_json ev =
    Json.Obj
      [
        ("ts", Json.Num ev.ts);
        ("kind", Json.Str ev.kind);
        ("key", Json.Str ev.key);
        ("detail", Json.Str ev.detail);
        ("outcome", Json.Str ev.outcome);
        ("latency_s", Json.Num ev.latency_s);
      ]

  let event_of_json j =
    match
      ( Option.bind (Json.member "ts" j) Json.to_float,
        Option.bind (Json.member "kind" j) Json.to_str,
        Option.bind (Json.member "key" j) Json.to_str,
        Option.bind (Json.member "outcome" j) Json.to_str )
    with
    | Some ts, Some kind, Some key, Some outcome ->
      Some
        {
          ts;
          kind;
          key;
          detail =
            Option.value ~default:""
              (Option.bind (Json.member "detail" j) Json.to_str);
          outcome;
          latency_s =
            Option.value ~default:0.
              (Option.bind (Json.member "latency_s" j) Json.to_float);
        }
    | _ -> None

  let dump ?(limit = 8) oc =
    let events = tail ~limit () in
    List.iter
      (fun ev ->
        Printf.fprintf oc "tl_metrics tail: %.6f %-8s %-7s %.6fs %s %s\n"
          ev.ts ev.kind ev.outcome ev.latency_s ev.key ev.detail)
      events
end

(* ---------- reset ---------- *)

let reset () =
  Mutex.lock registry_mu;
  Hashtbl.iter
    (fun _ m ->
      match m with
      | C c -> Array.iter (fun cell -> Atomic.set cell 0) c
      | G g -> Atomic.set g 0
      | H h ->
        Array.iter (fun cell -> Atomic.set cell 0) h.cells;
        Array.iter (fun s -> Atomic.set s 0) h.sums)
    registry;
  Mutex.unlock registry_mu;
  Recorder.clear ()

(* ---------- enabling and the engine bridge ---------- *)

let on = Atomic.make false
let enabled () = Atomic.get on

(* Engine-side metrics, fed per run from the finished trace: no per-step
   instrumentation in the engine at all, so the metrics-on hot path is
   the metrics-off hot path plus one sink call per run. *)
let engine_subscription = ref None

let install_engine_hooks () =
  let runs = counter "engine_runs_total" in
  let rounds = counter "engine_rounds_total" in
  let steps = counter "engine_steps_total" in
  let active_peak = gauge "engine_active_peak" in
  let run_seconds = histogram "engine_run_seconds" in
  engine_subscription :=
    Some
      (Driver.subscribe (fun tr ->
           let m = Trace.metrics tr in
           incr runs 1;
           incr rounds m.Trace.rounds;
           incr steps m.Trace.steps;
           gauge_max active_peak m.Trace.max_active;
           observe run_seconds m.Trace.total_s));
  let maps = counter "pool_maps_total" in
  let tasks = counter "pool_tasks_total" in
  let width = gauge "pool_workers" in
  Pool.tap :=
    Some
      (fun ~tasks:n ~workers ->
        incr maps 1;
        incr tasks n;
        gauge_max width workers);
  (* Domain spawns are a liveness signal for the persistent team: under a
     long-running server this counter should plateau at the team width
     after warmup — a climbing value means per-job domain churn. *)
  let spawned = counter "pool_spawns_total" in
  Tl_engine.Team.tap := Some (fun ~spawned:n -> incr spawned n)

let enable () =
  if not (Atomic.get on) then begin
    install_engine_hooks ();
    Atomic.set on true
  end

let disable () =
  Option.iter Driver.unsubscribe !engine_subscription;
  engine_subscription := None;
  Pool.tap := None;
  Tl_engine.Team.tap := None;
  Atomic.set on false
