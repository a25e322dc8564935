module Semi_graph = Tl_graph.Semi_graph

type mode = Naive | Seq | Par of int | Shard of int | Proc of int
type scheduling = Active_set | Full_scan

let mode_to_string = function
  | Naive -> "naive"
  | Seq -> "seq"
  | Par p -> "par:" ^ string_of_int p
  | Shard s -> "shard:" ^ string_of_int s
  | Proc p -> "proc:" ^ string_of_int p

let is_digits s = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s

let count_suffix s prefix =
  let k = String.length prefix in
  if String.length s >= k && String.sub s 0 k = prefix then begin
    let rest = String.sub s k (String.length s - k) in
    if not (is_digits rest) then
      invalid_arg
        (Printf.sprintf
           "Engine.mode_of_string: %S — expected %s<count> where <count> is a \
            decimal integer"
           s prefix)
    else
      match int_of_string_opt rest with
      | Some p when p >= 1 -> Some p
      | Some _ ->
        invalid_arg
          (Printf.sprintf "Engine.mode_of_string: %S — count must be >= 1" s)
      | None ->
        invalid_arg
          (Printf.sprintf "Engine.mode_of_string: %S — count out of range" s)
  end
  else None

let mode_of_string ?(count = 0) s =
  if String.trim s <> s then
    invalid_arg
      (Printf.sprintf
         "Engine.mode_of_string: %S has surrounding whitespace (expected e.g. \
          \"seq\" or \"par:4\")"
         s);
  match s with
  | "naive" -> Naive
  | "seq" -> Seq
  | "shard" when count >= 1 -> Shard count
  | "proc" when count >= 1 -> Proc count
  | _ -> (
    match count_suffix s "par:" with
    | Some p -> Par p
    | None -> (
      match count_suffix s "shard:" with
      | Some c -> Shard c
      | None -> (
        match count_suffix s "proc:" with
        | Some c -> Proc c
        | None ->
          invalid_arg
            (Printf.sprintf
               "Engine.mode_of_string: %S — expected naive | seq | par:<n> | \
                shard[:<n>] | proc[:<n>]"
               s))))

let sched_to_string = function
  | Active_set -> "active-set"
  | Full_scan -> "full-scan"

let default_mode = ref Seq

let with_knobs ?mode ?workers f =
  let saved_mode = !default_mode and saved_workers = !Pool.default_workers in
  Option.iter (fun m -> default_mode := m) mode;
  Option.iter (fun w -> Pool.default_workers := w) workers;
  Fun.protect
    ~finally:(fun () ->
      default_mode := saved_mode;
      Pool.default_workers := saved_workers)
    f

(* The fault gate lives in the driver; these are its engine-facing names. *)
let fault_gate = Driver.fault_gate
let gate_open = Driver.gate_open

type 'state outcome = { states : 'state array; rounds : int }

type 'state step_fn =
  round:int ->
  node:int ->
  'state ->
  neighbors:(int * int * 'state) list ->
  'state

(* The Shard and Proc modes live in tl_shard / tl_proc (which depend on
   this library) and register themselves here at load time. *)
type backend = {
  run :
    'state.
    count:int ->
    sched:scheduling ->
    equal:('state -> 'state -> bool) ->
    halted:('state -> bool) option ->
    trace:Trace.t option ->
    topo:Topology.t ->
    init:(int -> 'state) ->
    step:'state step_fn ->
    Driver.termination ->
    'state outcome;
}

let shard_backend : backend option ref = ref None
let proc_backend : backend option ref = ref None

let get_backend name r =
  match !r with
  | Some b -> b
  | None ->
    failwith
      (Printf.sprintf
         "Engine: %s mode requested but the tl_%s backend is not linked" name
         name)

let now = Unix.gettimeofday

(* Trace recording for the naive reference only; every other stepper
   records through the driver. *)
let record tr ~round ~active ~changed ~unhalted ~t0 =
  Option.iter
    (fun t ->
      Trace.record t
        { Trace.round; active; changed; unhalted; wall_s = now () -. t0 })
    tr

(* ---------- the naive reference stepper (legacy port) ---------- *)

(* Exact port of the pre-engine Tl_local.Runtime internals: full scan of
   every present node per round, neighbor gathering through
   Semi_graph.rank2_neighbors, and Array.copy + Array.blit state movement.
   Kept verbatim as the differential-testing reference and the benchmark
   baseline — do not "optimize". *)

let gather_neighbors sg states v =
  List.map
    (fun (u, e) -> (u, e, states.(u)))
    (Semi_graph.rank2_neighbors sg v)

let naive_run ~tr ~topo ~init ~step ~halted ~max_rounds =
  let sg = topo.Topology.sg in
  let n = topo.Topology.n_base in
  let present = topo.Topology.present in
  let states = Array.init n (fun v -> init v) in
  let all_halted () =
    let ok = ref true in
    for v = 0 to n - 1 do
      if present.(v) && not (halted states.(v)) then ok := false
    done;
    !ok
  in
  let rounds = ref 0 in
  let interrupted = ref false in
  while (not !interrupted) && (not (all_halted ())) && !rounds < max_rounds do
    let t0 = now () in
    incr rounds;
    let next = Array.copy states in
    for v = 0 to n - 1 do
      if present.(v) then
        next.(v) <-
          step ~round:!rounds ~node:v states.(v)
            ~neighbors:(gather_neighbors sg states v)
    done;
    Array.blit next 0 states 0 n;
    record tr ~round:!rounds ~active:topo.Topology.n_present ~changed:(-1)
      ~unhalted:(-1) ~t0;
    if not (gate_open ~round:!rounds) then interrupted := true
  done;
  if (not !interrupted) && not (all_halted ()) then
    failwith (Printf.sprintf "Engine.run: max_rounds=%d exceeded" max_rounds);
  { states; rounds = !rounds }

let naive_run_until_stable ~tr ~topo ~init ~step ~equal ~max_rounds =
  let sg = topo.Topology.sg in
  let n = topo.Topology.n_base in
  let present = topo.Topology.present in
  let states = Array.init n (fun v -> init v) in
  let rounds = ref 0 in
  let stable = ref false in
  let interrupted = ref false in
  while (not !interrupted) && (not !stable) && !rounds < max_rounds do
    let t0 = now () in
    let next = Array.copy states in
    let changed = ref 0 in
    for v = 0 to n - 1 do
      if present.(v) then begin
        let s =
          step ~round:(!rounds + 1) ~node:v states.(v)
            ~neighbors:(gather_neighbors sg states v)
        in
        if not (equal s states.(v)) then incr changed;
        next.(v) <- s
      end
    done;
    record tr ~round:(!rounds + 1) ~active:topo.Topology.n_present
      ~changed:!changed ~unhalted:(-1) ~t0;
    if !changed > 0 then begin
      incr rounds;
      Array.blit next 0 states 0 n;
      if not (gate_open ~round:!rounds) then interrupted := true
    end
    else stable := true
  done;
  if (not !interrupted) && not !stable then
    failwith
      (Printf.sprintf "Engine.run_until_stable: max_rounds=%d exceeded"
         max_rounds);
  { states; rounds = !rounds }

let naive_run_rounds ~tr ~topo ~init ~step ~rounds:total =
  let sg = topo.Topology.sg in
  let n = topo.Topology.n_base in
  let present = topo.Topology.present in
  let states = Array.init n (fun v -> init v) in
  let executed = ref 0 in
  let r = ref 1 in
  let interrupted = ref false in
  while (not !interrupted) && !r <= total do
    let t0 = now () in
    let next = Array.copy states in
    for v = 0 to n - 1 do
      if present.(v) then
        next.(v) <-
          step ~round:!r ~node:v states.(v)
            ~neighbors:(gather_neighbors sg states v)
    done;
    Array.blit next 0 states 0 n;
    record tr ~round:!r ~active:topo.Topology.n_present ~changed:(-1)
      ~unhalted:(-1) ~t0;
    executed := !r;
    if not (gate_open ~round:!r) then interrupted := true;
    incr r
  done;
  { states; rounds = (if !interrupted then !executed else total) }
(* ---------- the engine stepper (Seq / Par) ---------- *)

type 'state core = {
  topo : Topology.t;
  cur : 'state array;  (* published states; committed in place *)
  scratch : 'state array;  (* round buffer: next state per active node *)
  fr : Frontier.t;  (* the active set (all present nodes under Full_scan) *)
  equal : 'state -> 'state -> bool;
  sched : scheduling;
}

let make_core ~topo ~sched ~equal ~init =
  let n = Topology.n_base topo in
  let cur = Array.init n (fun v -> init v) in
  let np = Topology.n_present topo in
  {
    topo;
    cur;
    scratch = Array.copy cur;
    fr =
      Frontier.create
        ~active:(Array.sub topo.Topology.present_nodes 0 np)
        ~universe:n ~dense:np;
    equal;
    sched;
  }

let compute_range core step round lo hi =
  let cur = core.cur in
  let active = core.fr.Frontier.active and scratch = core.scratch in
  let off = core.topo.Topology.off
  and adj = core.topo.Topology.adj
  and eid = core.topo.Topology.eid in
  for i = lo to hi - 1 do
    let v = active.(i) in
    (* Neighbor triples in ascending incident order — identical contents
       and order to the legacy gather, built from the CSR rows. Iterative
       reverse build: hub nodes would overflow the stack under naive
       recursion. *)
    let acc = ref [] in
    for j = off.(v + 1) - 1 downto off.(v) do
      let u = adj.(j) in
      acc := (u, eid.(j), cur.(u)) :: !acc
    done;
    scratch.(v) <- step ~round ~node:v cur.(v) ~neighbors:!acc
  done

(* Below this many active nodes *per chunk* a round computes inline even
   in Par mode (i.e. the team is woken only when count > grain * p):
   waking the team costs a barrier handshake plus scheduler latency,
   which dwarfs the step work unless every worker gets a sizable chunk
   (active-set runs spend most rounds on small frontiers). Chunking is
   unaffected — inline vs. team never changes which state a node
   computes, only which domain computes it — so the
   bit-identical-to-Seq guarantee is preserved for every grain value.
   Exposed for tests, which pin it to 0 to force the team on. *)
let par_grain = ref 2048

(* Compute phase. In Par mode the active array is cut into [p] fixed
   contiguous chunks, one worker each: every active node is written by
   exactly one domain, all reads go to [cur] which no one writes during
   the phase, and the team barrier orders the writes before the commit
   below — so the result is bit-identical to Seq for any [p]. Workers
   are parked team members (spawned once per process), not per-round
   Domain.spawn. *)
let compute core step round par =
  let count = core.fr.Frontier.n_active in
  let p = max 1 (min par (min count Team.max_workers)) in
  if p = 1 || count <= !par_grain * p then compute_range core step round 0 count
  else begin
    let chunk = (count + p - 1) / p in
    Team.run ~workers:p (fun w ->
        let lo = w * chunk and hi = min count ((w + 1) * chunk) in
        if lo < hi then compute_range core step round lo hi)
  end

(* Commit phase (always sequential, O(active + changed * deg)): publish
   changed states into [cur], invoke [on_change], and under Active_set
   mark {changed} ∪ N({changed}) as the next active set. Unchanged nodes
   keep their state without any copying — this is the buffer swap
   replacing the legacy copy + blit. *)
let commit core ~on_change =
  let changed = ref 0 in
  let cur = core.cur and scratch = core.scratch and equal = core.equal in
  let fr = core.fr in
  let active = fr.Frontier.active in
  let off = core.topo.Topology.off and adj = core.topo.Topology.adj in
  for i = 0 to fr.Frontier.n_active - 1 do
    let v = active.(i) in
    let s' = scratch.(v) in
    if not (equal s' cur.(v)) then begin
      incr changed;
      cur.(v) <- s';
      on_change v;
      match core.sched with
      | Full_scan -> ()
      | Active_set ->
        Frontier.mark fr v;
        for j = off.(v) to off.(v + 1) - 1 do
          Frontier.mark fr adj.(j)
        done
    end
  done;
  (match core.sched with
  | Full_scan -> ()
  | Active_set -> Frontier.advance fr);
  !changed

(* The Seq/Par backend for the driver: one round is compute + commit;
   [halted] (present under [Until_halted] only) is tracked incrementally
   from the commit's change callback. *)
let core_run ~par ~sched ~equal ~halted ~tr ~topo ~init ~step term =
  let core = make_core ~topo ~sched ~equal ~init in
  let st = Driver.stats ~active:core.fr.Frontier.n_active ~unhalted:0 in
  let on_change =
    match halted with
    | None -> ignore
    | Some halted ->
      let halted_f = Array.make (Topology.n_base topo) true in
      Array.iter
        (fun v ->
          let h = halted core.cur.(v) in
          halted_f.(v) <- h;
          if not h then st.unhalted <- st.unhalted + 1)
        topo.Topology.present_nodes;
      fun v ->
        let h = halted core.cur.(v) in
        if h <> halted_f.(v) then begin
          halted_f.(v) <- h;
          st.unhalted <- (st.unhalted + if h then -1 else 1)
        end
  in
  let rounds =
    Driver.loop tr term st (fun r st ->
        compute core step r par;
        st.changed <- commit core ~on_change;
        st.active <- core.fr.Frontier.n_active)
  in
  { states = core.cur; rounds }

(* ---------- public API ---------- *)

let dispatch ?mode ~sched ~equal ?trace ~label ~compile_s ~compile_cached
    ~topo ~init ~step ~halted term =
  let mode = match mode with Some m -> m | None -> !default_mode in
  Driver.traced ?trace ~label ~mode:(mode_to_string mode)
    ~scheduling:(sched_to_string sched) ~compile_s ~compile_cached topo
    (fun tr ->
      match (mode, term) with
      | Naive, Driver.Until_halted max_rounds ->
        naive_run ~tr ~topo ~init ~step ~halted:(Option.get halted)
          ~max_rounds
      | Naive, Driver.Until_stable max_rounds ->
        naive_run_until_stable ~tr ~topo ~init ~step ~equal ~max_rounds
      | Naive, Driver.Fixed rounds ->
        naive_run_rounds ~tr ~topo ~init ~step ~rounds
      | Shard count, _ ->
        (get_backend "shard" shard_backend).run ~count ~sched ~equal ~halted
          ~trace:tr ~topo ~init ~step term
      | Proc count, _ ->
        (get_backend "proc" proc_backend).run ~count ~sched ~equal ~halted
          ~trace:tr ~topo ~init ~step term
      | Seq, _ ->
        core_run ~par:1 ~sched ~equal ~halted ~tr ~topo ~init ~step term
      | Par p, _ ->
        core_run ~par:(max 1 p) ~sched ~equal ~halted ~tr ~topo ~init ~step
          term)

let run ?mode ?(sched = Active_set) ?(equal = Stdlib.( = )) ?trace
    ?(label = "engine.run") ?(compile_s = 0.) ?(compile_cached = false) ~topo
    ~init ~step ~halted ~max_rounds () =
  dispatch ?mode ~sched ~equal ?trace ~label ~compile_s ~compile_cached ~topo
    ~init ~step ~halted:(Some halted) (Driver.Until_halted max_rounds)

let run_until_stable ?mode ?(sched = Active_set) ?trace
    ?(label = "engine.run_until_stable") ?(compile_s = 0.)
    ?(compile_cached = false) ~topo ~init ~step ~equal ~max_rounds () =
  dispatch ?mode ~sched ~equal ?trace ~label ~compile_s ~compile_cached ~topo
    ~init ~step ~halted:None (Driver.Until_stable max_rounds)

let run_rounds ?mode ?(sched = Active_set) ?(equal = Stdlib.( = )) ?trace
    ?(label = "engine.run_rounds") ?(compile_s = 0.) ?(compile_cached = false)
    ~topo ~init ~step ~rounds () =
  dispatch ?mode ~sched ~equal ?trace ~label ~compile_s ~compile_cached ~topo
    ~init ~step ~halted:None (Driver.Fixed rounds)
