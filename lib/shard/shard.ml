module Engine = Tl_engine.Engine
module Topology = Tl_engine.Topology
module Frontier = Tl_engine.Frontier
module Driver = Tl_engine.Driver
module Pool = Tl_engine.Pool
module Span = Tl_obs.Span
module Metrics = Tl_obs.Metrics

let now = Unix.gettimeofday

(* The exchange histogram (lazy so an unused backend never registers).
   Observed on the coordinating domain, guarded by [Metrics.enabled] — a
   disabled registry costs one Atomic.get per round here. *)
let m_exchange_s = lazy (Metrics.histogram "shard_exchange_seconds")

(* Per-shard mutable run state. Everything the hot loop touches is local
   to the shard and indexed by local ids, so a shard's working set is
   O(n_owned + halo) — cache-resident where the monolithic stepper's
   global arrays are not. The out_* arrays are the flat preallocated
   halo buffer: (target shard, target ghost slot, source local) triples
   appended during commit and drained during the exchange. Capacity is
   the shard's total route count — each owned node appends its routes at
   most once per round. *)
type 'state sctx = {
  sh : Plan.shard;
  st : 'state array;  (* n_local: owned states, then ghost copies *)
  nx : 'state array;  (* n_owned scratch, written by the compute phase *)
  fr : Frontier.t;  (* active owned locals *)
  out_dst : int array;
  out_slot : int array;
  out_src : int array;
  mutable n_out : int;
  mutable halo_words : int;  (* total exchanged (slot, state) messages *)
  mutable exchange_rounds : int;  (* rounds in which this shard sent *)
}

let make_ctx sh states =
  let n_owned = sh.Plan.n_owned and n_local = sh.Plan.n_local in
  let st = Array.init n_local (fun l -> states.(sh.Plan.l2g.(l))) in
  let routes = sh.Plan.xoff.(n_owned) in
  {
    sh;
    st;
    nx = Array.sub st 0 n_owned;
    fr =
      Frontier.create
        ~active:(Array.init n_owned (fun l -> l))
        ~universe:n_owned ~dense:n_owned;
    out_dst = Array.make (max 1 routes) 0;
    out_slot = Array.make (max 1 routes) 0;
    out_src = Array.make (max 1 routes) 0;
    n_out = 0;
    halo_words = 0;
    exchange_rounds = 0;
  }

(* Local step over the shard's active set. Neighbor triples carry global
   node/edge ids in the same ascending incident order as the monolithic
   stepper (the plan preserves CSR row order), so [step] cannot tell the
   backends apart. Bounds are established by the plan invariants, hence
   the unsafe accesses in this loop only. *)
let compute_shard c step round =
  let sh = c.sh in
  let st = c.st and nx = c.nx and active = c.fr.Frontier.active in
  let off = sh.Plan.off
  and adj = sh.Plan.adj
  and eid = sh.Plan.eid
  and l2g = sh.Plan.l2g in
  for i = 0 to c.fr.Frontier.n_active - 1 do
    let l = Array.unsafe_get active i in
    let acc = ref [] in
    let lo = Array.unsafe_get off l in
    let j = ref (Array.unsafe_get off (l + 1) - 1) in
    while !j >= lo do
      let u = Array.unsafe_get adj !j in
      acc :=
        ( Array.unsafe_get l2g u,
          Array.unsafe_get eid !j,
          Array.unsafe_get st u )
        :: !acc;
      decr j
    done;
    Array.unsafe_set nx l
      (step ~round ~node:(Array.unsafe_get l2g l) (Array.unsafe_get st l)
         ~neighbors:!acc)
  done

(* Commit phase for one shard: publish changed states, dirty the owned
   part of the frontier, and append exchange routes for changed boundary
   nodes. Runs on the coordinating domain in ascending shard order. *)
let commit c ~equal ~sched ~on_change =
  let changed = ref 0 in
  let sh = c.sh in
  let st = c.st and nx = c.nx and active = c.fr.Frontier.active in
  let off = sh.Plan.off and adj = sh.Plan.adj in
  let xoff = sh.Plan.xoff
  and xshard = sh.Plan.xshard
  and xslot = sh.Plan.xslot in
  let l2g = sh.Plan.l2g and n_owned = sh.Plan.n_owned in
  for i = 0 to c.fr.Frontier.n_active - 1 do
    let l = Array.unsafe_get active i in
    let s' = Array.unsafe_get nx l in
    if not (equal s' (Array.unsafe_get st l)) then begin
      incr changed;
      Array.unsafe_set st l s';
      on_change (Array.unsafe_get l2g l) s';
      (match sched with
      | Engine.Full_scan -> ()
      | Engine.Active_set ->
        Frontier.mark c.fr l;
        for j = Array.unsafe_get off l to Array.unsafe_get off (l + 1) - 1 do
          let u = Array.unsafe_get adj j in
          if u < n_owned then Frontier.mark c.fr u
        done);
      for x = Array.unsafe_get xoff l to Array.unsafe_get xoff (l + 1) - 1 do
        let k = c.n_out in
        Array.unsafe_set c.out_dst k (Array.unsafe_get xshard x);
        Array.unsafe_set c.out_slot k (Array.unsafe_get xslot x);
        Array.unsafe_set c.out_src k l;
        c.n_out <- k + 1
      done
    end
  done;
  !changed

(* Fault-injection link hook, owned by Tl_fault.Injector (above this
   library in the DAG). Consulted per halo message only while armed —
   [drop ~round ~src ~dst] returning [true] suppresses the delivery of
   one (src shard -> dst shard) boundary update that round: the target's
   ghost slot keeps its stale value and its next active set is not grown.
   Because exchange routes fire only on change, a dropped message is
   {e lost} (the owner re-sends only on its next change) — exactly the
   failure the repair layer exists to heal. Disarmed ([None], default)
   the exchange runs the original unchecked loop. *)
let fault_drop_hook : (round:int -> src:int -> dst:int -> bool) option ref =
  ref None

(* Batched boundary exchange, ascending shard order: drain each shard's
   out buffer into the target shards' ghost slots, growing their next
   sets through the halo rows. Ghost slots are only written here —
   between the barrier and the next compute phase — so the compute phase
   always reads a consistent frontier. *)
let deliver ctxs c ~sched b =
  let ct = Array.unsafe_get ctxs (Array.unsafe_get c.out_dst b) in
  let slot = Array.unsafe_get c.out_slot b in
  Array.unsafe_set ct.st slot
    (Array.unsafe_get c.st (Array.unsafe_get c.out_src b));
  match sched with
  | Engine.Full_scan -> ()
  | Engine.Active_set ->
    let tsh = ct.sh in
    let h = slot - tsh.Plan.n_owned in
    for j = tsh.Plan.halo_off.(h) to tsh.Plan.halo_off.(h + 1) - 1 do
      Frontier.mark ct.fr (Array.unsafe_get tsh.Plan.halo_adj j)
    done

let exchange ctxs ~sched ~round =
  match !fault_drop_hook with
  | None ->
    for s = 0 to Array.length ctxs - 1 do
      let c = ctxs.(s) in
      let n = c.n_out in
      if n > 0 then begin
        c.halo_words <- c.halo_words + n;
        c.exchange_rounds <- c.exchange_rounds + 1;
        for b = 0 to n - 1 do
          deliver ctxs c ~sched b
        done;
        c.n_out <- 0
      end
    done
  | Some drop ->
    for s = 0 to Array.length ctxs - 1 do
      let c = ctxs.(s) in
      let n = c.n_out in
      if n > 0 then begin
        c.exchange_rounds <- c.exchange_rounds + 1;
        let delivered = ref 0 in
        for b = 0 to n - 1 do
          if not (drop ~round ~src:s ~dst:(Array.unsafe_get c.out_dst b))
          then begin
            incr delivered;
            deliver ctxs c ~sched b
          end
        done;
        (* halo_words counts messages actually delivered *)
        c.halo_words <- c.halo_words + !delivered;
        c.n_out <- 0
      end
    done

let total_active ctxs =
  Array.fold_left (fun acc c -> acc + c.fr.Frontier.n_active) 0 ctxs

(* One full round: local step (optionally fanned over the pool),
   sequential commit, batched exchange, barrier, active-set advance.
   [exch_acc] accumulates the run's exchange wall-time for the flight
   recorder; the per-round time also feeds the exchange histogram. *)
let exec_round ctxs ~pool ~p_eff ~step ~round ~sched ~equal ~on_change
    ~exch_acc =
  if p_eff > 1 then
    ignore
      (Pool.map pool ~tasks:ctxs ~f:(fun ~worker:_ ~index:_ c ->
           compute_shard c step round))
  else
    Array.iter
      (fun c -> if c.fr.Frontier.n_active > 0 then compute_shard c step round)
      ctxs;
  let changed = ref 0 in
  Array.iter
    (fun c -> changed := !changed + commit c ~equal ~sched ~on_change)
    ctxs;
  (if Metrics.enabled () then begin
     let tx = now () in
     exchange ctxs ~sched ~round;
     let dt = now () -. tx in
     exch_acc := !exch_acc +. dt;
     Metrics.observe (Lazy.force m_exchange_s) dt
   end
   else exchange ctxs ~sched ~round);
  (match sched with
  | Engine.Full_scan -> ()
  | Engine.Active_set -> Array.iter (fun c -> Frontier.advance c.fr) ctxs);
  !changed

let writeback ctxs states =
  Array.iter
    (fun c ->
      let l2g = c.sh.Plan.l2g in
      for l = 0 to c.sh.Plan.n_owned - 1 do
        states.(l2g.(l)) <- c.st.(l)
      done)
    ctxs

(* Called on the coordinating domain after the round loop, also on
   failure, mirroring trace delivery. *)
let emit_partition ~prefix ?shape ~plan ~plan_hit ~reported ~halo_words
    ~exchange_rounds ~latency_s () =
  let shards = plan.Plan.shards in
  let count = Array.length shards in
  let name k = prefix ^ ":" ^ k in
  let halo = ref 0 in
  Array.iteri (fun i _ -> halo := !halo + halo_words i) shards;
  if Span.active () then begin
    let np = plan.Plan.topo.Topology.n_present in
    Span.add_counter (name (prefix ^ "s")) count;
    Option.iter (Span.add_counter (name "shape")) shape;
    Span.add_counter (name "cut_edges") (Plan.cut_edges_total plan);
    Span.add_counter (name "imbalance") (Plan.imbalance_permille plan);
    Span.add_counter (name (if plan_hit then "plan_hit" else "plan_miss")) 1;
    Span.add_counter (name "halo_words") !halo;
    Array.iteri
      (fun i sh ->
        if reported i then
          Span.with_span (name (string_of_int i)) (fun () ->
              Span.add_counter (name "owned") sh.Plan.n_owned;
              Span.add_counter (name "halo")
                (sh.Plan.n_local - sh.Plan.n_owned);
              Span.add_counter (name "cut_edges") sh.Plan.cut_edges;
              Span.add_counter (name "halo_words") (halo_words i);
              Span.add_counter (name "imbalance")
                (if np = 0 then 1000 else sh.Plan.n_owned * count * 1000 / np);
              Span.add_counter (name "exchange_rounds") (exchange_rounds i)))
      shards
  end;
  if Metrics.enabled () then begin
    Metrics.incr (Metrics.counter (prefix ^ "_halo_words_total")) !halo;
    Metrics.incr (Metrics.counter (prefix ^ "_runs_total")) 1;
    Metrics.Recorder.record
      {
        Metrics.Recorder.ts = now ();
        kind = "exchange";
        key = Printf.sprintf "%ss:%d" prefix count;
        detail =
          Printf.sprintf "halo_words=%d cut_edges=%d" !halo
            (Plan.cut_edges_total plan);
        outcome = "ok";
        latency_s;
      }
  end

let prepare ~shards ~topo ~init =
  let plan, plan_hit = Plan.build_cached ~topo ~shards in
  let states = Array.init topo.Topology.n_base (fun v -> init v) in
  let ctxs = Array.map (fun sh -> make_ctx sh states) plan.Plan.shards in
  let pool = Pool.create () in
  let p_eff = min (Pool.workers pool) (Array.length ctxs) in
  (* the per-round shard maps ride the persistent domain team; park the
     members now so round 1 does not pay the one-time spawn *)
  if p_eff > 1 then Pool.prewarm pool;
  (plan, plan_hit, states, ctxs, pool, p_eff)

(* ---------- the backend entry point ----------

   One round is local step + commit + exchange + advance; termination,
   the fault gate, trace records and failures come from the driver. *)

let sb_run ~count:shards ~sched ~equal ~halted ~trace:tr ~topo ~init ~step
    term =
  let plan, plan_hit, states, ctxs, pool, p_eff =
    prepare ~shards ~topo ~init
  in
  let st = Driver.stats ~active:(total_active ctxs) ~unhalted:0 in
  let on_change =
    match halted with
    | None -> fun _ _ -> ()
    | Some halted ->
      let halted_f = Array.make topo.Topology.n_base true in
      Array.iter
        (fun v ->
          let h = halted states.(v) in
          halted_f.(v) <- h;
          if not h then st.unhalted <- st.unhalted + 1)
        topo.Topology.present_nodes;
      fun v s ->
        let h = halted s in
        if h <> halted_f.(v) then begin
          halted_f.(v) <- h;
          st.unhalted <- (st.unhalted + if h then -1 else 1)
        end
  in
  let exch_acc = ref 0. in
  Fun.protect
    ~finally:(fun () ->
      emit_partition ~prefix:"shard" ~plan ~plan_hit
        ~reported:(fun _ -> true)
        ~halo_words:(fun s -> ctxs.(s).halo_words)
        ~exchange_rounds:(fun s -> ctxs.(s).exchange_rounds)
        ~latency_s:!exch_acc ())
    (fun () ->
      let rounds =
        Driver.loop tr term st (fun round st ->
            st.changed <-
              exec_round ctxs ~pool ~p_eff ~step ~round ~sched ~equal
                ~on_change ~exch_acc;
            st.active <- total_active ctxs)
      in
      writeback ctxs states;
      { Engine.states; rounds })

let () = Engine.shard_backend := Some { Engine.run = sb_run }

let register () = ()
