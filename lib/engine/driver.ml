type termination = Until_halted of int | Until_stable of int | Fixed of int

type stats = {
  mutable active : int;
  mutable changed : int;
  mutable unhalted : int;
}

let stats ~active ~unhalted = { active; changed = 0; unhalted }
let now = Unix.gettimeofday

(* ---------- fault gate ---------- *)

(* Owned by Tl_fault.Injector (above this library in the DAG). Consulted
   once per committed round; [false] interrupts the run at that round
   boundary. Disarmed runs pay one ref read per round and nothing per
   node. *)
let fault_gate : (round:int -> bool) option ref = ref None

let gate_open ~round =
  match !fault_gate with None -> true | Some g -> g ~round

(* ---------- the termination loop ---------- *)

let exceeded entry max_rounds =
  failwith (Printf.sprintf "%s: max_rounds=%d exceeded" entry max_rounds)

(* Allocation discipline: the per-round path allocates nothing unless a
   trace is attached — [exec] is built once per run, loop counters are
   unescaped refs (registers), and the clock is read only for a trace. *)
let loop tr term st round =
  let halting = match term with Until_halted _ -> true | _ -> false in
  let exec r =
    let active = st.active in
    let t0 = match tr with None -> 0. | Some _ -> now () in
    round r st;
    match tr with
    | None -> ()
    | Some t ->
      Trace.record t
        {
          Trace.round = r;
          active;
          changed = st.changed;
          unhalted = (if halting then st.unhalted else -1);
          wall_s = now () -. t0;
        }
  in
  match term with
  | Until_halted max_rounds ->
    let rounds = ref 0 and interrupted = ref false in
    while st.unhalted > 0 && !rounds < max_rounds && not !interrupted do
      (* An empty active set means no node can ever change again
         (stationarity), so none can ever halt: fail now instead of
         spinning to max_rounds. *)
      if st.active = 0 then exceeded "Engine.run" max_rounds;
      incr rounds;
      exec !rounds;
      interrupted := not (gate_open ~round:!rounds)
    done;
    if (not !interrupted) && st.unhalted > 0 then
      exceeded "Engine.run" max_rounds;
    !rounds
  | Until_stable max_rounds ->
    let rounds = ref 0 and stable = ref false and interrupted = ref false in
    while (not !interrupted) && (not !stable) && !rounds < max_rounds do
      if st.active = 0 then stable := true
      else begin
        exec (!rounds + 1);
        if st.changed > 0 then begin
          incr rounds;
          interrupted := not (gate_open ~round:!rounds)
        end
        else stable := true
      end
    done;
    if not (!interrupted || !stable) then
      exceeded "Engine.run_until_stable" max_rounds;
    !rounds
  | Fixed total ->
    (* once the active set is empty every remaining round is a no-op
       that still counts *)
    let r = ref 0 and interrupted = ref false in
    while (not !interrupted) && !r < total && st.active > 0 do
      incr r;
      exec !r;
      interrupted := not (gate_open ~round:!r)
    done;
    if !interrupted then !r else total

(* ---------- trace lifecycle ---------- *)

type subscription = int

let subscribers : (subscription * (Trace.t -> unit)) list ref = ref []
let next_id = ref 0

let subscribe f =
  incr next_id;
  subscribers := !subscribers @ [ (!next_id, f) ];
  !next_id

let unsubscribe id =
  subscribers := List.filter (fun (i, _) -> i <> id) !subscribers

let traced ?trace ~label ~mode ~scheduling ?layout ?compile_s ?compile_cached
    topo f =
  let tr =
    match (trace, !subscribers) with
    | Some _, _ -> trace
    | None, [] -> None
    | None, _ -> Some (Trace.create ~label ())
  in
  match tr with
  | None -> f None
  | Some t ->
    Trace.set_meta t ~mode ~scheduling ~n_base:(Topology.n_base topo)
      ~n_present:(Topology.n_present topo);
    Option.iter (Trace.set_layout t) layout;
    Option.iter (Trace.set_compile_s t) compile_s;
    Option.iter (Trace.set_compile_cached t) compile_cached;
    let t0 = now () in
    (* finished and delivered even when [f] raises, so a diverging run
       still shows where it spent its rounds *)
    Fun.protect
      ~finally:(fun () ->
        Trace.finish t ~total_s:(now () -. t0);
        List.iter (fun (_, deliver) -> deliver t) !subscribers)
      (fun () -> f tr)
