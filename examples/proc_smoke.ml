(* Process-backend smoke: digest equality against the sequential
   reference, plus worker-cleanup checks. Exercised by `make proc-smoke`
   and CI.

   Run with:  dune exec examples/proc_smoke.exe

   IMPORTANT ordering: every proc-mode run happens before any par/shard
   run in this program — OCaml 5 forbids fork once a domain has ever
   been spawned, and the coordinator refuses (Proc_failure) rather than
   crash. *)

module Gen = Tl_graph.Gen
module Graph = Tl_graph.Graph
module Ids = Tl_local.Ids
module Labeling = Tl_problems.Labeling
module Round_cost = Tl_local.Round_cost
module Engine = Tl_engine.Engine
module Topology = Tl_engine.Topology
module Theorem1 = Tl_core.Theorem1
module Proc = Tl_proc.Coordinator

let mis_spec =
  {
    Theorem1.problem = Tl_problems.Mis.problem;
    base_algorithm = Tl_symmetry.Algos.mis;
    solve_edge_list = Tl_problems.Mis.solve_edge_list;
  }

let pass name ok =
  Printf.printf "%-46s %s\n%!" name (if ok then "ok" else "FAIL");
  if not ok then exit 1

let () =
  let n = 20_000 in
  let tree = Gen.random_tree ~n ~seed:42 in
  let ids = Ids.permuted ~n ~seed:7 in
  let sg = Tl_graph.Semi_graph.of_graph tree in
  let topo = Topology.compile sg in
  Printf.printf "instance: random tree, n = %d\n%!" n;

  (* 1. flood fixpoint, proc:{1,2,4} — all runs before any domain work *)
  let flood mode =
    let o =
      Engine.run_until_stable ~mode ~topo
        ~init:(fun v -> v = 0)
        ~step:(fun ~round:_ ~node:_ s ~neighbors ->
          s || List.exists (fun (_, _, su) -> su) neighbors)
        ~equal:Bool.equal ~max_rounds:(n + 1) ()
    in
    (o.Engine.states, o.Engine.rounds)
  in
  let p1 = flood (Engine.Proc 1) in
  let p2 = flood (Engine.Proc 2) in
  let p4 = flood (Engine.Proc 4) in

  (* 2. Theorem 12 MIS through the full pipeline under proc:4 *)
  let mis mode =
    Engine.with_knobs ~mode (fun () ->
        Theorem1.run ~spec:mis_spec ~tree ~ids
          ~f:Tl_core.Complexity.f_linear ())
  in
  let proc_mis = mis (Engine.Proc 4) in

  (* 3. crash containment: a step function that throws on a mid-run
     round must surface as Failure with no worker left behind *)
  let crash_ok =
    match
      Engine.run_rounds ~mode:(Engine.Proc 4) ~topo
        ~init:(fun v -> v)
        ~step:(fun ~round ~node s ~neighbors:_ ->
          if round = 2 && node = n / 2 then failwith "boom";
          s + 1)
        ~rounds:4 ()
    with
    | _ -> false
    | exception Failure msg -> msg = "boom"
  in
  pass "worker exception surfaces as Failure" crash_ok;
  let reaped =
    match Unix.waitpid [ Unix.WNOHANG ] (-1) with
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
    | 0, _ -> false (* a live child is still out there *)
    | _ -> false (* an unreaped zombie was left behind *)
  in
  pass "no zombie workers after a crashed run" reaped;

  (* 4. now the in-process references (these may spawn domains) *)
  let s1 = flood Engine.Seq in
  pass "flood digest proc:1 = seq" (p1 = s1);
  pass "flood digest proc:2 = seq" (p2 = s1);
  pass "flood digest proc:4 = seq" (p4 = s1);

  let seq_mis = mis Engine.Seq in
  let labels r =
    List.init (Graph.n_half_edges tree) (Labeling.get r.Theorem1.labeling)
  in
  pass "Theorem 12 MIS labeling proc:4 = seq"
    (labels proc_mis = labels seq_mis);
  pass "Theorem 12 MIS ledger proc:4 = seq"
    (Round_cost.phases proc_mis.Theorem1.cost
    = Round_cost.phases seq_mis.Theorem1.cost);

  (* 5. the fork-after-domain guard refuses cleanly (domains may or may
     not have spawned above depending on core count — only assert when
     they did) *)
  if Tl_engine.Team.spawns () > 0 then begin
    let refused =
      match flood (Engine.Proc 2) with
      | _ -> false
      | exception Tl_proc.Wire.Proc_failure _ -> true
    in
    pass "fork-after-domain guard refuses cleanly" refused
  end;
  print_endline "proc smoke: all checks passed"
