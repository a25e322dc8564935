(* Chaos smoke: seeded fault schedules driven end-to-end through
   Tl_fault.Chaos — crash-stop, crash-recover (churn), link-drop and a
   proc-backend worker kill — asserting on every scenario that

   - the surviving graph's final labeling passes the full validity
     checker, and
   - the run is deterministic: an identical replay produces the same
     applied-event log, repair counts and labeling digest (and for the
     cross-mode scenarios, the same digest across engine backends).

   Exercised by `make chaos-smoke` and CI.

   Run with:  dune exec examples/chaos_smoke.exe

   IMPORTANT ordering: the proc scenario runs first — OCaml 5 forbids
   fork once a domain has ever been spawned, and the shard/par
   scenarios below spawn the domain team. *)

module Gen = Tl_graph.Gen
module Ids = Tl_local.Ids
module Engine = Tl_engine.Engine
module Schedule = Tl_fault.Schedule
module Chaos = Tl_fault.Chaos

let pass name ok =
  Printf.printf "%-52s %s\n%!" name (if ok then "ok" else "FAIL");
  if not ok then exit 1

let sched spec =
  match Schedule.of_spec spec with
  | Ok s -> s
  | Error e -> failwith (Printf.sprintf "bad spec %S: %s" spec e)

let chaos ~mode ~graph ~problem spec =
  Engine.with_knobs ~mode @@ fun () ->
  Chaos.run ~graph ~problem ~schedule:(sched spec) ()

(* determinism = identical applied log, repair counts and digest *)
let same (a : Chaos.report) (b : Chaos.report) =
  a.log = b.log && a.crashes = b.crashes && a.recoveries = b.recoveries
  && a.drops = b.drops && a.kills = b.kills && a.repairs = b.repairs
  && a.relabeled = b.relabeled && a.survivors = b.survivors
  && a.digest = b.digest

let () =
  let n = 20_000 in
  let tree = Gen.random_tree ~n ~seed:42 in
  let ids = Ids.permuted ~n ~seed:7 in
  let flood = Chaos.Flood { source = 0 } in
  let mis = Chaos.Mis { ids } in
  Printf.printf "instance: random tree, n = %d\n%!" n;

  (* -- proc first: worker kill, epoch retry, digest equal to seq -- *)
  let kill_spec = "seed=7;kill@2:1;crash@5:9;crash@7:23" in
  let p = chaos ~mode:(Engine.Proc 3) ~graph:tree ~problem:flood kill_spec in
  let p2 = chaos ~mode:(Engine.Proc 3) ~graph:tree ~problem:flood kill_spec in
  let s = chaos ~mode:Engine.Seq ~graph:tree ~problem:flood kill_spec in
  pass "proc kill: valid" (p.valid && s.valid);
  pass "proc kill: worker killed, epoch retried"
    (p.kills = 1 && p.retries >= 1);
  pass "proc kill: replay deterministic" (same p p2);
  pass "proc kill: digest matches seq" (p.digest = s.digest);

  (* -- crash-stop: seeded random crashes, seq vs shard:4; the rounds
     sit past convergence (the chaos clock fast-forwards), so the
     crashes orphan reached subtrees and force actual repairs -- *)
  let crash_spec = "seed=11;crash_random@10000:50;crash_random@10005:50" in
  let a = chaos ~mode:Engine.Seq ~graph:tree ~problem:flood crash_spec in
  let a2 = chaos ~mode:Engine.Seq ~graph:tree ~problem:flood crash_spec in
  let a_sh = chaos ~mode:(Engine.Shard 4) ~graph:tree ~problem:flood crash_spec in
  pass "crash-stop: valid on surviving graph" (a.valid && a_sh.valid);
  pass "crash-stop: 100 crashes applied, repairs ran"
    (a.crashes = 100 && a.repairs >= 1);
  pass "crash-stop: replay deterministic" (same a a2);
  pass "crash-stop: digest matches across seq/shard:4" (same a a_sh);

  (* -- crash-recover churn on MIS: nodes leave and rejoin -- *)
  let churn_spec = "seed=13;churn@3-40:rate=0.0005,kind=crash-recover,ttl=6" in
  let c = chaos ~mode:Engine.Seq ~graph:tree ~problem:mis churn_spec in
  let c2 = chaos ~mode:Engine.Seq ~graph:tree ~problem:mis churn_spec in
  pass "crash-recover: valid MIS on surviving graph" c.valid;
  pass "crash-recover: churn crashed and recovered nodes"
    (c.crashes >= 1 && c.recoveries >= 1);
  pass "crash-recover: replay deterministic" (same c c2);

  (* -- link drops: suppressed halo traffic, healed at the end -- *)
  let drop_spec = "seed=17;drop@3:0-1,1-2;drop@5:0-3" in
  let d = chaos ~mode:(Engine.Shard 4) ~graph:tree ~problem:flood drop_spec in
  let d2 = chaos ~mode:(Engine.Shard 4) ~graph:tree ~problem:flood drop_spec in
  let d_clean = chaos ~mode:(Engine.Shard 4) ~graph:tree ~problem:flood "seed=17" in
  pass "link-drop: valid after final heal" d.valid;
  pass "link-drop: halo traffic suppressed" (d.drops >= 1);
  pass "link-drop: replay deterministic" (same d d2);
  pass "link-drop: digest matches undropped run" (d.digest = d_clean.digest);

  Printf.printf "chaos smoke: all scenarios PASS\n"
