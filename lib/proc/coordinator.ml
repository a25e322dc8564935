(* The coordinator side of the process backend.

   Forks one worker process per shard, ships each its Plan sub-CSR once
   via the prologue frame, then drives rounds from the stats totals the
   collective tree delivers: decision down (step / stop), local step +
   halo exchange in the workers, stats allreduce up. One such round is
   the [round] function the engine's round driver runs, so termination,
   the fault gate, trace records and failure messages are the driver's —
   bit-identical to every other backend for any (procs, shards).

   Worker lifecycle is owned here: a Fun.protect finally reaps every
   child on every exit path — orderly completion, max_rounds failure,
   worker crash, coordinator exception — so no run leaves zombies, and
   an abnormal worker exit surfaces as Proc_failure with the wait
   status. *)

module Engine = Tl_engine.Engine
module Flat = Tl_engine.Flat
module Topology = Tl_engine.Topology
module Driver = Tl_engine.Driver
module Team = Tl_engine.Team
module Plan = Tl_shard.Plan

let now = Unix.gettimeofday

(* ---------- cluster plumbing ---------- *)

type ops = {
  plan : Plan.t;
  st : Driver.stats;  (* the cluster's initial totals *)
  step : int -> Driver.stats -> unit;
      (* one round: broadcast "step r", await the reduced totals *)
  stop : ship:bool -> bytes option array;
      (* per-rank owned-state images (ascending) when [ship] *)
}

let wait_status_string = function
  | Unix.WEXITED c -> Printf.sprintf "exited with status %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "killed by signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | _, st -> st
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

(* A worker raised: [Failure] from the user's step function is re-raised
   as [Failure] (parity with the in-process backends); everything else —
   wire violations, worker bugs — becomes [Proc_failure]. *)
exception Worker_failure of string

let select_read ?(timeout = -1.) fds =
  match Unix.select fds [] [] timeout with
  | r, _, _ -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

(* Per-wait receive timeout (the keepalive half of contact tracking): a
   hung worker — stuck step function, deadlocked exchange — surfaces as
   a clear [Proc_failure "timeout ..."] instead of blocking the
   coordinator forever. Configured by TL_PROC_TIMEOUT_MS (milliseconds,
   > 0); unset, non-numeric or non-positive values keep the legacy
   block-forever behavior. The deadline is re-derived per frame wait and
   enforced across select wakeups, so EINTR's empty ready set (which
   [select_read] returns) never counts as a timeout by itself. *)
let timeout_s () =
  match Sys.getenv_opt "TL_PROC_TIMEOUT_MS" with
  | None -> None
  | Some s -> (
    match float_of_string_opt s with
    | Some ms when ms > 0. && Float.is_finite ms -> Some (ms /. 1000.)
    | _ -> None)

(* Fault-injection worker-kill hook, owned by Tl_fault.Injector.
   Consulted at the top of every [step ~round] while armed: the listed
   ranks are SIGKILLed before the round's decision is broadcast, so the
   round can never complete and the crash surfaces through the normal
   worker-death path ([Proc_failure "... killed by signal 9 ..."]).
   Disarmed ([None], the default) a step pays one ref match. *)
let fault_kill_hook : (round:int -> int list) option ref = ref None

(* Fork the workers. Every socketpair is created before the first fork,
   so each child inherits the full set and closes what is not its own:
   the coordinator ends, the other workers' direct ends, and both ends
   of every peer pair it is not a member of. *)
let spawn_workers ~size ~direct ~pairs ~body =
  flush stdout;
  flush stderr;
  let pids = Array.make size (-1) in
  for rank = 0 to size - 1 do
    match Unix.fork () with
    | 0 ->
      (try
         Array.iteri
           (fun i (c, w) ->
             Unix.close c;
             if i <> rank then Unix.close w)
           direct;
         let chans = ref [] in
         List.iter
           (fun ((a, b), (fa, fb)) ->
             if rank = a then begin
               Unix.close fb;
               chans := (b, fa) :: !chans
             end
             else if rank = b then begin
               Unix.close fa;
               chans := (a, fb) :: !chans
             end
             else begin
               Unix.close fa;
               Unix.close fb
             end)
           pairs;
         Worker.serve ~rank
           ~coord:(snd direct.(rank))
           ~chans:(Array.of_list !chans) ~body
       with _ -> Unix._exit 125)
    | pid -> pids.(rank) <- pid
  done;
  Array.iter (fun (_, w) -> Unix.close w) direct;
  List.iter
    (fun (_, (fa, fb)) ->
      Unix.close fa;
      Unix.close fb)
    pairs;
  pids

let with_cluster ~procs ~topo ~term ~sched ~slots ~body ~drive =
  if Team.spawns () > 0 then
    Wire.fail
      "proc backend cannot fork: this process already spawned domains \
       (OCaml 5 forbids fork after domain creation); run proc-mode work \
       before any par/shard runs";
  let shape = Collective.shape_of_env () in
  let plan, plan_hit = Plan.build_cached ~topo ~shards:(max 1 procs) in
  let shards = plan.Plan.shards in
  let size = Array.length shards in
  (* halo adjacency between shards, from the exchange route tables *)
  let mat = Array.make_matrix size size false in
  Array.iteri
    (fun a sh ->
      Array.iter (fun b -> if b <> a then mat.(a).(b) <- true) sh.Plan.xshard)
    shards;
  let ranks_where pred =
    let acc = ref [] in
    for r = size - 1 downto 0 do
      if pred r then acc := r :: !acc
    done;
    Array.of_list !acc
  in
  let out_peers = Array.init size (fun a -> ranks_where (fun b -> mat.(a).(b))) in
  let in_peers = Array.init size (fun b -> ranks_where (fun a -> mat.(a).(b))) in
  (* one socketpair per unordered worker pair that needs any channel:
     halo traffic in either direction, or a collective-tree edge *)
  let need = Array.make_matrix size size false in
  for a = 0 to size - 1 do
    for b = 0 to size - 1 do
      if mat.(a).(b) then begin
        need.(min a b).(max a b) <- true
      end
    done
  done;
  for r = 1 to size - 1 do
    let p = Collective.parent shape r in
    need.(min p r).(max p r) <- true
  done;
  let direct =
    Array.init size (fun _ -> Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0)
  in
  let pairs = ref [] in
  for a = size - 1 downto 0 do
    for b = size - 1 downto a + 1 do
      if need.(a).(b) then
        pairs :=
          ((a, b), Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0) :: !pairs
    done
  done;
  let pids = spawn_workers ~size ~direct ~pairs:!pairs ~body in
  let cfd = Array.map fst direct in
  let bufs = Array.init size (fun _ -> Transport.Buf.create 4096) in
  let reaped = Array.make size false in
  let dead = Array.make size false in
  let closed = ref false in
  let epi_halo = Array.make size 0 in
  let epi_exch = Array.make size 0 in
  let have_epi = Array.make size false in
  let t_start = now () in
  let cleanup () =
    if not !closed then begin
      closed := true;
      Array.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) cfd
    end;
    Array.iteri
      (fun rank pid ->
        if not reaped.(rank) then begin
          (try Unix.kill pid Sys.sigkill
           with Unix.Unix_error _ -> ());
          ignore (waitpid_retry pid);
          reaped.(rank) <- true
        end)
      pids
  in
  let worker_died rank =
    let st = waitpid_retry pids.(rank) in
    reaped.(rank) <- true;
    Wire.Proc_failure
      (Printf.sprintf "tlp: worker %d (pid %d) %s before completing the run"
         rank pids.(rank) (wait_status_string st))
  in
  let secondary src msg =
    let msg =
      if String.length msg >= 5 && String.sub msg 0 5 = "tlp: " then
        String.sub msg 5 (String.length msg - 5)
      else msg
    in
    Wire.Proc_failure (Printf.sprintf "tlp: worker %d failed: %s" src msg)
  in
  let rank_of_fd fd =
    let r = ref (-1) in
    Array.iteri (fun i f -> if f == fd then r := i) cfd;
    !r
  in
  let fds_where pred =
    List.filter_map
      (fun r -> if pred r then Some cfd.(r) else None)
      (List.init size Fun.id)
  in
  (* Once one worker dies, its exchange peers die with it (connection
     reset / EOF mid-exchange), and the secondary error frames race the
     primary one to the coordinator. Before reporting a casualty, drain
     the remaining channels briefly: if any worker shipped a real
     [Failure] (the user's exception), parity demands that it wins over
     the connection resets it caused. *)
  let postmortem first =
    let deadline = Unix.gettimeofday () +. 2.0 in
    let finished = ref false in
    while not !finished do
      match fds_where (fun r -> not dead.(r)) with
      | [] -> finished := true
      | fds ->
        let timeout = deadline -. Unix.gettimeofday () in
        if timeout <= 0. then finished := true
        else
          List.iter
            (fun fd ->
              let rank = rank_of_fd fd in
              match Transport.recv_typed cfd.(rank) bufs.(rank) with
              | Wire.Error_frame e when e.failure ->
                raise (Worker_failure e.message)
              | Wire.Error_frame _ -> dead.(rank) <- true
              | _ -> () (* late traffic of a doomed run *)
              | exception End_of_file ->
                dead.(rank) <- true;
                ignore (worker_died rank)
              | exception Wire.Proc_failure _ -> dead.(rank) <- true)
            (select_read ~timeout fds)
    done;
    raise first
  in
  let read_frame rank =
    match Transport.recv_typed cfd.(rank) bufs.(rank) with
    | Wire.Error_frame e when e.failure -> raise (Worker_failure e.message)
    | Wire.Error_frame e ->
      dead.(rank) <- true;
      postmortem (secondary e.src e.message)
    | f -> f
    | exception End_of_file ->
      dead.(rank) <- true;
      postmortem (worker_died rank)
  in
  (* Wait for one frame that [accept] takes, watching every channel in
     [fds] (default: all) so a crash anywhere (error frame or EOF)
     surfaces instead of hanging the run. *)
  let recv_timeout = timeout_s () in
  let await ?(fds = Array.to_list cfd) ~what accept =
    let deadline = Option.map (fun t -> now () +. t) recv_timeout in
    let got = ref false in
    while not !got do
      let tmo =
        match deadline with
        | None -> -1.
        | Some d ->
          let left = d -. now () in
          if left <= 0. then
            Wire.fail
              "timeout after %.0f ms awaiting %s (TL_PROC_TIMEOUT_MS)"
              (Option.get recv_timeout *. 1000.)
              what
          else left
      in
      List.iter
        (fun fd ->
          if not !got then begin
            let rank = rank_of_fd fd in
            if accept rank (read_frame rank) then got := true
            else
              Wire.fail "unexpected frame from worker %d while awaiting %s"
                rank what
          end)
        (select_read ~timeout:tmo fds)
    done
  in
  let await_stats ~round (st : Driver.stats) =
    await ~what:(Printf.sprintf "stats (round %d)" round) (fun rank f ->
        match f with
        | Wire.Stats s when rank = 0 && s.round = round ->
          st.active <- s.active;
          st.changed <- s.changed;
          st.unhalted <- s.unhalted;
          true
        | _ -> false)
  in
  let send_decision ~action ~round =
    let img = Wire.encode (Wire.Decision { action; round }) in
    Transport.send_frame cfd.(0) img (Bytes.length img)
  in
  let step round st =
    (match !fault_kill_hook with
    | None -> ()
    | Some kills ->
      List.iter
        (fun rank ->
          if rank >= 0 && rank < size && not reaped.(rank) then
            try Unix.kill pids.(rank) Sys.sigkill
            with Unix.Unix_error _ -> ())
        (kills ~round));
    send_decision ~action:Wire.a_step ~round;
    await_stats ~round st
  in
  let stop ~ship =
    send_decision
      ~action:(if ship then Wire.a_stop_result else Wire.a_stop)
      ~round:0;
    let states = Array.make size None in
    for _ = 1 to size do
      await
        ~fds:(fds_where (fun r -> not have_epi.(r)))
        ~what:"epilogue"
        (fun rank f ->
          match f with
          | Wire.Epilogue e when e.src = rank ->
            have_epi.(rank) <- true;
            epi_halo.(rank) <- e.halo_words;
            epi_exch.(rank) <- e.exchange_rounds;
            states.(rank) <- e.states;
            true
          | _ -> false)
    done;
    (* orderly reap: every worker exits right after its epilogue *)
    Array.iteri
      (fun rank pid ->
        if not reaped.(rank) then begin
          let st = waitpid_retry pid in
          reaped.(rank) <- true;
          match st with
          | Unix.WEXITED 0 -> ()
          | st ->
            Wire.fail "worker %d (pid %d) %s after an orderly stop" rank pid
              (wait_status_string st)
        end)
      pids;
    states
  in
  match
    Fun.protect
      ~finally:(fun () ->
        cleanup ();
        Tl_shard.Shard.emit_partition ~prefix:"proc"
          ~shape:
            (match shape with Collective.Binomial -> 0 | Collective.Nary f -> f)
          ~plan ~plan_hit
          ~reported:(Array.get have_epi) ~halo_words:(Array.get epi_halo)
          ~exchange_rounds:(Array.get epi_exch)
          ~latency_s:(now () -. t_start) ())
      (fun () ->
        (* prologues: identity, run configuration, halo-neighbor sets,
           tree shape and the shard image — once per worker *)
        Array.iteri
          (fun rank sh ->
            let img =
              Wire.encode
                (Wire.Prologue
                   {
                     rank;
                     size;
                     entry = Worker.entry_code term;
                     sched = Worker.sched_code sched;
                     shape = Collective.code_of_shape shape;
                     slots;
                     in_peers = in_peers.(rank);
                     out_peers = out_peers.(rank);
                     shard = Plan.encode_shard sh;
                   })
            in
            Transport.send_frame cfd.(rank) img (Bytes.length img))
          shards;
        let st = Driver.stats ~active:0 ~unhalted:0 in
        await_stats ~round:0 st;
        drive { plan; st; step; stop })
  with
  | v -> v
  | exception Worker_failure msg -> failwith msg

(* Run the driver over the cluster, then collect the owned-state images.
   A [Failure] out of [Driver.loop] is its max_rounds failure (worker
   errors surface as [Worker_failure] / [Proc_failure]): stop the workers
   in order before re-raising it. *)
let drive ~tr ~term ops =
  let rounds =
    match Driver.loop tr term ops.st ops.step with
    | rounds -> rounds
    | exception (Failure _ as e) ->
      ignore (ops.stop ~ship:false);
      raise e
  in
  (ops.stop ~ship:true, rounds)

(* ---------- boxed entry points (the Engine.Proc hook) ---------- *)

let apply_boxed_states states sh b =
  let n_owned = sh.Plan.n_owned and l2g = sh.Plan.l2g in
  let blen = Bytes.length b in
  let pos = ref 0 in
  for l = 0 to n_owned - 1 do
    pos := Worker.get_boxed b !pos blen states l2g.(l)
  done;
  if !pos <> blen then Wire.fail "trailing epilogue state bytes"

let assemble_boxed (type a) ~topo ~(init : int -> a) ~plan images :
    a array =
  let states = Array.init topo.Topology.n_base init in
  Array.iteri
    (fun rank img ->
      match img with
      | None -> Wire.fail "worker %d shipped no states" rank
      | Some b -> apply_boxed_states states plan.Plan.shards.(rank) b)
    images;
  states

let pb_run ~count:procs ~sched ~equal ~halted ~trace:tr ~topo ~init ~step
    term =
  with_cluster ~procs ~topo ~term ~sched ~slots:0
    ~body:(fun env -> Worker.run_boxed env ~init ~step ~equal ~halted)
    ~drive:(fun ops ->
      let images, rounds = drive ~tr ~term ops in
      let states = assemble_boxed ~topo ~init ~plan:ops.plan images in
      { Engine.states; rounds })

let () = Engine.proc_backend := Some { Engine.run = pb_run }

let register () = ()

(* ---------- flat entry points (the B12 fast path) ---------- *)

let apply_flat_states slab ~slots sh b =
  let n_owned = sh.Plan.n_owned and l2g = sh.Plan.l2g in
  if Bytes.length b <> n_owned * slots * 8 then
    Wire.fail "flat epilogue states: %d bytes for %d words" (Bytes.length b)
      (n_owned * slots);
  for l = 0 to n_owned - 1 do
    let gbase = l2g.(l) * slots in
    for k = 0 to slots - 1 do
      slab.(gbase + k) <- Wire.get_i64 b (((l * slots) + k) * 8)
    done
  done

let assemble_flat ~topo ~(kernel : Flat.kernel) ~plan images =
  let slots = kernel.Flat.slots in
  let init = kernel.Flat.init in
  let n = topo.Topology.n_base in
  let slab =
    Array.init (n * slots) (fun i ->
        init ~node:(i / slots) ~slot:(i mod slots))
  in
  Array.iteri
    (fun rank img ->
      match img with
      | None -> Wire.fail "worker %d shipped no states" rank
      | Some b -> apply_flat_states slab ~slots plan.Plan.shards.(rank) b)
    images;
  fun rounds -> { Flat.slab; slots; rounds }

let run_flat_with ~procs ~sched ~topo ~kernel_for term =
  let kernel = kernel_for ~l2g:(Array.init topo.Topology.n_base Fun.id) in
  (match (term, kernel.Flat.halted) with
  | Driver.Until_halted _, None ->
    invalid_arg
      (Printf.sprintf "Proc.run_flat: kernel %s has no halted predicate"
         kernel.Flat.name)
  | _ -> ());
  with_cluster ~procs ~topo ~term ~sched ~slots:kernel.Flat.slots
    ~body:(fun env -> Worker.run_flat env ~kernel_for)
    ~drive:(fun ops ->
      let images, rounds = drive ~tr:None ~term ops in
      assemble_flat ~topo ~kernel ~plan:ops.plan images rounds)

let run_flat ~procs ?(sched = Engine.Active_set) ~topo ~kernel_for
    ~max_rounds () =
  run_flat_with ~procs ~sched ~topo ~kernel_for (Driver.Until_halted max_rounds)

let run_flat_until_stable ~procs ?(sched = Engine.Active_set) ~topo
    ~kernel_for ~max_rounds () =
  run_flat_with ~procs ~sched ~topo ~kernel_for (Driver.Until_stable max_rounds)

(* Shard-local builders for the stock flat kernels: the worker calls
   [kernel_for ~l2g:shard.l2g] so node-indexed inputs are remapped into
   local space (ghosts included); the coordinator's identity-l2g call
   recovers the global kernel for slab initialization. *)
module Kernels = struct
  let flood ?(source = 0) () ~l2g =
    let k = Flat.Kernels.flood ~source () in
    {
      k with
      Flat.init = (fun ~node ~slot:_ -> if l2g.(node) = source then 1 else 0);
    }

  let mis_local_max ~ids ~l2g =
    Flat.Kernels.mis_local_max ~ids:(Array.map (fun g -> ids.(g)) l2g)
end
