(* Differential battery for the process backend: the tlp wire codec
   (round-trips, chunked reassembly, malformed-input rejection, the
   zero-allocation scalar path), collective-tree geometry, and
   proc:{1,2,4} bit-identical to the sequential stepper — labelings,
   per-round trace records, round ledgers and failure behavior — plus
   worker-crash containment and zombie-free cleanup.

   Ordering matters on OCaml 5: fork is forbidden once a domain has
   spawned, so every comparison here is against Engine.Seq / Flat with
   par:1 — never Shard or Par modes, which may spin up the domain
   team and would poison every later proc run in this process. *)

module Graph = Tl_graph.Graph
module Gen = Tl_graph.Gen
module Semi_graph = Tl_graph.Semi_graph
module Topology = Tl_engine.Topology
module Engine = Tl_engine.Engine
module Flat = Tl_engine.Flat
module Trace = Tl_engine.Trace
module Plan = Tl_shard.Plan
module Wire = Tl_proc.Wire
module Collective = Tl_proc.Collective
module Proc = Tl_proc.Coordinator
module Ids = Tl_local.Ids
module Round_cost = Tl_local.Round_cost
module Span = Tl_obs.Span
module Theorem1 = Tl_core.Theorem1
module Complexity = Tl_core.Complexity

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let proc_counts = [ 1; 2; 4 ]

(* The acceptance families: random trees, balanced regular trees, paths
   and forest unions. *)
let family ~n ~seed ~pick =
  let n = max 2 n in
  match pick mod 4 with
  | 0 -> Gen.random_tree ~n ~seed
  | 1 -> Gen.balanced_regular_tree ~delta:(2 + (seed mod 4)) ~n
  | 2 -> Gen.path n
  | _ -> Gen.forest_union ~n ~arboricity:2 ~seed

let flood_step ~round:_ ~node:_ s ~neighbors =
  s || List.exists (fun (_, _, su) -> su) neighbors

let mis_step ids ~round:_ ~node:v s ~neighbors =
  if s <> 0 then s
  else if List.exists (fun (_, _, su) -> su = 1) neighbors then 2
  else if
    List.for_all (fun (u, _, su) -> su <> 0 || ids.(u) < ids.(v)) neighbors
  then 1
  else 0

(* ---------- wire: scalar codec ---------- *)

let test_scalar_codec () =
  let b = Bytes.create 16 in
  List.iter
    (fun v ->
      Wire.put_i64 b 3 v;
      check (Printf.sprintf "i64 round-trip %d" v) true (Wire.get_i64 b 3 = v))
    [
      0; 1; -1; 2; -2; 42; -9999; max_int; min_int; max_int - 1; min_int + 1;
      0x1234_5678_9abc; -0x1234_5678_9abc; 1 lsl 61; -(1 lsl 61);
    ];
  List.iter
    (fun v ->
      Wire.put_u32 b 0 v;
      check (Printf.sprintf "u32 round-trip %d" v) true (Wire.get_u32 b 0 = v))
    [ 0; 1; 0xffff; 0xffff_ffff; 0x1234_5678 ];
  List.iter
    (fun v ->
      Wire.put_u16 b 9 v;
      check (Printf.sprintf "u16 round-trip %d" v) true (Wire.get_u16 b 9 = v))
    [ 0; 1; 255; 256; 0xffff ]

(* The steady-state halo path must not allocate: the scalar codec is
   byte-by-byte precisely so that no Int64 box appears per word. Allow a
   few words of slack for the Gc.minor_words float boxes themselves. *)
let test_codec_alloc_budget () =
  let b = Bytes.create 32 in
  Wire.put_i64 b 0 42;
  ignore (Wire.get_i64 b 0);
  let w0 = Gc.minor_words () in
  for i = 1 to 10_000 do
    Wire.put_i64 b 0 (i * 1_000_003);
    if Wire.get_i64 b 0 <> i * 1_000_003 then assert false;
    Wire.put_u32 b 8 i;
    if Wire.get_u32 b 8 <> i then assert false;
    Wire.put_u16 b 12 (i land 0xffff);
    if Wire.get_u16 b 12 <> i land 0xffff then assert false
  done;
  let dw = Gc.minor_words () -. w0 in
  check (Printf.sprintf "codec allocates nothing (%.0f words)" dw) true
    (dw < 64.)

(* ---------- wire: typed frame round-trips ---------- *)

let mk_frame (pick, a, b, s) =
  let u8 x = x land 0xff
  and u16 x = x land 0xffff
  and u32 x = x land 0xffff_ffff in
  let by = Bytes.of_string s in
  let peers =
    Array.init
      (String.length s mod 5)
      (fun i -> u16 ((Char.code s.[i] * 7) + i))
  in
  match pick mod 6 with
  | 0 ->
    Wire.Prologue
      {
        rank = u16 a;
        size = u16 b;
        entry = u8 a;
        sched = u8 b;
        shape = u16 (a + b);
        slots = u16 ((a * 3) + 1);
        in_peers = peers;
        out_peers = Array.map (fun p -> u16 (p + 1)) peers;
        shard = by;
      }
  | 1 -> Wire.Halo { round = u32 a; src = u16 b; n = u32 (a + b); payload = by }
  | 2 ->
    Wire.Stats
      {
        round = u32 a;
        src = u16 b;
        active = a - b;
        changed = (a * b) - 7;
        unhalted = -a;
        halo_words = b;
      }
  | 3 -> Wire.Decision { action = 1 + (abs a mod 3); round = u32 b }
  | 4 ->
    Wire.Epilogue
      {
        src = u16 a;
        halo_words = b;
        exchange_rounds = a;
        states = (if b mod 2 = 0 then None else Some by);
      }
  | _ -> Wire.Error_frame { src = u16 a; failure = a mod 2 = 0; message = s }

let prop_frame_roundtrip =
  QCheck.Test.make ~name:"encode/decode round-trips every frame kind"
    ~count:200
    QCheck.(
      quad (int_range 0 5) (int_range 0 1_000_000) (int_range 0 1_000_000)
        string)
    (fun spec -> Wire.decode (Wire.encode (mk_frame spec)) = mk_frame spec)

let test_extreme_stats_roundtrip () =
  let f =
    Wire.Stats
      {
        round = 0xffff_ffff;
        src = 0xffff;
        active = min_int;
        changed = max_int;
        unhalted = -1;
        halo_words = 0;
      }
  in
  check "min_int/max_int stats survive the wire" true
    (Wire.decode (Wire.encode f) = f)

(* ---------- wire: chunked reassembly ---------- *)

let prop_reassembly =
  QCheck.Test.make
    ~name:"Reassembler: arbitrary chunking preserves the stream" ~count:120
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 6)
           (quad (int_range 0 5) (int_range 0 100_000) (int_range 0 100_000)
              string))
        (int_range 0 100_000))
    (fun (specs, chop) ->
      let frames = List.map mk_frame specs in
      let stream =
        Bytes.concat Bytes.empty (List.map Wire.encode frames)
      in
      let total = Bytes.length stream in
      let r = Wire.Reassembler.create () in
      let out = ref [] in
      let pos = ref 0 in
      let i = ref 0 in
      while !pos < total do
        let len = min (1 + ((chop + (!i * 13)) mod 9)) (total - !pos) in
        out := !out @ Wire.Reassembler.feed r stream ~pos:!pos ~len;
        pos := !pos + len;
        incr i
      done;
      !out = frames && Wire.Reassembler.pending r = 0)

let proc_fails f =
  match f () with exception Wire.Proc_failure _ -> true | _ -> false

let test_wire_rejection () =
  let img = Wire.encode (Wire.Decision { action = Wire.a_step; round = 7 }) in
  (* truncated: length prefix promises more than the buffer holds *)
  check "truncated frame rejected" true
    (proc_fails (fun () -> Wire.decode (Bytes.sub img 0 (Bytes.length img - 1))));
  (* bad magic *)
  let bad = Bytes.copy img in
  Bytes.set bad 4 'X';
  check "bad magic rejected" true (proc_fails (fun () -> Wire.decode bad));
  (* version mismatch *)
  let badv = Bytes.copy img in
  Bytes.set badv 7 (Char.chr (Wire.version + 9));
  check "version mismatch rejected" true
    (proc_fails (fun () -> Wire.decode badv));
  (* trailing bytes inside the payload *)
  let fat = Bytes.cat img (Bytes.make 2 '\000') in
  Wire.put_u32 fat 0 (Bytes.length fat - 4);
  check "trailing payload bytes rejected" true
    (proc_fails (fun () -> Wire.decode fat));
  (* the reassembler rejects a malformed header as soon as it is fully
     visible (9 bytes), long before the frame completes *)
  let r = Wire.Reassembler.create () in
  check "reassembler rejects bad magic early" true
    (proc_fails (fun () -> Wire.Reassembler.feed r bad ~pos:0 ~len:9));
  (* an oversized length prefix is refused outright *)
  let huge = Bytes.make 8 '\000' in
  Wire.put_u32 huge 0 (Wire.max_frame_bytes + 1);
  let r2 = Wire.Reassembler.create () in
  check "oversized length prefix rejected" true
    (proc_fails (fun () -> Wire.Reassembler.feed r2 huge ~pos:0 ~len:8))

(* ---------- collective-tree geometry ---------- *)

let shapes =
  [
    Collective.Binomial; Collective.Nary 1; Collective.Nary 2;
    Collective.Nary 3; Collective.Nary 7;
  ]

let test_collective_geometry () =
  List.iter
    (fun shape ->
      let sname = Collective.shape_to_string shape in
      List.iter
        (fun size ->
          check (sname ^ ": root has no parent") true
            (Collective.parent shape 0 = -1);
          let edges = ref 0 in
          for r = 1 to size - 1 do
            let p = Collective.parent shape r in
            check (Printf.sprintf "%s size %d: parent below" sname size) true
              (p >= 0 && p < r);
            check
              (Printf.sprintf "%s size %d: child listed" sname size)
              true
              (List.mem r (Collective.children shape ~size p))
          done;
          for r = 0 to size - 1 do
            let cs = Collective.children shape ~size r in
            check (sname ^ ": children ascending") true
              (List.sort compare cs = cs);
            List.iter
              (fun c ->
                check (sname ^ ": child in range") true (c > r && c < size);
                check (sname ^ ": parent-of-child consistent") true
                  (Collective.parent shape c = r))
              cs;
            edges := !edges + List.length cs
          done;
          (* every non-root rank hangs off exactly one parent: the tree
             spans all of [0, size) *)
          check_int
            (Printf.sprintf "%s size %d: spanning" sname size)
            (max 0 (size - 1))
            !edges)
        [ 1; 2; 3; 5; 8; 16; 33 ])
    shapes

let test_shape_codes_and_env () =
  List.iter
    (fun s ->
      check ("code round-trip " ^ Collective.shape_to_string s) true
        (Collective.shape_of_code (Collective.code_of_shape s) = s))
    shapes;
  check "negative shape code rejected" true
    (match Collective.shape_of_code (-1) with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let with_fanout v f =
    Unix.putenv "TL_PROC_FANOUT" v;
    Fun.protect ~finally:(fun () -> Unix.putenv "TL_PROC_FANOUT" "binomial") f
  in
  with_fanout "3" (fun () ->
      check "TL_PROC_FANOUT=3" true
        (Collective.shape_of_env () = Collective.Nary 3));
  with_fanout "binomial" (fun () ->
      check "TL_PROC_FANOUT=binomial" true
        (Collective.shape_of_env () = Collective.Binomial));
  with_fanout "" (fun () ->
      check "TL_PROC_FANOUT empty = default" true
        (Collective.shape_of_env () = Collective.Binomial));
  List.iter
    (fun v ->
      with_fanout v (fun () ->
          check ("TL_PROC_FANOUT=" ^ v ^ " rejected") true
            (match Collective.shape_of_env () with
            | exception Invalid_argument _ -> true
            | _ -> false)))
    [ "0"; "-2"; "wide" ]

(* ---------- shard image codec (the prologue's payload) ---------- *)

let prop_shard_image_roundtrip =
  QCheck.Test.make ~name:"Plan.encode_shard/decode_shard round-trip"
    ~count:40
    QCheck.(
      quad (int_range 2 150) (int_range 0 100_000) (int_range 0 3)
        (int_range 1 8))
    (fun (n, seed, pick, s) ->
      let g = family ~n ~seed ~pick in
      let topo = Topology.compile (Semi_graph.of_graph g) in
      let plan = Plan.build ~topo ~shards:s in
      Array.for_all
        (fun sh -> Plan.decode_shard (Plan.encode_shard sh) = sh)
        plan.Plan.shards)

let test_shard_image_rejection () =
  let topo = Topology.compile (Semi_graph.of_graph (Gen.path 12)) in
  let plan = Plan.build ~topo ~shards:3 in
  let img = Plan.encode_shard plan.Plan.shards.(1) in
  let rejects b =
    match Plan.decode_shard b with
    | exception Invalid_argument m ->
      String.length m >= 18 && String.sub m 0 18 = "Plan.decode_shard:"
    | _ -> false
  in
  check "truncated image rejected" true
    (rejects (Bytes.sub img 0 (Bytes.length img - 3)));
  let bad = Bytes.copy img in
  Bytes.set bad 0 'X';
  check "bad magic rejected" true (rejects bad);
  let badv = Bytes.copy img in
  Bytes.set badv 3 '\009';
  check "bad version rejected" true (rejects badv);
  check "trailing garbage rejected" true
    (rejects (Bytes.cat img (Bytes.make 3 'q')))

(* ---------- engine-level differential: states, rounds, traces ---------- *)

let record_key r =
  (r.Trace.round, r.Trace.active, r.Trace.changed, r.Trace.unhalted)

let outcome_and_records f mode =
  let trace = Trace.create ~label:"diff" () in
  let o = f ~mode ~trace in
  (o, List.map record_key (Trace.records trace))

let proc_matches_seq f =
  let seq_o, seq_r = outcome_and_records f Engine.Seq in
  List.for_all
    (fun p ->
      let o, r = outcome_and_records f (Engine.Proc p) in
      o.Engine.rounds = seq_o.Engine.rounds
      && o.Engine.states = seq_o.Engine.states
      && r = seq_r)
    proc_counts

let prop_flood_differential =
  QCheck.Test.make ~name:"flood: proc == seq (states + records)" ~count:20
    QCheck.(triple (int_range 2 150) (int_range 0 100_000) (int_range 0 3))
    (fun (n, seed, pick) ->
      let g = family ~n ~seed ~pick in
      let topo = Topology.compile (Semi_graph.of_graph g) in
      List.for_all
        (fun sched ->
          proc_matches_seq (fun ~mode ~trace ->
              Engine.run_until_stable ~mode ~sched ~trace ~topo
                ~init:(fun v -> v = 0)
                ~step:flood_step ~equal:Bool.equal
                ~max_rounds:(Graph.n_nodes g + 1)
                ()))
        [ Engine.Active_set; Engine.Full_scan ])

let prop_mis_differential =
  QCheck.Test.make ~name:"MIS machine: proc == seq" ~count:20
    QCheck.(triple (int_range 2 150) (int_range 0 100_000) (int_range 0 3))
    (fun (n, seed, pick) ->
      let g = family ~n ~seed ~pick in
      let n = Graph.n_nodes g in
      let ids = Ids.permuted ~n ~seed:(seed + 3) in
      let topo = Topology.compile (Semi_graph.of_graph g) in
      proc_matches_seq (fun ~mode ~trace ->
          Engine.run ~mode ~trace ~topo
            ~init:(fun _ -> 0)
            ~step:(mis_step ids)
            ~halted:(fun s -> s <> 0)
            ~max_rounds:(n + 1) ()))

let prop_run_rounds_differential =
  QCheck.Test.make ~name:"run_rounds: proc == seq, exact count" ~count:15
    QCheck.(triple (int_range 2 120) (int_range 0 100_000) (int_range 0 3))
    (fun (n, seed, pick) ->
      let g = family ~n ~seed ~pick in
      let ids = Ids.permuted ~n:(Graph.n_nodes g) ~seed:(seed + 5) in
      let topo = Topology.compile (Semi_graph.of_graph g) in
      let r = 3 + (seed mod 5) in
      let run mode =
        Engine.run_rounds ~mode ~topo
          ~init:(fun v -> ids.(v))
          ~step:(fun ~round:_ ~node:_ s ~neighbors ->
            List.fold_left (fun acc (_, _, su) -> max acc su) s neighbors)
          ~rounds:r ()
      in
      let seq = run Engine.Seq in
      seq.Engine.rounds = r
      && List.for_all
           (fun p ->
             let o = run (Engine.Proc p) in
             o.Engine.rounds = r && o.Engine.states = seq.Engine.states)
           proc_counts)

(* the tree shape only changes who forwards what: any fanout must leave
   results and ledgers untouched *)
let test_fanout_invariance () =
  let g = Gen.random_tree ~n:400 ~seed:19 in
  let topo = Topology.compile (Semi_graph.of_graph g) in
  let flood mode =
    let o =
      Engine.run_until_stable ~mode ~topo
        ~init:(fun v -> v = 0)
        ~step:flood_step ~equal:Bool.equal ~max_rounds:401 ()
    in
    (o.Engine.states, o.Engine.rounds)
  in
  let seq = flood Engine.Seq in
  List.iter
    (fun fanout ->
      Unix.putenv "TL_PROC_FANOUT" fanout;
      Fun.protect
        ~finally:(fun () -> Unix.putenv "TL_PROC_FANOUT" "binomial")
        (fun () ->
          check
            (Printf.sprintf "proc:4 fanout %s = seq" fanout)
            true
            (flood (Engine.Proc 4) = seq)))
    [ "1"; "2"; "4"; "binomial" ]

(* ---------- failure parity and worker-crash containment ---------- *)

let failure_message f =
  match f () with exception Failure m -> Some m | _ -> None

let test_failure_parity () =
  let topo = Topology.compile (Semi_graph.of_graph (Gen.path 9)) in
  let frozen mode () =
    Engine.run ~mode ~topo
      ~init:(fun _ -> 0)
      ~step:(fun ~round:_ ~node:_ s ~neighbors:_ -> s)
      ~halted:(fun _ -> false)
      ~max_rounds:10 ()
  in
  let blinker mode () =
    Engine.run_until_stable ~mode ~topo
      ~init:(fun _ -> false)
      ~step:(fun ~round:_ ~node:_ s ~neighbors:_ -> not s)
      ~equal:Bool.equal ~max_rounds:7 ()
  in
  let m_frozen = failure_message (frozen Engine.Seq) in
  let m_blinker = failure_message (blinker Engine.Seq) in
  check "seq frozen raises" true (m_frozen <> None);
  check "seq blinker raises" true (m_blinker <> None);
  List.iter
    (fun p ->
      Alcotest.(check (option string))
        (Printf.sprintf "frozen parity proc:%d" p)
        m_frozen
        (failure_message (frozen (Engine.Proc p)));
      Alcotest.(check (option string))
        (Printf.sprintf "blinker parity proc:%d" p)
        m_blinker
        (failure_message (blinker (Engine.Proc p))))
    proc_counts

let test_worker_crash_containment () =
  let n = 200 in
  let topo =
    Topology.compile (Semi_graph.of_graph (Gen.random_tree ~n ~seed:31))
  in
  (* a worker-side exception mid-run must surface as the same Failure
     the sequential stepper would raise... *)
  Alcotest.(check (option string))
    "worker exception surfaces verbatim" (Some "boom")
    (failure_message (fun () ->
         Engine.run_rounds ~mode:(Engine.Proc 4) ~topo
           ~init:(fun v -> v)
           ~step:(fun ~round ~node s ~neighbors:_ ->
             if round = 2 && node = n / 2 then failwith "boom";
             s + 1)
           ~rounds:4 ()));
  (* ...and leave nothing behind: every worker reaped, no zombies *)
  check "no zombie workers after a crashed run" true
    (match Unix.waitpid [ Unix.WNOHANG ] (-1) with
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
    | _ -> false);
  (* a healthy run right after the crash works on the same topology *)
  let o =
    Engine.run_rounds ~mode:(Engine.Proc 4) ~topo
      ~init:(fun v -> v)
      ~step:(fun ~round:_ ~node:_ s ~neighbors:_ -> s + 1)
      ~rounds:3 ()
  in
  check_int "backend recovers after a crash" 3 o.Engine.rounds

let test_unlinked_backend_message () =
  let saved = !Engine.proc_backend in
  Engine.proc_backend := None;
  Fun.protect
    ~finally:(fun () -> Engine.proc_backend := saved)
    (fun () ->
      let topo = Topology.compile (Semi_graph.of_graph (Gen.path 3)) in
      match
        Engine.run ~mode:(Engine.Proc 2) ~topo
          ~init:(fun _ -> 0)
          ~step:(fun ~round:_ ~node:_ s ~neighbors:_ -> s)
          ~halted:(fun _ -> true)
          ~max_rounds:1 ()
      with
      | exception Failure m ->
        check "unlinked failure message" true
          (m = "Engine: proc mode requested but the tl_proc backend is \
                not linked")
      | _ -> Alcotest.fail "expected Failure without a backend")

let test_empty_present_set () =
  let g = Gen.path 4 in
  let topo =
    Topology.compile (Semi_graph.of_node_subset g (Array.make 4 false))
  in
  List.iter
    (fun p ->
      let o =
        Engine.run ~mode:(Engine.Proc p) ~topo
          ~init:(fun _ -> 0)
          ~step:(fun ~round:_ ~node:_ st ~neighbors:_ -> st + 1)
          ~halted:(fun _ -> false)
          ~max_rounds:5 ()
      in
      check_int (Printf.sprintf "empty view costs 0 rounds proc:%d" p) 0
        o.Engine.rounds)
    proc_counts

(* ---------- mode strings and direct API ---------- *)

let test_mode_strings () =
  List.iter
    (fun m ->
      check
        ("round-trip " ^ Engine.mode_to_string m)
        true
        (Engine.mode_of_string (Engine.mode_to_string m) = m))
    [ Engine.Proc 1; Engine.Proc 2; Engine.Proc 16 ];
  check "bare \"proc\" takes the explicit count" true
    (Engine.mode_of_string ~count:6 "proc" = Engine.Proc 6);
  List.iter
    (fun s ->
      check ("rejects " ^ s) true
        (match Engine.mode_of_string s with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ "proc:0"; "proc:x"; "proc:" ]

(* The proc backend chosen per call, no knob scope around it. *)
let test_per_call_mode () =
  let g = Gen.random_tree ~n:300 ~seed:7 in
  let topo = Topology.compile (Semi_graph.of_graph g) in
  let seq =
    Engine.run_until_stable ~mode:Engine.Seq ~topo
      ~init:(fun v -> v = 0)
      ~step:flood_step ~equal:Bool.equal ~max_rounds:301 ()
  in
  let o =
    Engine.run_until_stable ~mode:(Engine.Proc 3) ~topo
      ~init:(fun v -> v = 0)
      ~step:flood_step ~equal:Bool.equal ~max_rounds:301 ()
  in
  check "run_until_stable proc:3" true
    (o.Engine.states = seq.Engine.states && o.Engine.rounds = seq.Engine.rounds);
  let o2 =
    Engine.run ~mode:(Engine.Proc 2) ~topo
      ~init:(fun v -> v = 0)
      ~step:flood_step
      ~halted:(fun s -> s)
      ~max_rounds:301 ()
  in
  check "run proc:2" true (o2.Engine.states = seq.Engine.states)

(* ---------- flat kernels over the wire ---------- *)

let test_flat_proc_parity () =
  let n = 400 in
  let g = Gen.random_tree ~n ~seed:13 in
  let topo = Topology.compile (Semi_graph.of_graph g) in
  let seq_flood =
    Flat.run ~topo ~kernel:(Flat.Kernels.flood ()) ~max_rounds:(n + 1) ()
  in
  List.iter
    (fun p ->
      let o =
        Proc.run_flat ~procs:p ~topo ~kernel_for:(Proc.Kernels.flood ())
          ~max_rounds:(n + 1) ()
      in
      check
        (Printf.sprintf "flat flood proc:%d = flat seq" p)
        true
        (o.Flat.slab = seq_flood.Flat.slab
        && o.Flat.rounds = seq_flood.Flat.rounds))
    proc_counts;
  let ids = Ids.permuted ~n ~seed:14 in
  let seq_mis =
    Flat.run_until_stable ~topo
      ~kernel:(Flat.Kernels.mis_local_max ~ids)
      ~max_rounds:(n + 1) ()
  in
  List.iter
    (fun p ->
      let o =
        Proc.run_flat_until_stable ~procs:p ~topo
          ~kernel_for:(Proc.Kernels.mis_local_max ~ids)
          ~max_rounds:(n + 1) ()
      in
      check
        (Printf.sprintf "flat MIS proc:%d = flat seq" p)
        true
        (o.Flat.slab = seq_mis.Flat.slab && o.Flat.rounds = seq_mis.Flat.rounds))
    proc_counts;
  (* and the flat path agrees with the boxed proc path, column for
     column *)
  let boxed =
    Engine.run_until_stable ~mode:(Engine.Proc 2) ~topo
      ~init:(fun _ -> 0)
      ~step:(mis_step ids)
      ~equal:Int.equal ~max_rounds:(n + 1) ()
  in
  check "flat column = boxed proc states" true
    (Array.to_list (Flat.column seq_mis ~slot:0)
    = Array.to_list boxed.Engine.states)

(* ---------- spans: the per-worker observability contract ---------- *)

let rec find_spans pred s =
  let here = if pred s then [ s ] else [] in
  here @ List.concat_map (find_spans pred) (Span.children s)

let test_proc_spans () =
  let g = Gen.random_tree ~n:500 ~seed:11 in
  let topo = Topology.compile (Semi_graph.of_graph g) in
  Plan.clear_cache ();
  let (), root =
    Span.run "proc-span-test" (fun () ->
        ignore
          (Engine.run_until_stable ~mode:(Engine.Proc 4) ~topo
             ~init:(fun v -> v = 0)
             ~step:flood_step ~equal:Bool.equal ~max_rounds:501 ()))
  in
  let rank_spans =
    find_spans
      (fun s ->
        List.mem (Span.name s) [ "proc:0"; "proc:1"; "proc:2"; "proc:3" ])
      root
  in
  check_int "one child span per worker" 4 (List.length rank_spans);
  List.iter
    (fun s ->
      let c = Span.counters s in
      List.iter
        (fun key ->
          check
            (Printf.sprintf "%s carries %s" (Span.name s) key)
            true (List.mem_assoc key c))
        [
          "proc:owned"; "proc:halo"; "proc:cut_edges"; "proc:halo_words";
          "proc:imbalance"; "proc:exchange_rounds";
        ])
    rank_spans;
  let root_counters = Span.counters root in
  check_int "aggregate proc count" 4 (List.assoc "proc:procs" root_counters);
  check "plan miss counted" true
    (List.mem_assoc "proc:plan_miss" root_counters);
  check "halo traffic at least cut size" true
    (List.assoc "proc:halo_words" root_counters
    >= List.assoc "proc:cut_edges" root_counters / 2)

(* ---------- theorem-level: labeling and ledger end to end ---------- *)

module Labeling = Tl_problems.Labeling

let mis_spec =
  {
    Theorem1.problem = Tl_problems.Mis.problem;
    base_algorithm = Tl_symmetry.Algos.mis;
    solve_edge_list = Tl_problems.Mis.solve_edge_list;
  }

let test_theorem1_proc_bit_identical () =
  let tree = Gen.random_tree ~n:150 ~seed:23 in
  let ids = Ids.permuted ~n:150 ~seed:24 in
  let labels r =
    List.init (Graph.n_half_edges tree) (Labeling.get r.Theorem1.labeling)
  in
  let seq = Theorem1.run ~spec:mis_spec ~tree ~ids ~f:Complexity.f_linear () in
  List.iter
    (fun p ->
      let r =
        Engine.with_knobs ~mode:(Engine.Proc p) (fun () ->
            Theorem1.run ~spec:mis_spec ~tree ~ids ~f:Complexity.f_linear ())
      in
      check
        (Printf.sprintf "Theorem 12 MIS labeling proc:%d" p)
        true
        (labels r = labels seq);
      check
        (Printf.sprintf "Theorem 12 MIS ledger proc:%d" p)
        true
        (Round_cost.phases r.Theorem1.cost
        = Round_cost.phases seq.Theorem1.cost))
    [ 2; 4 ]

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "tl_proc"
    [
      ( "wire",
        [
          Alcotest.test_case "scalar codec round-trips" `Quick
            test_scalar_codec;
          Alcotest.test_case "scalar codec allocation budget" `Quick
            test_codec_alloc_budget;
          Alcotest.test_case "extreme stats round-trip" `Quick
            test_extreme_stats_roundtrip;
          Alcotest.test_case "malformed input rejected" `Quick
            test_wire_rejection;
        ]
        @ qsuite [ prop_frame_roundtrip; prop_reassembly ] );
      ( "collective",
        [
          Alcotest.test_case "tree geometry" `Quick test_collective_geometry;
          Alcotest.test_case "shape codes and TL_PROC_FANOUT" `Quick
            test_shape_codes_and_env;
        ] );
      ( "plan-codec",
        qsuite [ prop_shard_image_roundtrip ]
        @ [
            Alcotest.test_case "malformed shard image rejected" `Quick
              test_shard_image_rejection;
          ] );
      ( "differential",
        qsuite
          [
            prop_flood_differential;
            prop_mis_differential;
            prop_run_rounds_differential;
          ]
        @ [
            Alcotest.test_case "fanout invariance" `Quick
              test_fanout_invariance;
            Alcotest.test_case "flat kernels over the wire" `Quick
              test_flat_proc_parity;
          ] );
      ( "failure",
        [
          Alcotest.test_case "max_rounds and stall parity" `Quick
            test_failure_parity;
          Alcotest.test_case "worker crash containment" `Quick
            test_worker_crash_containment;
          Alcotest.test_case "unlinked backend message" `Quick
            test_unlinked_backend_message;
          Alcotest.test_case "empty present set" `Quick
            test_empty_present_set;
        ] );
      ( "api",
        [
          Alcotest.test_case "mode strings" `Quick test_mode_strings;
          Alcotest.test_case "per-call proc mode" `Quick test_per_call_mode;
        ] );
      ( "obs",
        [ Alcotest.test_case "per-worker spans" `Quick test_proc_spans ] );
      ( "theorems",
        [
          Alcotest.test_case "Theorem 12 MIS proc == seq" `Quick
            test_theorem1_proc_bit_identical;
        ] );
    ]
