(* tree-local-serve: the long-running serving daemon.

   Reads ndjson run requests (lib/serve/protocol.mli documents the wire
   schema) and writes one ndjson response per request, either over
   stdin/stdout (the default, pipe-friendly mode) or over a Unix-domain
   socket with --socket. *)

open Cmdliner
module Server = Tl_serve.Server

(* An integer option of at least [min]; [what] names it in the usage
   error. *)
let int_at_least min what =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= min -> Ok v
    | _ ->
      Error (`Msg (Printf.sprintf "invalid %s %S (expected >= %d)" what s min))
  in
  Arg.conv (parse, Format.pp_print_int)

let socket_arg =
  let doc =
    "Listen on a Unix-domain socket at $(docv) (serving one connection \
     at a time) instead of stdin/stdout. A stale socket file at the \
     path is replaced, but a path a running daemon answers on (or any \
     non-socket file) is refused; the file is removed on shutdown."
  in
  Arg.(
    value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let depth_arg =
  let doc =
    "Job-queue depth: a request arriving while $(docv) jobs are already \
     queued in the cycle is rejected with a structured error instead of \
     waiting (backpressure)."
  in
  Arg.(
    value
    & opt (int_at_least 1 "depth") Server.default_config.Server.depth
    & info [ "depth" ] ~docv:"D" ~doc)

let cache_arg =
  let doc =
    "Instance-cache capacity: keep up to $(docv) generated instances \
     (graph, ID assignment, compiled-topology handle) keyed by graph \
     spec, so same-topology requests skip regeneration. 0 disables \
     caching."
  in
  Arg.(
    value
    & opt (int_at_least 0 "cache size") Server.default_config.Server.cache_slots
    & info [ "cache-slots" ] ~docv:"C" ~doc)

let max_n_arg =
  let doc = "Admission guard: reject requests for instances above $(docv) nodes." in
  Arg.(
    value
    & opt (int_at_least 1 "max-n") Server.default_config.Server.max_n
    & info [ "max-n" ] ~docv:"N" ~doc)

let serve socket depth cache_slots max_n =
  let config = { Server.depth; cache_slots; max_n } in
  let t = Server.create ~config () in
  match socket with
  | None -> Server.serve_stdio t
  | Some path -> (
    Printf.eprintf "tree-local-serve: listening on %s\n%!" path;
    (* a refused socket path (live daemon, non-socket file) is a usage
       problem, not a crash: report it without a backtrace *)
    try Server.listen_unix t ~path
    with Failure msg ->
      Printf.eprintf "tree-local-serve: %s\n%!" msg;
      exit 1)

let () =
  let doc =
    "Serve tree-local run requests as ndjson over stdin/stdout or a \
     Unix-domain socket."
  in
  let info = Cmd.info "tree-local-serve" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.v info
          Term.(const serve $ socket_arg $ depth_arg $ cache_arg $ max_n_arg)))
