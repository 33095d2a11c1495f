(* hgd: the resident hypergraph analysis daemon.

   Thin cmdliner front end over Hp_server.Server: bind a Unix-domain
   socket, keep datasets resident, memoize analyses, answer the line
   protocol documented in lib/server/protocol.mli.  `hgtool serve` is
   the same loop; this standalone binary is what a supervisor runs. *)

module Server = Hp_server.Server
open Cmdliner

let parse_bind what spec =
  if spec = "" then Ok None
  else
    match Hp_server.Netaddr.parse_hostport spec with
    | Ok hp -> Ok (Some hp)
    | Error msg -> Error (Printf.sprintf "--%s %s" what msg)

let serve socket workers cache timeout domains preload queue_limit
    shed_watermark max_file_bytes failpoints stats_samples cache_file
    wal_sync wal_checkpoint_every tcp http log_level quiet =
  (match Hp_util.Log.level_of_string log_level with
  | Ok l -> Hp_util.Log.set_level l
  | Error msg -> Printf.eprintf "hgd: %s, keeping info\n%!" msg);
  let ( let* ) r f =
    match r with
    | Ok v -> f v
    | Error msg ->
      Hp_util.Log.error ~comp:"hgd" ~fields:[ ("error", msg) ] "start failed";
      1
  in
  let* tcp = parse_bind "tcp" tcp in
  let* http = parse_bind "http" http in
  let config =
    {
      Server.socket_path = socket;
      workers;
      cache_capacity = cache;
      request_timeout = timeout;
      compute_domains = domains;
      preload;
      queue_limit;
      shed_watermark;
      max_file_bytes;
      failpoints;
      stats_samples;
      cache_file = (if cache_file = "" then None else Some cache_file);
      wal_sync;
      wal_checkpoint_every;
      tcp;
      http;
    }
  in
  match Server.start config with
  | Error msg ->
    Hp_util.Log.error ~comp:"hgd" ~fields:[ ("error", msg) ] "start failed";
    1
  | Ok t ->
    if not quiet then begin
      Printf.printf "hgd: listening on %s (%d workers, %d cache entries)\n%!"
        socket workers cache;
      Option.iter
        (fun p -> Printf.printf "hgd: tcp protocol on port %d\n%!" p)
        (Server.tcp_port t);
      Option.iter
        (fun p -> Printf.printf "hgd: http /metrics + /healthz on port %d\n%!" p)
        (Server.http_port t)
    end;
    let stop_signal _ = Server.request_stop t in
    ignore (Sys.signal Sys.sigint (Sys.Signal_handle stop_signal));
    ignore (Sys.signal Sys.sigterm (Sys.Signal_handle stop_signal));
    Server.wait t;
    if not quiet then Printf.printf "hgd: shut down\n%!";
    0

let socket_arg =
  Arg.(value & opt string "hgd.sock" & info [ "s"; "socket" ] ~docv:"PATH"
         ~doc:"Unix-domain socket to listen on.")

let workers_arg =
  Arg.(value & opt int (Hp_util.Parallel.recommended_domains ())
       & info [ "w"; "workers" ] ~docv:"N" ~doc:"Worker pool size.")

let cache_arg =
  Arg.(value & opt int 128 & info [ "cache" ] ~docv:"N"
         ~doc:"Result cache entry budget (0 disables caching).")

let timeout_arg =
  Arg.(value & opt float 30.0 & info [ "timeout" ] ~docv:"SECONDS"
         ~doc:"Per-request compute budget (0 disables the check).")

let domains_arg =
  Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N"
         ~doc:"Domains handed to each analysis kernel.")

let preload_arg =
  Arg.(value & opt_all file [] & info [ "preload" ] ~docv:"FILE"
         ~doc:"Dataset to load before accepting connections (repeatable).")

let queue_limit_arg =
  Arg.(value & opt int 128 & info [ "queue-limit" ] ~docv:"N"
         ~doc:"Connections waiting for a worker before ERR busy.")

let shed_watermark_arg =
  Arg.(value & opt int 64 & info [ "shed-watermark" ] ~docv:"N"
         ~doc:"Queue depth at which analyses become cache-only \
               (0 disables shedding).")

let max_file_bytes_arg =
  Arg.(value & opt int (1 lsl 30) & info [ "max-file-bytes" ] ~docv:"BYTES"
         ~doc:"Reject dataset files larger than this (0 = unlimited).")

let failpoints_arg =
  let env = Cmd.Env.info "HGD_FAILPOINTS" in
  Arg.(value & opt string "" & info [ "failpoints" ] ~env ~docv:"SPEC"
         ~doc:"Fault-injection spec, e.g. \
               $(i,registry.read=err*1;core.peel=sleep:50).  Test-only.")

let stats_samples_arg =
  Arg.(value & opt int 0 & info [ "stats-samples" ] ~docv:"N"
         ~doc:"Estimate STATS path metrics from N sampled BFS sources \
               instead of the exact all-pairs sweep (0 = exact).")

let cache_file_arg =
  Arg.(value & opt string "" & info [ "cache-file" ] ~docv:"FILE"
         ~doc:"Persist the result cache here on shutdown and restore it on \
               startup, so a restarted daemon answers repeated queries warm \
               (empty = memory-only).")

let wal_sync_conv =
  let parse s =
    Result.map_error
      (fun m -> `Msg m)
      (Hp_wal.Wal.sync_policy_of_string s)
  in
  let print ppf p =
    Format.pp_print_string ppf (Hp_wal.Wal.sync_policy_to_string p)
  in
  Arg.conv (parse, print)

let wal_sync_arg =
  Arg.(value & opt wal_sync_conv Hp_wal.Wal.Batch
       & info [ "wal-sync" ] ~docv:"POLICY"
           ~doc:"fsync policy for write-ahead-log appends: $(i,always) \
                 (every mutation power-loss durable), $(i,batch) \
                 (periodic; the default), or $(i,never) (OS-paced).")

let wal_checkpoint_arg =
  Arg.(value & opt int 0 & info [ "wal-checkpoint-every" ] ~docv:"N"
         ~doc:"Compact a dataset's write-ahead log into a fresh sibling \
               snapshot after every N mutations (0 = only on an explicit \
               CHECKPOINT request).")

let tcp_arg =
  Arg.(value & opt string "" & info [ "tcp" ] ~docv:"HOST:PORT"
         ~doc:"Also serve the protocol over TCP via the nonblocking event \
               loop (e.g. $(i,127.0.0.1:7070), $(i,:7070) for all \
               interfaces, port 0 for an ephemeral port).  The same port \
               answers HTTP $(i,GET /metrics) and $(i,GET /healthz).")

let http_arg =
  Arg.(value & opt string "" & info [ "http" ] ~docv:"HOST:PORT"
         ~doc:"Dedicated HTTP port for $(i,GET /metrics) (Prometheus text) \
               and $(i,GET /healthz), for scrapers kept away from the \
               protocol port.")

let log_level_arg =
  let env = Cmd.Env.info "HGD_LOG_LEVEL" in
  Arg.(value & opt string "info" & info [ "log-level" ] ~env ~docv:"LEVEL"
         ~doc:"Structured-log threshold: debug, info, warn, or error.")

let quiet_arg =
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress startup chatter.")

let () =
  let doc = "Resident hypergraph analysis server with result caching." in
  let cmd =
    Cmd.v (Cmd.info "hgd" ~doc)
      Term.(const serve $ socket_arg $ workers_arg $ cache_arg $ timeout_arg
            $ domains_arg $ preload_arg $ queue_limit_arg $ shed_watermark_arg
            $ max_file_bytes_arg $ failpoints_arg $ stats_samples_arg
            $ cache_file_arg $ wal_sync_arg $ wal_checkpoint_arg
            $ tcp_arg $ http_arg $ log_level_arg $ quiet_arg)
  in
  exit (Cmd.eval' cmd)
