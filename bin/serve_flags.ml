(* The server flags `hgd` and `hgtool serve` share: each flag, its
   default and its environment variable are defined once here, with
   the Server.config they build. *)

module Server = Hp_server.Server
open Cmdliner

let socket =
  Arg.(value & opt string "hgd.sock" & info [ "s"; "socket" ] ~docv:"PATH"
         ~doc:"Unix-domain socket to listen on.")

let workers =
  Arg.(value & opt int (Hp_util.Parallel.recommended_domains ())
       & info [ "w"; "workers" ] ~docv:"N" ~doc:"Worker pool size.")

let cache =
  Arg.(value & opt int 128 & info [ "cache" ] ~docv:"N"
         ~doc:"Result cache entry budget (0 disables caching).")

let timeout =
  Arg.(value & opt float 30.0 & info [ "timeout" ] ~docv:"SECONDS"
         ~doc:"Per-request compute budget (0 disables the check).")

let domains =
  Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N"
         ~doc:"Domains handed to each analysis kernel.")

let preload =
  Arg.(value & opt_all file [] & info [ "preload" ] ~docv:"FILE"
         ~doc:"Dataset to load before accepting connections (repeatable).")

let queue_limit =
  Arg.(value & opt int 128 & info [ "queue-limit" ] ~docv:"N"
         ~doc:"Jobs waiting for a worker before ERR busy.  A job is a \
               Unix-socket connection or one TCP request.")

let shed_watermark =
  Arg.(value & opt int 64 & info [ "shed-watermark" ] ~docv:"N"
         ~doc:"Queue depth at which analyses become cache-only \
               (0 disables shedding).")

let max_file_bytes =
  Arg.(value & opt int (1 lsl 30) & info [ "max-file-bytes" ] ~docv:"BYTES"
         ~doc:"Reject dataset files larger than this (0 = unlimited).")

let failpoints =
  let env = Cmd.Env.info "HGD_FAILPOINTS" in
  Arg.(value & opt string "" & info [ "failpoints" ] ~env ~docv:"SPEC"
         ~doc:"Fault-injection spec, e.g. \
               $(i,registry.read=err*1;core.peel=sleep:50).  Test-only.")

let stats_samples =
  Arg.(value & opt int 0 & info [ "stats-samples" ] ~docv:"N"
         ~doc:"Estimate STATS path metrics from N sampled BFS sources \
               instead of the exact all-pairs sweep (0 = exact).")

let cache_file =
  Arg.(value & opt string "" & info [ "cache-file" ] ~docv:"FILE"
         ~doc:"Persist the result cache here on shutdown and restore it on \
               startup, so a restarted daemon answers repeated queries warm \
               (empty = memory-only).")

let wal_sync =
  let policy =
    Arg.conv
      ( (fun s ->
          Result.map_error (fun m -> `Msg m) (Hp_wal.Wal.sync_policy_of_string s)),
        fun ppf p ->
          Format.pp_print_string ppf (Hp_wal.Wal.sync_policy_to_string p) )
  in
  Arg.(value & opt policy Hp_wal.Wal.Batch & info [ "wal-sync" ] ~docv:"POLICY"
         ~doc:"fsync policy for write-ahead-log appends: $(i,always) \
               (every mutation power-loss durable), $(i,batch) \
               (periodic; the default), or $(i,never) (OS-paced).")

let wal_checkpoint_every =
  Arg.(value & opt int 0 & info [ "wal-checkpoint-every" ] ~docv:"N"
         ~doc:"Compact a dataset's write-ahead log into a fresh sibling \
               snapshot after every N mutations (0 = only on an explicit \
               CHECKPOINT request).")

let tcp =
  Arg.(value & opt string "" & info [ "tcp" ] ~docv:"HOST:PORT"
         ~doc:"Also serve the protocol over TCP via the nonblocking event \
               loop (e.g. $(i,127.0.0.1:7070), $(i,:7070) for all \
               interfaces, port 0 for an ephemeral port).  The same port \
               answers HTTP $(i,GET /metrics) and $(i,GET /healthz).")

let http =
  Arg.(value & opt string "" & info [ "http" ] ~docv:"HOST:PORT"
         ~doc:"Dedicated HTTP port for $(i,GET /metrics) (Prometheus text) \
               and $(i,GET /healthz), for scrapers kept away from the \
               protocol port.")

let log_level =
  let env = Cmd.Env.info "HGD_LOG_LEVEL" in
  Arg.(value & opt string "info" & info [ "log-level" ] ~env ~docv:"LEVEL"
         ~doc:"Structured-log threshold: debug, info, warn, or error.")

let parse_bind what spec =
  if spec = "" then Ok None
  else
    match Hp_server.Netaddr.parse_hostport spec with
    | Ok hp -> Ok (Some hp)
    | Error msg -> Error (Printf.sprintf "--%s %s" what msg)

let config socket_path workers cache_capacity request_timeout compute_domains
    preload queue_limit shed_watermark max_file_bytes failpoints stats_samples
    cache_file wal_sync wal_checkpoint_every tcp http =
  let ( let* ) = Result.bind in
  let* tcp = parse_bind "tcp" tcp in
  let* http = parse_bind "http" http in
  Ok
    {
      Server.socket_path;
      workers;
      cache_capacity;
      request_timeout;
      compute_domains;
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

(* The configuration, or the message of a bad --tcp/--http.  Evaluating
   it also sets the log threshold (an unknown level warns on stderr
   under [prog] and keeps info), so every start-up line after it logs
   at the chosen level. *)
let term ~prog =
  let set_level level config =
    (match Hp_util.Log.level_of_string level with
    | Ok l -> Hp_util.Log.set_level l
    | Error msg -> Printf.eprintf "%s: %s, keeping info\n%!" prog msg);
    config
  in
  Term.(
    const set_level $ log_level
    $ (const config $ socket $ workers $ cache $ timeout $ domains $ preload
       $ queue_limit $ shed_watermark $ max_file_bytes $ failpoints
       $ stats_samples $ cache_file $ wal_sync $ wal_checkpoint_every $ tcp
       $ http))
