(* hgd: the resident hypergraph analysis daemon.

   Thin cmdliner front end over Hp_server.Server: bind a Unix-domain
   socket (and, with --tcp, a TCP port), keep datasets resident,
   memoize analyses, answer the line protocol documented in
   lib/server/protocol.mli.  Both transports serve requests through
   one request core.  `hgtool serve` is the same server with the same
   flags (Serve_flags); this standalone binary is what a supervisor
   runs. *)

module Server = Hp_server.Server
open Cmdliner

let serve config quiet =
  let ( let* ) r f =
    match r with
    | Ok v -> f v
    | Error msg ->
      Hp_util.Log.error ~comp:"hgd" ~fields:[ ("error", msg) ] "start failed";
      1
  in
  let* config = config in
  let* t = Server.start config in
  if not quiet then begin
    Printf.printf "hgd: listening on %s (%d workers, %d cache entries)\n%!"
      config.Server.socket_path config.workers config.cache_capacity;
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

let quiet_arg =
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress startup chatter.")

let () =
  let doc = "Resident hypergraph analysis server with result caching." in
  let cmd =
    Cmd.v (Cmd.info "hgd" ~doc)
      Term.(const serve $ Serve_flags.term ~prog:"hgd" $ quiet_arg)
  in
  exit (Cmd.eval' cmd)
