(* hgtool: command-line access to the hypergraph toolkit.

   Subcommands:
     generate     write the synthetic Cellzome dataset as a .hg file
     stats        Section-2 statistics of a .hg file
     kcore        k-core / core decomposition of a .hg or .mtx file
     cover        greedy (multi)cover bait selection
     export-pajek Figure-3 style .net/.clu export
     pack         write a dataset as a binary .hgsnap snapshot
     unpack       write a .hgsnap snapshot back out as a .hg text file
     verify-snap  deep-check a snapshot (framing, checksums, identity)
     wal-dump     decode a .hgwal write-ahead log (header + records)
     checkpoint   compact a dataset's WAL into a fresh sibling snapshot
     serve        run the resident analysis server (hgd) in the foreground
     query        send one request to a running server
     metrics      fetch server counters/histograms (table or Prometheus)
     trace        show the slowest recent requests with per-stage timings

   File-inspection commands (verify-snap, wal-dump, checkpoint) follow
   the exit-code table in README.md: 0 = ok, 1 = I/O or usage error,
   2 = corrupt or invalid content. *)

module H = Hp_hypergraph.Hypergraph
module HIO = Hp_hypergraph.Hypergraph_io
module HP = Hp_hypergraph.Hypergraph_path
module HC = Hp_hypergraph.Hypergraph_core
module Snap = Hp_snapshot.Snapshot
module Wal = Hp_wal.Wal
open Cmdliner

(* README exit-code table: corruption is distinguishable from a missing
   file in scripts without parsing stderr. *)
let exit_io = 1
let exit_corrupt = 2

(* A malformed or unreadable input must exit non-zero with a one-line
   diagnostic naming the file (and line, when the parser knows it) —
   never an exception backtrace. *)
let load path =
  match
    if Filename.check_suffix path Snap.file_extension then
      match Snap.read path with
      | Ok (h, _) -> h
      | Error e -> failwith (Snap.error_to_string e)
    else if Filename.check_suffix path ".mtx" then
      Hp_data.Matrix_market.to_hypergraph (Hp_data.Matrix_market.read path)
    else HIO.read path
  with
  | h -> h
  | exception Sys_error msg ->
    Printf.eprintf "hgtool: %s\n" msg;
    exit 1
  | exception (Failure msg | Invalid_argument msg) ->
    Printf.eprintf "hgtool: %s: %s\n" path msg;
    exit 1

let input_arg =
  let doc =
    "Input hypergraph: .hg (membership lists), .mtx (MatrixMarket), or \
     .hgsnap (binary snapshot)."
  in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let seed_arg =
  let doc = "Random seed for the generator." in
  Arg.(value & opt int 2004 & info [ "seed" ] ~docv:"SEED" ~doc)

(* generate *)
let generate_cmd =
  let run seed output =
    let ds = Hp_data.Cellzome.generate ~seed () in
    HIO.write output ds.hypergraph;
    Printf.printf "wrote %s: %d proteins, %d complexes, |E| = %d\n" output
      (H.n_vertices ds.hypergraph) (H.n_edges ds.hypergraph)
      (H.total_incidence ds.hypergraph)
  in
  let output =
    Arg.(value & opt string "cellzome.hg" & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Output path.")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Write the synthetic Cellzome dataset as a .hg file.")
    Term.(const run $ seed_arg $ output)

(* stats *)
let stats_cmd =
  let run path samples domains timeout seed =
    let h = load path in
    Printf.printf "vertices: %d\nhyperedges: %d\ntotal incidence |E|: %d\n"
      (H.n_vertices h) (H.n_edges h) (H.total_incidence h);
    Printf.printf "max vertex degree: %d\nmax hyperedge size: %d\n"
      (H.max_vertex_degree h) (H.max_edge_size h);
    let summary = HP.component_summary h in
    Printf.printf "components: %d" (Array.length summary);
    if Array.length summary > 0 then begin
      let nv, ne = summary.(0) in
      Printf.printf " (largest: %d vertices, %d hyperedges)" nv ne
    end;
    print_newline ();
    let deadline = Hp_util.Deadline.of_timeout timeout in
    let sampled = samples > 0 && samples < H.n_vertices h in
    let diam, apl =
      match
        if sampled then
          HP.sampled_diameter_and_average_path ~domains ~deadline
            (Hp_util.Prng.create seed) h ~samples
        else HP.diameter_and_average_path ~domains ~deadline h
      with
      | r -> r
      | exception Hp_util.Deadline.Expired ->
        Printf.eprintf "hgtool: stats: path sweep exceeded the %.1f s budget\n"
          timeout;
        exit 1
    in
    if sampled then Printf.printf "sampled sources: %d\n" samples;
    Printf.printf "diameter: %d\naverage path length: %.3f\n" diam apl;
    let hist = Hp_stats.Degree_dist.vertex_histogram h in
    (match Hp_stats.Powerlaw.fit_loglog hist with
    | fit ->
      Printf.printf "power-law fit: log10(c) = %.3f, gamma = %.3f, R^2 = %.3f\n"
        fit.log10_c fit.gamma fit.r2
    | exception Invalid_argument _ ->
      print_endline "power-law fit: not enough distinct degrees")
  in
  let samples =
    Arg.(value & opt int 0 & info [ "samples" ] ~docv:"N"
           ~doc:"Estimate path metrics from N sampled BFS sources \
                 instead of the exact all-pairs sweep (0 = exact).")
  in
  let domains =
    Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N"
           ~doc:"Domains for the path sweep.")
  in
  let timeout =
    Arg.(value & opt float 0.0 & info [ "timeout" ] ~docv:"SECONDS"
           ~doc:"Abort the path sweep past this budget (0 = none).")
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Network statistics (paper Section 2).")
    Term.(const run $ input_arg $ samples $ domains $ timeout $ seed_arg)

(* kcore *)
let kcore_cmd =
  let run path k naive list_members =
    let h = load path in
    let strategy = if naive then HC.Naive else HC.Overlap in
    let result, k =
      match k with
      | Some k -> (HC.k_core ~strategy h k, k)
      | None ->
        let k, r = HC.max_core ~strategy h in
        (r, k)
    in
    Printf.printf "%d-core: %d vertices, %d hyperedges\n" k
      (H.n_vertices result.core) (H.n_edges result.core);
    if list_members then
      Array.iter
        (fun v -> print_endline (H.vertex_name h v))
        result.vertex_ids
  in
  let k =
    Arg.(value & opt (some int) None & info [ "k" ] ~docv:"K"
           ~doc:"Core index; the maximum core when omitted.")
  in
  let naive =
    Arg.(value & flag & info [ "naive" ]
           ~doc:"Use subset-scan maximality tests instead of overlap counts.")
  in
  let list_members =
    Arg.(value & flag & info [ "members" ] ~doc:"List the core vertices by name.")
  in
  Cmd.v
    (Cmd.info "kcore" ~doc:"Compute a k-core or the maximum core (paper Section 3).")
    Term.(const run $ input_arg $ k $ naive $ list_members)

(* cover *)
let cover_cmd =
  let run path weighting r =
    let h = load path in
    let weights =
      match weighting with
      | "uniform" -> Hp_cover.Weighting.uniform h
      | "degree" -> Hp_cover.Weighting.degree h
      | "degree2" -> Hp_cover.Weighting.degree_squared h
      | other -> failwith ("unknown weighting: " ^ other)
    in
    let trace =
      if r <= 1 then Hp_cover.Greedy.vertex_cover_trace ~weights h
      else
        Hp_cover.Greedy.solve ~weights
          ~requirements:(Hp_cover.Multicover.uniform_requirements h ~r)
          h
    in
    Printf.printf "cover: %d vertices, total weight %.1f, average degree %.3f\n"
      (Array.length trace.cover) trace.total_weight
      (Hp_cover.Cover.average_degree h trace.cover);
    Array.iter (fun v -> print_endline (H.vertex_name h v)) trace.cover
  in
  let weighting =
    Arg.(value & opt string "uniform" & info [ "w"; "weighting" ] ~docv:"SCHEME"
           ~doc:"Vertex weights: uniform, degree, or degree2.")
  in
  let r =
    Arg.(value & opt int 1 & info [ "r" ] ~docv:"R"
           ~doc:"Cover each hyperedge R times (multicover when R > 1).")
  in
  Cmd.v
    (Cmd.info "cover" ~doc:"Greedy bait selection by vertex (multi)cover (Section 4).")
    Term.(const run $ input_arg $ weighting $ r)

(* export-pajek *)
let export_cmd =
  let run path dir prefix =
    let h = load path in
    let _, r = HC.max_core h in
    let net, clu =
      Hp_data.Pajek.write_figure3 ~dir ~prefix h ~core_vertices:r.vertex_ids
        ~core_edges:r.edge_ids
    in
    Printf.printf "wrote %s and %s\n" net clu
  in
  let dir =
    Arg.(value & opt string "." & info [ "d"; "dir" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let prefix =
    Arg.(value & opt string "hypergraph" & info [ "p"; "prefix" ] ~docv:"NAME"
           ~doc:"Output file prefix.")
  in
  Cmd.v
    (Cmd.info "export-pajek"
       ~doc:"Export the bipartite drawing with the maximum core highlighted (Figure 3).")
    Term.(const run $ input_arg $ dir $ prefix)

(* components *)
let components_cmd =
  let run path =
    let h = load path in
    let summary = HP.component_summary h in
    Printf.printf "%d components\n" (Array.length summary);
    let rows =
      Array.to_list
        (Array.mapi
           (fun i (nv, ne) -> [ string_of_int (i + 1); string_of_int nv; string_of_int ne ])
           summary)
    in
    print_endline
      (Hp_util.Table.render ~header:[ "component"; "vertices"; "hyperedges" ] rows)
  in
  Cmd.v
    (Cmd.info "components" ~doc:"Connected components, largest first.")
    Term.(const run $ input_arg)

(* powerlaw *)
let powerlaw_cmd =
  let run path =
    let h = load path in
    let hist = Hp_stats.Degree_dist.vertex_histogram h in
    Array.iter
      (fun (d, c) -> Printf.printf "%d %d\n" d c)
      (Hp_stats.Degree_dist.frequency_series hist);
    (match Hp_stats.Powerlaw.fit_loglog hist with
    | fit ->
      Printf.printf
        "# least squares: log10(c) = %.3f, gamma = %.3f, R^2 = %.3f\n"
        fit.log10_c fit.gamma fit.r2;
      let mle = Hp_stats.Powerlaw.fit_mle hist in
      Printf.printf "# discrete MLE: gamma = %.3f over %d observations\n"
        mle.gamma_mle mle.n_tail;
      Printf.printf "# KS distance at LS exponent: %.4f\n"
        (Hp_stats.Powerlaw.ks_distance hist ~gamma:fit.gamma ~dmin:1)
    | exception Invalid_argument _ ->
      print_endline "# not enough distinct degrees to fit")
  in
  Cmd.v
    (Cmd.info "powerlaw"
       ~doc:"Degree frequency series (gnuplot-ready) with power-law fits.")
    Term.(const run $ input_arg)

(* mm-generate *)
let mm_generate_cmd =
  let run kind n nnz seed output =
    let rng = Hp_util.Prng.create seed in
    let m =
      match kind with
      | "banded" -> Hp_data.Matrix_market.banded rng ~n ~bandwidth:12 ~fill:0.75
      | "block" ->
        Hp_data.Matrix_market.block_structured rng ~n ~block:24 ~fill:0.8
          ~noise:(max 0 (nnz - (n * 20)))
      | "random" ->
        Hp_data.Matrix_market.random_rect rng ~rows:n ~cols:n ~nnz
      | other -> failwith ("unknown matrix kind: " ^ other)
    in
    Hp_data.Matrix_market.write output m;
    Printf.printf "wrote %s: %dx%d, %d stored entries\n" output m.rows m.cols
      (Hp_data.Matrix_market.nnz m)
  in
  let kind =
    Arg.(value & opt string "banded" & info [ "kind" ] ~docv:"KIND"
           ~doc:"Matrix structure: banded, block, or random.")
  in
  let n = Arg.(value & opt int 1000 & info [ "n" ] ~docv:"N" ~doc:"Matrix order.") in
  let nnz =
    Arg.(value & opt int 20000 & info [ "nnz" ] ~docv:"NNZ"
           ~doc:"Target nonzeros (random/block kinds).")
  in
  let output =
    Arg.(value & opt string "matrix.mtx" & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Output path.")
  in
  Cmd.v
    (Cmd.info "mm-generate" ~doc:"Write a synthetic MatrixMarket matrix.")
    Term.(const run $ kind $ n $ nnz $ seed_arg $ output)

(* reliability *)
let reliability_cmd =
  let run path r p trials seed =
    let h = load path in
    let weights = Hp_cover.Weighting.degree_squared h in
    let baits =
      if r <= 1 then Hp_cover.Greedy.vertex_cover ~weights h
      else
        (Hp_cover.Greedy.solve ~weights
           ~requirements:(Hp_cover.Multicover.uniform_requirements h ~r)
           h)
          .cover
    in
    let rng = Hp_util.Prng.create seed in
    let rel =
      Hp_data.Tap_experiment.assess rng h ~baits ~reproducibility:p ~trials
    in
    Printf.printf
      "baits: %d (degree^2 %s)\n\
       coverable complexes: %d\n\
       mean identified per run: %.1f%%\n\
       mean identified twice per run: %.1f%%\n\
       always identified: %d, never identified: %d\n"
      (Array.length baits)
      (if r <= 1 then "cover" else Printf.sprintf "%d-multicover" r)
      rel.coverable
      (100.0 *. rel.mean_identified_fraction)
      (100.0 *. rel.mean_twice_identified_fraction)
      rel.always_identified rel.never_identified
  in
  let r =
    Arg.(value & opt int 1 & info [ "r" ] ~docv:"R" ~doc:"Multicover requirement.")
  in
  let p =
    Arg.(value & opt float 0.7 & info [ "p"; "reproducibility" ] ~docv:"P"
           ~doc:"Per-pull success probability.")
  in
  let trials =
    Arg.(value & opt int 200 & info [ "trials" ] ~docv:"N" ~doc:"Monte-Carlo trials.")
  in
  Cmd.v
    (Cmd.info "reliability"
       ~doc:"Simulate TAP identification reliability for a computed bait set.")
    Term.(const run $ input_arg $ r $ p $ trials $ seed_arg)

(* dual *)
let dual_cmd =
  let run path output =
    let h = load path in
    let d = Hp_hypergraph.Hypergraph_dual.dual h in
    HIO.write output d;
    Printf.printf "wrote %s: %d vertices (complexes), %d hyperedges (proteins)\n"
      output (H.n_vertices d) (H.n_edges d)
  in
  let output =
    Arg.(value & opt string "dual.hg" & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Output path.")
  in
  Cmd.v
    (Cmd.info "dual" ~doc:"Write the dual hypergraph (complexes become vertices).")
    Term.(const run $ input_arg $ output)

(* pack *)
let pack_cmd =
  let run path output =
    let h = load path in
    let output =
      match output with Some o -> o | None -> Snap.sibling_path path
    in
    match Snap.pack h output with
    | info ->
      Printf.printf "wrote %s: %d bytes, identity %s\n" output info.Snap.bytes
        info.Snap.identity
    | exception Sys_error msg ->
      Printf.eprintf "hgtool: pack: %s\n" msg;
      exit 1
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Output path; the input's sibling $(i,.hgsnap) when omitted.")
  in
  Cmd.v
    (Cmd.info "pack"
       ~doc:"Write a dataset as a binary snapshot the server can mmap \
             without re-parsing.")
    Term.(const run $ input_arg $ output)

(* unpack *)
let unpack_cmd =
  let run path output =
    if not (Filename.check_suffix path Snap.file_extension) then begin
      Printf.eprintf "hgtool: unpack: %s: expected a %s file\n" path
        Snap.file_extension;
      exit 1
    end;
    match Snap.read path with
    | Error e ->
      Printf.eprintf "hgtool: unpack: %s: %s\n" path (Snap.error_to_string e);
      exit 1
    | Ok (h, _) ->
      let output =
        match output with
        | Some o -> o
        | None -> Filename.remove_extension path ^ ".hg"
      in
      HIO.write output h;
      Printf.printf "wrote %s: %d proteins, %d complexes, |E| = %d\n" output
        (H.n_vertices h) (H.n_edges h) (H.total_incidence h)
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Output path; the snapshot's sibling $(i,.hg) when omitted.")
  in
  Cmd.v
    (Cmd.info "unpack" ~doc:"Write a binary snapshot back out as a .hg text file.")
    Term.(const run $ input_arg $ output)

(* verify-snap *)
let verify_snap_cmd =
  let run path =
    match Snap.verify path with
    | Error (Snap.Io msg) ->
      Printf.eprintf "hgtool: verify-snap: %s\n" msg;
      exit exit_io
    | Error e ->
      Printf.eprintf "hgtool: verify-snap: %s: %s\n" path
        (Snap.error_to_string e);
      exit exit_corrupt
    | Ok snap ->
      Printf.printf "%s: ok\nidentity: %s\nvertices: %d\nhyperedges: %d\nincidence: %d\nfile bytes: %d\n"
        path snap.Snap.identity snap.Snap.n_vertices snap.Snap.n_edges
        snap.Snap.incidence snap.Snap.file_bytes;
      List.iter
        (fun (name, off, len) ->
          Printf.printf "section %-16s offset %-10d %d bytes\n" name off len)
        snap.Snap.sections
  in
  (* [string], not [file]: a missing path must reach [Snap.verify] and
     exit 1 per the README table, not die in cmdliner's converter. *)
  let input =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"Snapshot (.hgsnap) to verify.")
  in
  Cmd.v
    (Cmd.info "verify-snap"
       ~doc:"Deep-check a snapshot: framing, section checksums, CSR \
             invariants, and the content identity digest.  Exits 1 on \
             I/O failure, 2 on corrupt content.")
    Term.(const run $ input)

(* wal-dump *)
let wal_dump_cmd =
  let run path =
    match Wal.read path with
    | Error (Wal.Io msg) ->
      Printf.eprintf "hgtool: wal-dump: %s\n" msg;
      exit exit_io
    | Error e ->
      Printf.eprintf "hgtool: wal-dump: %s: %s\n" path (Wal.error_to_string e);
      exit exit_corrupt
    | Ok log ->
      Printf.printf
        "%s: ok\nhandle: %s\nbase identity: %s\nbase epoch: %d\nrecords: %d\nvalid bytes: %d\n"
        path log.Wal.handle log.Wal.base_identity log.Wal.base_epoch
        (Array.length log.Wal.records)
        log.Wal.valid_bytes;
      if log.Wal.torn_bytes > 0 then
        Printf.printf "torn tail: %d bytes (recovery truncates them)\n"
          log.Wal.torn_bytes;
      Array.iter
        (fun (r : Wal.record) ->
          match r.op with
          | Wal.Add_vertex { name } ->
            Printf.printf "epoch %-6d addvertex %s\n" r.epoch name
          | Wal.Add_edge { name; members } ->
            Printf.printf "epoch %-6d addedge %s%s\n" r.epoch name
              (Array.fold_left
                 (fun acc v -> acc ^ " " ^ string_of_int v)
                 "" members)
          | Wal.Del_edge { edge } ->
            Printf.printf "epoch %-6d deledge %d\n" r.epoch edge)
        log.Wal.records
  in
  let input =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"Write-ahead log (.hgwal) to decode.")
  in
  Cmd.v
    (Cmd.info "wal-dump"
       ~doc:"Decode a write-ahead log: header, then one line per record. \
             A torn tail is reported and tolerated (recovery truncates \
             it); mid-log corruption exits 2, I/O failure exits 1.")
    Term.(const run $ input)

(* checkpoint *)
let checkpoint_cmd =
  let run path =
    let module R = Hp_server.Registry in
    let reg = R.create () in
    match R.load reg path with
    | Error (R.Read_failed msg) ->
      Printf.eprintf "hgtool: checkpoint: %s\n" msg;
      exit exit_io
    | Error (R.Parse_failed msg) ->
      Printf.eprintf "hgtool: checkpoint: %s\n" msg;
      exit exit_corrupt
    | Ok (entry, _) -> (
      match R.checkpoint reg entry.R.digest with
      | Error (`Missing | `Ambiguous) ->
        Printf.eprintf "hgtool: checkpoint: %s: dataset vanished mid-run\n" path;
        exit exit_io
      | Error (`Io msg) ->
        Printf.eprintf "hgtool: checkpoint: %s\n" msg;
        exit exit_io
      | Ok info ->
        Printf.printf
          "wrote %s: %d bytes, identity %s\nepoch: %d\nrecords folded: %d\n"
          info.R.snapshot_path info.R.snapshot_bytes info.R.snapshot_identity
          info.R.at_epoch info.R.records_folded;
        (* Closes the fresh WAL writer so the log header is flushed. *)
        ignore (R.evict reg entry.R.digest))
  in
  let input =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"Dataset (.hg, .mtx, or .hgsnap); its sibling .hgwal, if \
                 any, is replayed first and then compacted away.")
  in
  Cmd.v
    (Cmd.info "checkpoint"
       ~doc:"Compact a dataset's write-ahead log into a fresh sibling \
             snapshot, exactly as the server's CHECKPOINT verb does, so \
             recovery cost drops to zero.  Exits 1 on I/O failure, 2 on \
             corrupt input.")
    Term.(const run $ input)

(* serve *)
let socket_arg =
  Arg.(value & opt string "hgd.sock" & info [ "s"; "socket" ] ~docv:"PATH"
         ~doc:"Unix-domain socket of the server.")

let serve_cmd =
  let run config =
    let ( let* ) r f =
      match r with
      | Ok v -> f v
      | Error msg ->
        Printf.eprintf "hgtool: serve: %s\n" msg;
        exit 1
    in
    let* config = config in
    let* t = Hp_server.Server.start config in
    Printf.printf "hgtool: serving on %s (%d workers, %d cache entries)\n%!"
      config.Hp_server.Server.socket_path config.workers config.cache_capacity;
    Option.iter
      (fun p -> Printf.printf "hgtool: tcp protocol on port %d\n%!" p)
      (Hp_server.Server.tcp_port t);
    Option.iter
      (fun p -> Printf.printf "hgtool: http /metrics + /healthz on port %d\n%!" p)
      (Hp_server.Server.http_port t);
    let stop_signal _ = Hp_server.Server.request_stop t in
    ignore (Sys.signal Sys.sigint (Sys.Signal_handle stop_signal));
    ignore (Sys.signal Sys.sigterm (Sys.Signal_handle stop_signal));
    Hp_server.Server.wait t
  in
  Cmd.v
    (Cmd.info "serve" ~doc:"Run the resident analysis server in the foreground.")
    Term.(const run $ Serve_flags.term ~prog:"hgtool: serve")

(* The one-shot commands and `query` target the Unix socket by
   default; --tcp HOST:PORT aims them at a TCP server instead — same
   protocol, so everything downstream is transport-blind. *)
let tcp_target_arg =
  Arg.(value & opt string "" & info [ "tcp" ] ~docv:"HOST:PORT"
         ~doc:"Target a server over TCP instead of the Unix socket.")

let resolve_addr ~what ~socket ~tcp =
  if tcp = "" then Hp_server.Client.Unix_path socket
  else
    match Hp_server.Netaddr.parse_hostport tcp with
    | Ok (host, port) -> Hp_server.Client.Tcp { host; port }
    | Error msg ->
      Printf.eprintf "hgtool: %s: --tcp %s\n" what msg;
      exit 1

(* Shared plumbing for the one-shot observability commands: send a
   single request, fail loudly on transport or server errors, hand the
   payload to the renderer. *)
let one_shot ~what ~addr req render =
  match
    Hp_server.Client.with_connection_addr addr (fun c ->
        Hp_server.Client.request c req)
  with
  | Error msg ->
    Printf.eprintf "hgtool: %s: %s\n" what msg;
    exit 1
  | Ok (Hp_server.Protocol.Err { code; message; _ }) ->
    Printf.eprintf "hgtool: %s: %s: %s\n" what
      (Hp_server.Protocol.error_code_to_string code)
      message;
    exit 1
  | Ok (Hp_server.Protocol.Ok kvs) -> render kvs

(* metrics *)
let metrics_cmd =
  let run socket tcp format =
    let addr = resolve_addr ~what:"metrics" ~socket ~tcp in
    let fmt =
      match String.lowercase_ascii format with
      | "table" | "text" -> Hp_server.Protocol.Table
      | "prom" | "prometheus" -> Hp_server.Protocol.Prometheus
      | other ->
        Printf.eprintf "hgtool: metrics: unknown format %S (table or prom)\n" other;
        exit 1
    in
    one_shot ~what:"metrics" ~addr (Hp_server.Protocol.Metrics fmt) (fun kvs ->
        match fmt with
        | Hp_server.Protocol.Prometheus ->
          (* The exposition lines arrive keyed by line number, already
             in order; printing the values verbatim reassembles the
             text format a Prometheus scraper expects. *)
          List.iter (fun (_, line) -> print_endline line) kvs
        | Hp_server.Protocol.Table ->
          print_endline
            (Hp_util.Table.render ~header:[ "metric"; "value" ]
               (List.map (fun (k, v) -> [ k; v ]) kvs)))
  in
  let format =
    Arg.(value & opt string "table" & info [ "format" ] ~docv:"FORMAT"
           ~doc:"Output format: $(i,table) (key/value) or $(i,prom) \
                 (Prometheus text exposition).")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"Fetch a running server's counters and latency histograms.")
    Term.(const run $ socket_arg $ tcp_target_arg $ format)

(* trace *)
let trace_cmd =
  let run socket tcp n =
    let addr = resolve_addr ~what:"trace" ~socket ~tcp in
    one_shot ~what:"trace" ~addr (Hp_server.Protocol.Trace n) (fun kvs ->
        let count =
          match List.assoc_opt "count" kvs with
          | Some c -> (try int_of_string c with _ -> 0)
          | None -> 0
        in
        if count = 0 then print_endline "no traced requests yet"
        else begin
          let field i name =
            Option.value ~default:"-"
              (List.assoc_opt (Printf.sprintf "%d.%s" i name) kvs)
          in
          let cols =
            [ "trace"; "status"; "cached"; "total_us"; "queue_us"; "parse_us";
              "cache_us"; "compute_us"; "write_us"; "request" ]
          in
          print_endline
            (Hp_util.Table.render ~header:cols
               (List.init count (fun i -> List.map (field i) cols)))
        end)
  in
  let n =
    Arg.(value & opt (some int) None & info [ "n" ] ~docv:"N"
           ~doc:"Show the N slowest retained requests (server default 10).")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Show the slowest recent requests with per-stage timings \
             (queue, parse, cache, compute, write).")
    Term.(const run $ socket_arg $ tcp_target_arg $ n)

(* query *)
let print_reply_stdout = function
  | Hp_server.Protocol.Err { code; message; retry_after_ms } ->
    let hint =
      match retry_after_ms with
      | Some ms -> Printf.sprintf " (retry after %d ms)" ms
      | None -> ""
    in
    Printf.printf "error\t%s: %s%s\n"
      (Hp_server.Protocol.error_code_to_string code) message hint;
    false
  | Hp_server.Protocol.Ok kvs ->
    List.iter (fun (k, v) -> Printf.printf "%s\t%s\n" k v) kvs;
    true

(* One request line per stdin line, shipped as a single pipelined
   BATCH; items are printed as they stream back, separated by their
   "item <i>" header so the output stays machine-splittable. *)
let run_batch_query addr =
  let lines = ref [] in
  (try
     while true do
       let line = String.trim (input_line stdin) in
       if line <> "" then lines := line :: !lines
     done
   with End_of_file -> ());
  let lines = List.rev !lines in
  if lines = [] then begin
    Printf.eprintf "hgtool: query --batch: no request lines on stdin\n";
    exit 1
  end;
  let outcome =
    Hp_server.Client.with_connection_addr addr (fun c ->
        Hp_server.Client.batch_lines c lines)
  in
  match outcome with
  | Error msg ->
    Printf.eprintf "hgtool: query: %s\n" msg;
    exit 1
  | Ok (Hp_server.Client.Refused reply) ->
    ignore (print_reply_stdout reply);
    exit 1
  | Ok (Hp_server.Client.Items items) ->
    let all_ok = ref true in
    List.iteri
      (fun i item ->
        Printf.printf "item\t%d\n" i;
        match item with
        | Ok reply -> if not (print_reply_stdout reply) then all_ok := false
        | Error msg ->
          Printf.printf "error\ttransport: %s\n" msg;
          all_ok := false)
      items;
    if not !all_ok then exit 1

let query_cmd =
  let run socket tcp retries timeout batch words =
    let addr = resolve_addr ~what:"query" ~socket ~tcp in
    if batch then begin
      if words <> [] then begin
        Printf.eprintf
          "hgtool: query: --batch reads request lines from stdin; drop the \
           positional request\n";
        exit 1
      end;
      run_batch_query addr;
      exit 0
    end;
    if words = [] then begin
      Printf.eprintf "hgtool: query: missing request (e.g. PING, LOAD file, STATS digest)\n";
      exit 1
    end;
    let line = String.concat " " words in
    let outcome =
      (* A well-formed request goes through the retrying caller, which
         honours ERR busy backoff hints and rides out a daemon restart.
         A malformed line is still sent verbatim, once, so the server
         answers it itself. *)
      match Hp_server.Protocol.parse_request line with
      | Ok req ->
        let policy =
          { Hp_server.Client.default_policy with retries; timeout }
        in
        Hp_server.Client.call_addr ~policy ~addr req
      | Error _ ->
        Hp_server.Client.with_connection_addr addr (fun c ->
            Hp_server.Client.request_line c line)
    in
    match outcome with
    | Error msg ->
      Printf.eprintf "hgtool: query: %s\n" msg;
      exit 1
    | Ok (Hp_server.Protocol.Err { code; message; retry_after_ms }) ->
      let hint =
        match retry_after_ms with
        | Some ms -> Printf.sprintf " (retry after %d ms)" ms
        | None -> ""
      in
      Printf.eprintf "error: %s: %s%s\n"
        (Hp_server.Protocol.error_code_to_string code) message hint;
      exit 1
    | Ok (Hp_server.Protocol.Ok kvs) ->
      List.iter (fun (k, v) -> Printf.printf "%s\t%s\n" k v) kvs
  in
  let retries =
    Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N"
           ~doc:"Retry busy or unreachable servers up to N times with \
                 jittered exponential backoff.")
  in
  let timeout =
    Arg.(value & opt float 0.0 & info [ "timeout" ] ~docv:"SECONDS"
           ~doc:"Per-attempt I/O timeout (0 = none).")
  in
  let batch =
    Arg.(value & flag & info [ "batch" ]
           ~doc:"Read one request line per stdin line and send them all as a \
                 single pipelined BATCH over one connection; replies stream \
                 back per item, each preceded by an `item\\t<i>' line.")
  in
  let words =
    Arg.(value & pos_all string [] & info [] ~docv:"REQUEST"
           ~doc:"Request verb and arguments, as one protocol line.")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Send one request (LOAD, STATS, KCORE, COVER, STORAGE, POWERLAW, \
             ADDVERTEX, ADDEDGE, DELEDGE, CHECKPOINT, DATASETS, METRICS, \
             TRACE, EVICT, PING, SHUTDOWN) to a running server, or a \
             pipelined batch with $(b,--batch).")
    Term.(const run $ socket_arg $ tcp_target_arg $ retries $ timeout $ batch
          $ words)

(* loadgen *)
let loadgen_cmd =
  let module S = Hp_server.Server in
  let module L = Hp_server.Loadgen in
  let module C = Hp_server.Client in
  let iso8601 t =
    let tm = Unix.gmtime t in
    Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
      tm.Unix.tm_sec
  in
  let print_phase (p : L.phase) =
    Printf.printf
      "%-8s %3d conns  %6d ok  %4d failed  %7.1f req/s  p50 %.2f ms  p99 %.2f ms  max %.2f ms\n"
      p.L.label p.L.connections p.L.requests p.L.failures p.L.throughput_rps
      p.L.latency.L.p50_ms p.L.latency.L.p99_ms p.L.latency.L.max_ms;
    if p.L.mutations > 0 || p.L.mutation_races > 0 then
      Printf.printf "%-8s %d mutations applied, %d lost races\n" ""
        p.L.mutations p.L.mutation_races
  in
  let finish ~out ~check_tcp report =
    print_phase report.L.single;
    print_phase report.L.loaded;
    Printf.printf "scaleup: %.2fx\n%!" report.L.scaleup;
    if out <> "" then begin
      let dir = Filename.dirname out in
      if dir <> "." && not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let oc = open_out out in
      output_string oc (L.to_json ~generated_at:(iso8601 (Unix.time ())) report);
      close_out oc;
      Printf.printf "wrote %s\n%!" out
    end;
    if check_tcp then begin
      let baseline_file = Filename.concat "bench" "tcp_baseline.json" in
      let baseline =
        match In_channel.with_open_text baseline_file In_channel.input_all with
        | s -> s
        | exception Sys_error msg ->
          Printf.eprintf "hgtool: loadgen: --check-tcp: %s\n" msg;
          exit 1
      in
      match L.check ~baseline report with
      | Ok () -> Printf.printf "tcp loadgen guard: ok\n%!"
      | Error msg ->
        Printf.eprintf "hgtool: loadgen: %s\n" msg;
        exit 1
    end
  in
  let run tcp self_host connections requests dataset stalled seed mutate out
      check_tcp =
    let measure ~host ~port ~dataset ~cleanup =
      let cfg =
        {
          (L.default_config ~host ~port) with
          L.connections;
          requests_per_conn = requests;
          dataset;
          stalled;
          seed;
          mutate;
        }
      in
      let outcome = L.run cfg in
      cleanup ();
      match outcome with
      | Error msg ->
        Printf.eprintf "hgtool: loadgen: %s\n" msg;
        exit 1
      | Ok report -> finish ~out ~check_tcp report
    in
    if self_host then begin
      (* Spin a private in-process server on an ephemeral TCP port:
         what the tcp-load CI job runs, and a one-command smoke test
         locally.  Admission control is opened wide — the guard wants
         zero failures, so the server must never answer ERR busy. *)
      let socket = Filename.temp_file "hgd-loadgen" ".sock" in
      (try Sys.remove socket with Sys_error _ -> ());
      let config =
        {
          (S.default_config ~socket_path:socket) with
          S.queue_limit = 4096;
          shed_watermark = 0;
          request_timeout = 60.0;
          tcp = Some ("127.0.0.1", 0);
        }
      in
      match S.start config with
      | Error msg ->
        Printf.eprintf "hgtool: loadgen: self-host: %s\n" msg;
        exit 1
      | Ok t ->
        let port =
          match S.tcp_port t with
          | Some p -> p
          | None ->
            Printf.eprintf "hgtool: loadgen: self-host: no TCP port bound\n";
            exit 1
        in
        let digest =
          match dataset with
          | "" -> None
          | file -> (
            (* LOAD over the TCP path itself; the digest keys the
               analysis mix. *)
            match
              C.with_connection_addr (C.Tcp { host = "127.0.0.1"; port })
                (fun c -> C.request c (Hp_server.Protocol.Load file))
            with
            | Ok (Hp_server.Protocol.Ok kvs) -> List.assoc_opt "digest" kvs
            | Ok (Hp_server.Protocol.Err { message; _ }) ->
              Printf.eprintf "hgtool: loadgen: LOAD %s: %s\n" file message;
              S.stop t;
              exit 1
            | Error msg ->
              Printf.eprintf "hgtool: loadgen: LOAD %s: %s\n" file msg;
              S.stop t;
              exit 1)
        in
        measure ~host:"127.0.0.1" ~port ~dataset:digest
          ~cleanup:(fun () -> S.stop t)
    end
    else
      match tcp with
      | "" ->
        Printf.eprintf
          "hgtool: loadgen: need --tcp HOST:PORT or --self-host\n";
        exit 1
      | spec -> (
        match Hp_server.Netaddr.parse_hostport spec with
        | Error msg ->
          Printf.eprintf "hgtool: loadgen: --tcp %s\n" msg;
          exit 1
        | Ok (host, port) ->
          measure ~host ~port
            ~dataset:(if dataset = "" then None else Some dataset)
            ~cleanup:(fun () -> ()))
  in
  let connections =
    Arg.(value & opt int 64 & info [ "c"; "connections" ] ~docv:"N"
           ~doc:"Concurrent client connections in the loaded phase.")
  in
  let requests =
    Arg.(value & opt int 50 & info [ "n"; "requests" ] ~docv:"N"
           ~doc:"Requests issued per connection.")
  in
  let dataset =
    Arg.(value & opt string "" & info [ "dataset" ] ~docv:"ARG"
           ~doc:"Aim KCORE/STATS/POWERLAW at this dataset: a resident \
                 digest with $(b,--tcp), a file to LOAD with \
                 $(b,--self-host).  Empty keeps the mix to \
                 PING/DATASETS/batches.")
  in
  let stalled =
    Arg.(value & opt int 0 & info [ "stalled" ] ~docv:"N"
           ~doc:"Extra connections that send half a request line and hold \
                 the socket for the whole loaded phase (head-of-line \
                 blocking pressure; excluded from throughput).")
  in
  let seed =
    Arg.(value & opt int 0x10ad & info [ "seed" ] ~docv:"SEED"
           ~doc:"Workload-mix PRNG seed.")
  in
  let mutate =
    Arg.(value & opt float 0.0 & info [ "mutate" ] ~docv:"FRAC"
           ~doc:"Make this fraction of each client's requests \
                 ADDVERTEX/ADDEDGE/DELEDGE mutations against \
                 $(b,--dataset), exercising the WAL and incremental \
                 k-core repair under load.  Mutations rejected by \
                 write-write races (stale DELEDGE ids) are reported as \
                 $(i,mutation_races), not failures.  0 = read-only mix.")
  in
  let self_host =
    Arg.(value & flag & info [ "self-host" ]
           ~doc:"Start a private in-process server on an ephemeral port and \
                 load-test that, instead of targeting $(b,--tcp).")
  in
  let out =
    Arg.(value & opt string "_artifacts/BENCH_tcp.json" & info [ "o"; "out" ]
           ~docv:"FILE"
           ~doc:"Write the JSON report here (empty = stdout summary only).")
  in
  let check_tcp =
    Arg.(value & flag & info [ "check-tcp" ]
           ~doc:"CI guard: fail unless every request succeeded and the \
                 measured concurrency scaleup is at least half the \
                 committed baseline in bench/tcp_baseline.json.")
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Drive a server's TCP front end with many concurrent clients \
             running a mixed KCORE/STATS/BATCH/PING workload; report \
             throughput and latency percentiles, and optionally guard \
             them against the committed baseline.")
    Term.(const run $ tcp_target_arg $ self_host $ connections $ requests
          $ dataset $ stalled $ seed $ mutate $ out $ check_tcp)

let () =
  let info = Cmd.info "hgtool" ~doc:"Hypergraph toolkit for protein complex networks." in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            generate_cmd; stats_cmd; kcore_cmd; cover_cmd; export_cmd;
            components_cmd; powerlaw_cmd; mm_generate_cmd; reliability_cmd; dual_cmd;
            pack_cmd; unpack_cmd; verify_snap_cmd; wal_dump_cmd; checkpoint_cmd;
            serve_cmd; query_cmd; metrics_cmd; trace_cmd; loadgen_cmd;
          ]))
