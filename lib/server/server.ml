module H = Hp_hypergraph.Hypergraph
module HP = Hp_hypergraph.Hypergraph_path
module HC = Hp_hypergraph.Hypergraph_core
module P = Protocol

module Log = Hp_util.Log

type config = {
  socket_path : string;
  workers : int;
  cache_capacity : int;
  request_timeout : float;
  compute_domains : int;
  preload : string list;
  queue_limit : int;
  shed_watermark : int;
  max_file_bytes : int;
  failpoints : string;
  stats_samples : int;
  cache_file : string option;
  wal_sync : Hp_wal.Wal.sync_policy;
  wal_checkpoint_every : int;
  tcp : (string * int) option;
  http : (string * int) option;
}

let default_config ~socket_path =
  {
    socket_path;
    workers = Hp_util.Parallel.recommended_domains ();
    cache_capacity = 128;
    request_timeout = 30.0;
    compute_domains = 1;
    preload = [];
    queue_limit = 128;
    shed_watermark = 64;
    max_file_bytes = 1 lsl 30;
    failpoints = "";
    stats_samples = 0;
    cache_file = None;
    wal_sync = Hp_wal.Wal.Batch;
    wal_checkpoint_every = 0;
    tcp = None;
    http = None;
  }

(* A worker job is either a whole blocking Unix-socket connection (the
   worker owns its read loop until the client leaves), or one
   already-framed request off a TCP connection (the event loop owns
   the socket; the worker only computes and hands bytes back through
   it).  Both carry the timestamp they were queued at so the worker
   can measure the queue wait. *)
type job =
  | Conn of Unix.file_descr * float
  | Parsed of parsed_job

and parsed_job = {
  pconn : Event_loop.conn;
  payload : Framer.payload;
  enqueued_at : float;
}

type t = {
  config : config;
  registry : Registry.t;
  cache : Result_cache.t;
  metrics : Metrics.t;
  trace : Trace.t;
  loop : Event_loop.t;
  tcp_port : int option;
  http_port : int option;
  started_at : float;
  stopping : bool Atomic.t;
  mutable pool : job Worker.t option;
  finalize_mutex : Mutex.t;
  mutable finalized : bool;
}

let socket_path t = t.config.socket_path
let tcp_port t = t.tcp_port
let http_port t = t.http_port

(* ---------- analysis payloads ---------- *)

let float3 = Printf.sprintf "%.3f"
let float4 = Printf.sprintf "%.4f"

let names h ids =
  String.concat " " (Array.to_list (Array.map (H.vertex_name h) ids))

let powerlaw_lines hist =
  match Hp_stats.Powerlaw.fit_loglog hist with
  | fit ->
    [
      ("powerlaw_gamma", float4 fit.gamma);
      ("powerlaw_log10_c", float4 fit.log10_c);
      ("powerlaw_r2", float4 fit.r2);
    ]
  | exception Invalid_argument _ -> [ ("powerlaw_fit", "n/a") ]

(* The deterministic seed for server-side sampled sweeps: the result
   is cached under the same key as the exact sweep, so it must at
   least be reproducible within a daemon's lifetime. *)
let sampled_sweep_seed = 2004

let stats_payload ~domains ~deadline ~samples ~metrics h =
  let summary = HP.component_summary h in
  let sweep = HP.sweep_stats () in
  (* The completed-source count feeds the kernel gauge even when the
     deadline aborts the sweep mid-flight. *)
  let diam, apl, sweep_lines =
    Fun.protect
      ~finally:(fun () ->
        Metrics.incr metrics ~by:(HP.sources_visited sweep) "kernel_bfs_sources")
      (fun () ->
        if samples > 0 && samples < H.n_vertices h then begin
          let rng = Hp_util.Prng.create sampled_sweep_seed in
          let d, a =
            HP.sampled_diameter_and_average_path ~domains ~deadline ~stats:sweep
              rng h ~samples
          in
          (d, a, [ ("sampled_sources", string_of_int samples) ])
        end
        else begin
          let d, a = HP.diameter_and_average_path ~domains ~deadline ~stats:sweep h in
          (d, a, [])
        end)
  in
  let largest =
    if Array.length summary = 0 then []
    else
      let nv, ne = summary.(0) in
      [
        ("largest_component_vertices", string_of_int nv);
        ("largest_component_hyperedges", string_of_int ne);
      ]
  in
  [
    ("vertices", string_of_int (H.n_vertices h));
    ("hyperedges", string_of_int (H.n_edges h));
    ("incidence", string_of_int (H.total_incidence h));
    ("max_vertex_degree", string_of_int (H.max_vertex_degree h));
    ("max_hyperedge_size", string_of_int (H.max_edge_size h));
    ("components", string_of_int (Array.length summary));
  ]
  @ largest
  @ [ ("diameter", string_of_int diam); ("average_path", float3 apl) ]
  @ sweep_lines
  @ powerlaw_lines (Hp_stats.Degree_dist.vertex_histogram h)

let kcore_payload ~domains ~deadline ~metrics ~cores h k =
  let result, k =
    match cores with
    | Some dec ->
      (* The mutation stream maintains this decomposition incrementally
         (Hypergraph_maintain), so the core is assembled from its
         arrays without re-peeling. *)
      let k = match k with Some k -> k | None -> dec.HC.max_core in
      Metrics.incr metrics "kcore_served_maintained";
      (HC.core_of_decomposition h dec k, k)
    | None -> (
      match k with
      | Some k -> (HC.k_core ~domains ~deadline h k, k)
      | None ->
        let k, r = HC.max_core ~domains ~deadline h in
        (r, k))
  in
  (* Kernel profiling stats used to be computed and dropped here; they
     now feed the kernel_* gauges behind METRICS. *)
  Metrics.incr metrics ~by:result.stats.peel_rounds "kernel_peel_rounds";
  Metrics.incr metrics ~by:result.stats.maximality_checks "kernel_maximality_checks";
  Metrics.incr metrics ~by:result.stats.vertices_deleted "kernel_vertices_peeled";
  Metrics.incr metrics ~by:result.stats.edges_deleted "kernel_edges_deleted";
  [
    ("k", string_of_int k);
    ("core_vertices", string_of_int (H.n_vertices result.core));
    ("core_hyperedges", string_of_int (H.n_edges result.core));
    ("members", names h result.vertex_ids);
  ]

let cover_payload h (weighting : P.weighting) r =
  let weights =
    match weighting with
    | P.Uniform -> Hp_cover.Weighting.uniform h
    | P.Degree -> Hp_cover.Weighting.degree h
    | P.Degree_squared -> Hp_cover.Weighting.degree_squared h
  in
  let trace =
    if r <= 1 then Hp_cover.Greedy.vertex_cover_trace ~weights h
    else
      Hp_cover.Greedy.solve ~weights
        ~requirements:(Hp_cover.Multicover.uniform_requirements h ~r)
        h
  in
  [
    ("weighting", P.weighting_to_string weighting);
    ("r", string_of_int r);
    ("cover_size", string_of_int (Array.length trace.cover));
    ("total_weight", float3 trace.total_weight);
    ("average_degree", float3 (Hp_cover.Cover.average_degree h trace.cover));
    ("members", names h trace.cover);
  ]

let storage_payload h =
  let r = Hp_hypergraph.Storage.measure h in
  [
    ("hypergraph_entries", string_of_int r.hypergraph_entries);
    ("clique_entries", string_of_int r.clique_entries);
    ("clique_entries_raw", string_of_int r.clique_entries_raw);
    ("star_entries", string_of_int r.star_entries);
    ("intersection_entries", string_of_int r.intersection_entries);
  ]

let powerlaw_payload h =
  let hist = Hp_stats.Degree_dist.vertex_histogram h in
  let ls = powerlaw_lines hist in
  match Hp_stats.Powerlaw.fit_mle hist with
  | mle ->
    let ks =
      match Hp_stats.Powerlaw.fit_loglog hist with
      | fit -> [ ("ks_distance", float4 (Hp_stats.Powerlaw.ks_distance hist ~gamma:fit.gamma ~dmin:1)) ]
      | exception Invalid_argument _ -> []
    in
    ls
    @ [
        ("mle_gamma", float4 mle.gamma_mle);
        ("mle_tail_n", string_of_int mle.n_tail);
      ]
    @ ks
  | exception Invalid_argument _ -> ls

let compute_payload ~domains ~deadline ~samples ~metrics ~cores h :
    P.analysis -> (string * string) list = function
  | P.Stats -> stats_payload ~domains ~deadline ~samples ~metrics h
  | P.Kcore k -> kcore_payload ~domains ~deadline ~metrics ~cores h k
  | P.Cover { weighting; r } -> cover_payload h weighting r
  | P.Storage -> storage_payload h
  | P.Powerlaw -> powerlaw_payload h

(* ---------- request dispatch ---------- *)

(* Load provenance: where the resident bytes actually came from — the
   text parse, or an mmap'd sibling snapshot — plus whether a sibling
   snapshot had to be rejected. *)
let source_kvs (e : Registry.entry) =
  match e.source with
  | Registry.Text ->
    ("source", "text")
    :: (if e.fallback then [ ("snapshot_fallback", "true") ] else [])
  | Registry.Snapshot_file snap -> [ ("source", "snapshot"); ("snapshot", snap) ]

let entry_summary (e : Registry.entry) =
  let st = e.Registry.state in
  Printf.sprintf
    "path=%s epoch=%d vertices=%d hyperedges=%d incidence=%d bytes=%d source=%s"
    e.path st.Registry.epoch
    (H.n_vertices st.Registry.hypergraph)
    (H.n_edges st.Registry.hypergraph)
    (H.total_incidence st.Registry.hypergraph)
    e.bytes
    (match e.source with
    | Registry.Text -> if e.fallback then "text(fallback)" else "text"
    | Registry.Snapshot_file snap -> "snapshot:" ^ snap)

let recovery_kvs (e : Registry.entry) =
  match e.recovery with
  | None -> []
  | Some r ->
    [
      ("wal_replayed", string_of_int r.Registry.replayed);
      ("wal_torn_bytes", string_of_int r.Registry.torn_bytes);
      ("wal_healed_skew", string_of_bool r.Registry.healed_skew);
    ]

(* Shared by protocol LOAD and --preload, so recovery counters move no
   matter which door the dataset came in through. *)
let count_load_metrics metrics (entry : Registry.entry) fresh =
  if fresh then begin
    Metrics.incr metrics "datasets_loaded";
    (match entry.Registry.source with
    | Registry.Snapshot_file _ -> Metrics.incr metrics "snapshot_loads"
    | Registry.Text -> ());
    if entry.Registry.fallback then Metrics.incr metrics "snapshot_fallbacks";
    match entry.Registry.recovery with
    | None -> ()
    | Some r ->
      Metrics.incr metrics "wal_recoveries";
      Metrics.incr metrics ~by:r.Registry.replayed "wal_replayed_total";
      if r.Registry.torn_bytes > 0 then Metrics.incr metrics "wal_torn_tails";
      if r.Registry.healed_skew then Metrics.incr metrics "wal_skew_heals"
  end

let load_reply t path : P.reply =
  match Registry.load t.registry path with
  | Ok (entry, fresh) ->
    count_load_metrics t.metrics entry fresh;
    let st = entry.Registry.state in
    P.Ok
      ([
         ("digest", entry.digest);
         ("path", entry.path);
         ("epoch", string_of_int st.Registry.epoch);
         ("vertices", string_of_int (H.n_vertices st.Registry.hypergraph));
         ("hyperedges", string_of_int (H.n_edges st.Registry.hypergraph));
         ("incidence", string_of_int (H.total_incidence st.Registry.hypergraph));
         ("bytes", string_of_int entry.bytes);
         ("fresh", string_of_bool fresh);
       ]
      @ source_kvs entry @ recovery_kvs entry)
  | Error (Read_failed msg) ->
    Metrics.incr t.metrics "io_errors";
    P.err P.Io_error msg
  | Error (Parse_failed msg) ->
    Metrics.incr t.metrics "parse_errors";
    P.err P.Parse_error msg

(* How long a rejected client should wait before retrying: scale with
   the queue depth it was turned away at, clamped to keep herds of
   clients from all sleeping for minutes. *)
let retry_hint_ms depth = min 5000 (100 * (depth + 1))

let queue_depth t =
  match t.pool with Some pool -> Worker.pending pool | None -> 0

let analyze_reply t ~t0 ~tr dataset analysis : P.reply =
  match Registry.find t.registry dataset with
  | `Missing ->
    P.err P.Unknown_dataset (Printf.sprintf "no resident dataset %S" dataset)
  | `Ambiguous ->
    P.err P.Unknown_dataset (Printf.sprintf "ambiguous digest prefix %S" dataset)
  | `Found entry ->
    (* One field read gives a consistent epoch/hypergraph pair even if
       a mutation lands mid-request; the reply is then simply for the
       epoch it names. *)
    let st = entry.Registry.state in
    let key =
      Result_cache.key ~digest:entry.digest ~epoch:st.Registry.epoch ~analysis
    in
    (match Trace.timed tr Trace.Cache (fun () -> Result_cache.find t.cache key) with
    | Some payload ->
      Trace.set_cached tr true;
      P.Ok (payload @ [ ("cached", "true") ])
    | None ->
      let depth = queue_depth t in
      if t.config.shed_watermark > 0 && depth >= t.config.shed_watermark then begin
        (* Cache hits were answered above; starting a fresh computation
           while the queue is already deep only digs the hole deeper. *)
        Metrics.incr t.metrics "shed_cacheonly";
        P.err
          ~retry_after_ms:(retry_hint_ms depth)
          P.Busy
          (Printf.sprintf
             "queue depth %d at shed watermark %d; serving cached results only"
             depth t.config.shed_watermark)
      end
      else begin
        let budget = t.config.request_timeout in
        let deadline = Hp_util.Deadline.of_timeout budget in
        match
          Trace.timed tr Trace.Compute (fun () ->
              compute_payload ~domains:t.config.compute_domains ~deadline
                ~samples:t.config.stats_samples ~metrics:t.metrics
                ~cores:st.Registry.cores st.Registry.hypergraph analysis)
        with
        | payload ->
          Trace.timed tr Trace.Cache (fun () -> Result_cache.add t.cache key payload);
          let elapsed = Unix.gettimeofday () -. t0 in
          if budget > 0.0 && elapsed > budget then begin
            (* Analyses without deadline checks (cover, storage, ...) can
               still overrun; report that after the fact as before. *)
            Metrics.incr t.metrics "timeouts";
            P.err P.Timeout
              (Printf.sprintf
                 "computed in %.1f s, over the %.1f s budget (result cached)"
                 elapsed budget)
          end
          else P.Ok (payload @ [ ("cached", "false") ])
        | exception Hp_util.Deadline.Expired ->
          Metrics.incr t.metrics "timeouts";
          P.err P.Timeout
            (Printf.sprintf "aborted after %.1f s (budget %.1f s)"
               (Unix.gettimeofday () -. t0)
               budget)
        | exception e ->
          Metrics.incr t.metrics "compute_errors";
          P.err P.Internal (Printexc.to_string e)
      end)

let unknown_dataset_reply ds kind =
  match kind with
  | `Missing -> P.err P.Unknown_dataset (Printf.sprintf "no resident dataset %S" ds)
  | `Ambiguous ->
    P.err P.Unknown_dataset (Printf.sprintf "ambiguous digest prefix %S" ds)

(* Repair accounting: cascades and full re-peels get distinct
   counters, and the region size feeds the [kcore_repair_visited]
   value histogram so the distribution (not just the total) is
   observable. *)
let count_repair t (repair : Hp_hypergraph.Hypergraph_maintain.outcome) =
  match repair with
  | Hp_hypergraph.Hypergraph_maintain.Cascade visited ->
    Metrics.incr t.metrics "kcore_cascade_repairs";
    Metrics.observe_value t.metrics "kcore_repair_visited" visited
  | Hp_hypergraph.Hypergraph_maintain.Repeel ->
    Metrics.incr t.metrics "kcore_full_repeels"

(* Apply a run of mutations on one dataset — a lone mutation request is
   a run of one — through one [Registry.mutate_batch]: one lock
   acquisition, one WAL window, one decomposition repair.  Each op gets
   the reply it would get on its own; the run's single repair is
   counted once, and the auto-checkpoint (if any) is attributed to the
   last applied item. *)
let mutation_replies t dataset ops : P.reply array =
  match Registry.mutate_batch t.registry dataset ops with
  | Ok r ->
    let applied = r.Registry.batch_applied in
    if applied > 0 then begin
      Metrics.incr t.metrics ~by:applied "mutations_total";
      Metrics.incr t.metrics ~by:applied "wal_records_appended"
    end;
    if r.Registry.batch_checkpointed then Metrics.incr t.metrics "wal_checkpoints";
    Option.iter (count_repair t) r.Registry.batch_repair;
    let last_ok = ref (-1) in
    Array.iteri (fun k item -> if Result.is_ok item then last_ok := k) r.Registry.items;
    Array.mapi
      (fun k item ->
        match item with
        | Ok (b : Registry.batch_item) ->
          let checkpointed = r.Registry.batch_checkpointed && k = !last_ok in
          P.Ok
            ([ ("epoch", string_of_int b.Registry.b_epoch) ]
            @ (match b.Registry.b_assigned with
              | Some id -> [ ("assigned", string_of_int id) ]
              | None -> [])
            @ [
                ("vertices", string_of_int b.Registry.b_n_vertices);
                ("hyperedges", string_of_int b.Registry.b_n_edges);
                ("checkpointed", string_of_bool checkpointed);
              ])
        | Error (`Invalid msg) ->
          Metrics.incr t.metrics "mutation_rejects";
          P.err P.Bad_request msg
        | Error (`Io msg) ->
          Metrics.incr t.metrics "io_errors";
          P.err P.Io_error msg)
      r.Registry.items
  | Error ((`Missing | `Ambiguous) as kind) ->
    Array.of_list (List.map (fun _ -> unknown_dataset_reply dataset kind) ops)
  | Error (`Io msg) ->
    Array.of_list
      (List.map
         (fun _ ->
           Metrics.incr t.metrics "io_errors";
           P.err P.Io_error msg)
         ops)

let checkpoint_reply t dataset : P.reply =
  match Registry.checkpoint t.registry dataset with
  | Ok info ->
    Metrics.incr t.metrics "wal_checkpoints";
    P.Ok
      [
        ("snapshot", info.Registry.snapshot_path);
        ("identity", info.Registry.snapshot_identity);
        ("bytes", string_of_int info.Registry.snapshot_bytes);
        ("epoch", string_of_int info.Registry.at_epoch);
        ("records_folded", string_of_int info.Registry.records_folded);
      ]
  | Error ((`Missing | `Ambiguous) as kind) -> unknown_dataset_reply dataset kind
  | Error (`Io msg) ->
    Metrics.incr t.metrics "io_errors";
    P.err P.Io_error msg

(* Per-dataset epoch gauges: the handle names the series, the value is
   the mutation count the dataset has absorbed. *)
let epoch_gauges t =
  List.map
    (fun (e : Registry.entry) ->
      (e.Registry.digest, float_of_int e.Registry.state.Registry.epoch))
    (Registry.list t.registry)

(* The OCaml runtime's collection counts and major-heap size, so two
   scrapes give collections per request without restarting hgd under
   OCAMLRUNPARAM. *)
let gc_gauges () =
  let s = Gc.quick_stat () in
  [
    ("gc_minor_collections", s.Gc.minor_collections);
    ("gc_major_collections", s.Gc.major_collections);
    ("gc_heap_words", s.Gc.heap_words);
    ("gc_top_heap_words", s.Gc.top_heap_words);
  ]

(* Point-in-time values the Metrics store does not own, appended to
   both exposition formats. *)
let server_gauges t =
  [
    ("cache_entries", float_of_int (Result_cache.length t.cache));
    ("cache_capacity", float_of_int (Result_cache.capacity t.cache));
    ("datasets_resident",
     float_of_int (List.length (Registry.list t.registry)));
    ("workers", float_of_int t.config.workers);
    ("queue_pending", float_of_int (queue_depth t));
    ("queue_limit", float_of_int t.config.queue_limit);
    ("uptime_seconds", Unix.gettimeofday () -. t.started_at);
    ("tcp_open_connections", float_of_int (Event_loop.connections t.loop));
  ]
  @ List.map (fun (k, v) -> (k, float_of_int v)) (gc_gauges ())

(* The one Prometheus rendering, shared by the protocol's
   [METRICS prom] and HTTP [GET /metrics]. *)
let prometheus_lines t =
  let restarts =
    match t.pool with Some pool -> Worker.restarts pool | None -> 0
  in
  Metrics.prometheus ~gauges:(server_gauges t)
    ~labeled_gauges:
      (List.map
         (fun (digest, epoch) -> ("dataset_epoch", [ ("dataset", digest) ], epoch))
         (epoch_gauges t))
    ~extra_counters:[ ("worker_restarts", restarts) ]
    (Metrics.freeze t.metrics)

let metrics_reply t (fmt : P.metrics_format) : P.reply =
  let restarts =
    match t.pool with Some pool -> Worker.restarts pool | None -> 0
  in
  match fmt with
  | P.Table ->
    P.Ok
      (Metrics.snapshot t.metrics
      @ [
          ("cache_entries", string_of_int (Result_cache.length t.cache));
          ("cache_capacity", string_of_int (Result_cache.capacity t.cache));
          ("datasets_resident", string_of_int (List.length (Registry.list t.registry)));
          ("workers", string_of_int t.config.workers);
          ("worker_restarts", string_of_int restarts);
          ("queue_pending", string_of_int (queue_depth t));
          ("queue_limit", string_of_int t.config.queue_limit);
          ("uptime_s", Printf.sprintf "%.1f" (Unix.gettimeofday () -. t.started_at));
        ]
      @ List.map (fun (k, v) -> (k, string_of_int v)) (gc_gauges ())
      @ List.map
          (fun (digest, epoch) ->
            (* Table form flattens the label into the key; the digest
               prefix is what DATASETS/EVICT accept anyway. *)
            ( "dataset_epoch_" ^ String.sub digest 0 (min 12 (String.length digest)),
              string_of_int (int_of_float epoch) ))
          (epoch_gauges t))
  | P.Prometheus ->
    (* One exposition line per payload value, keyed by line number, so
       the reply stays inside the tab-separated framing; the client
       reassembles by printing values in order. *)
    P.Ok (List.mapi (fun i l -> (string_of_int i, l)) (prometheus_lines t))

(* Daemon configuration and repair accounting.  The repair totals are
   read from the maintainers themselves (not the Metrics store), so
   they include repairs the request path never saw — WAL-replay
   recovery batches, for instance. *)
let info_reply t : P.reply =
  let module HM = Hp_hypergraph.Hypergraph_maintain in
  let maintained = ref 0 in
  let casc = ref 0 and full = ref 0 in
  let fallbacks = ref 0 and visited = ref 0 in
  List.iter
    (fun (e : Registry.entry) ->
      match e.Registry.maint with
      | None -> ()
      | Some m ->
        incr maintained;
        let s = HM.stats m in
        casc := !casc + s.HM.cascade_repairs;
        full := !full + s.HM.full_repeels;
        fallbacks := !fallbacks + s.HM.budget_fallbacks;
        visited := !visited + s.HM.repair_visited)
    (Registry.list t.registry);
  P.Ok
    [
      ("kcore_budget", string_of_int HM.default_budget);
      ("kcore_cascade_repairs", string_of_int !casc);
      ("kcore_full_repeels", string_of_int !full);
      ("kcore_budget_fallbacks", string_of_int !fallbacks);
      ("kcore_repair_visited_total", string_of_int !visited);
      ("datasets_maintained", string_of_int !maintained);
      ("datasets_resident",
       string_of_int (List.length (Registry.list t.registry)));
      ("workers", string_of_int t.config.workers);
      ("compute_domains", string_of_int t.config.compute_domains);
      ("cache_capacity", string_of_int (Result_cache.capacity t.cache));
      ("request_timeout_s", Printf.sprintf "%.1f" t.config.request_timeout);
      ("wal_checkpoint_every", string_of_int t.config.wal_checkpoint_every);
      ("max_batch_items", string_of_int P.max_batch_items);
      ("uptime_s",
       Printf.sprintf "%.1f" (Unix.gettimeofday () -. t.started_at));
    ]

let trace_reply t n : P.reply =
  let n = Option.value n ~default:10 in
  let records = Trace.slowest t.trace n in
  let entry i (r : Trace.record) =
    let p = string_of_int i ^ "." in
    [
      (p ^ "trace", string_of_int r.Trace.id);
      (p ^ "status", r.status);
      (p ^ "cached", string_of_bool r.cached);
      (p ^ "total_us", string_of_int r.total_us);
      (p ^ "queue_us", string_of_int r.queue_us);
      (p ^ "parse_us", string_of_int r.parse_us);
      (p ^ "cache_us", string_of_int r.cache_us);
      (p ^ "compute_us", string_of_int r.compute_us);
      (p ^ "write_us", string_of_int r.write_us);
      (p ^ "request", r.request);
    ]
  in
  P.Ok
    (("count", string_of_int (List.length records))
    :: List.concat (List.mapi entry records))

let verb_counter : P.request -> string = function
  | P.Load _ -> "requests_load"
  | P.Analyze { analysis = P.Stats; _ } -> "requests_stats"
  | P.Analyze { analysis = P.Kcore _; _ } -> "requests_kcore"
  | P.Analyze { analysis = P.Cover _; _ } -> "requests_cover"
  | P.Analyze { analysis = P.Storage; _ } -> "requests_storage"
  | P.Analyze { analysis = P.Powerlaw; _ } -> "requests_powerlaw"
  | P.Add_vertex _ -> "requests_addvertex"
  | P.Add_edge _ -> "requests_addedge"
  | P.Del_edge _ -> "requests_deledge"
  | P.Checkpoint _ -> "requests_checkpoint"
  | P.Datasets -> "requests_datasets"
  | P.Info -> "requests_info"
  | P.Metrics _ -> "requests_metrics"
  | P.Trace _ -> "requests_trace"
  | P.Evict _ -> "requests_evict"
  | P.Ping -> "requests_ping"
  | P.Shutdown -> "requests_shutdown"
  | P.Batch _ -> "requests_batch"

let handle_request t ~t0 ~tr (req : P.request) : P.reply =
  Metrics.incr t.metrics (verb_counter req);
  match req with
  | P.Load path -> load_reply t path
  | P.Analyze { dataset; analysis } -> analyze_reply t ~t0 ~tr dataset analysis
  | P.Checkpoint dataset -> checkpoint_reply t dataset
  | P.Datasets ->
    let entries = Registry.list t.registry in
    P.Ok (List.map (fun e -> (e.Registry.digest, entry_summary e)) entries)
  | P.Info -> info_reply t
  | P.Metrics fmt -> metrics_reply t fmt
  | P.Trace n -> trace_reply t n
  | P.Evict None ->
    let n = Result_cache.clear t.cache in
    P.Ok [ ("dropped_results", string_of_int n) ]
  | P.Evict (Some ds) -> (
    match Registry.evict t.registry ds with
    | Some entry ->
      Metrics.incr t.metrics "datasets_evicted";
      let n = Result_cache.drop_dataset t.cache ~digest:entry.digest in
      P.Ok [ ("evicted_dataset", entry.digest); ("dropped_results", string_of_int n) ]
    | None -> P.err P.Unknown_dataset (Printf.sprintf "no resident dataset %S" ds))
  | P.Ping ->
    P.Ok
      [
        ("pong", "hgd");
        ("uptime_s", Printf.sprintf "%.1f" (Unix.gettimeofday () -. t.started_at));
      ]
  | P.Shutdown -> P.Ok [ ("shutting_down", "true") ]
  | P.Add_vertex _ | P.Add_edge _ | P.Del_edge _ | P.Batch _ ->
    (* [serve_frame] serves every mutation in a run and every BATCH as
       a frame, so neither reaches the per-request dispatch. *)
    invalid_arg "Server.handle_request: mutation or BATCH outside a frame"

(* ---------- the request core ---------- *)

(* A request that names a mutation gives its dataset and WAL op;
   every maximal run of them on one dataset is served together. *)
let mutation_of_request : P.request -> (string * Hp_wal.Wal.op) option = function
  | P.Add_vertex { dataset; name } ->
    Some (dataset, Hp_wal.Wal.Add_vertex { name })
  | P.Add_edge { dataset; name; members } ->
    Some (dataset, Hp_wal.Wal.Add_edge { name; members = Array.of_list members })
  | P.Del_edge { dataset; edge } -> Some (dataset, Hp_wal.Wal.Del_edge { edge })
  | _ -> None

(* SHUTDOWN and nested BATCH are refused per item, without poisoning
   the neighbours. *)
let parse_item line =
  match P.parse_request line with
  | Ok P.Shutdown -> Error "SHUTDOWN is not allowed inside BATCH"
  | Ok (P.Batch _) -> Error "nested BATCH is not allowed"
  | r -> r

let internal_error t e =
  Metrics.incr t.metrics "compute_errors";
  P.err P.Internal (Printexc.to_string e)

(* One request of a frame.  [prefix] is the ITEM tag its reply goes
   out behind ("" for a lone request).  [clock] is its start time and
   trace: a lone request's start before its parse, a batch item's
   when the item is served. *)
type slot = {
  line : string;
  parsed : (P.request, string) result;
  prefix : string;
  clock : (float * Trace.active) option;
}

let start_clock t ~queue_us ~batched line =
  Metrics.incr t.metrics "requests_total";
  if batched then Metrics.incr t.metrics "batch_items";
  (Unix.gettimeofday (), Trace.start t.trace ~queue_us ~request:line ())

let clock_of t slot =
  match slot.clock with
  | Some c -> c
  | None -> start_clock t ~queue_us:0 ~batched:true slot.line

(* Write one reply and account it: status counters, latency, the trace
   record and its debug line.  Latency is observed after [write]
   returns, so serialization and (on the blocking path) write time are
   part of it; a failed write is still a finished — and accounted —
   request. *)
let send_reply t ~write slot (t0, tr) reply =
  let status =
    match reply with
    | P.Err { code; _ } ->
      Metrics.incr t.metrics "responses_err";
      "err-" ^ P.error_code_to_string code
    | P.Ok _ -> "ok"
  in
  let account status =
    Metrics.observe_latency t.metrics (Unix.gettimeofday () -. t0);
    let r = Trace.finish t.trace tr ~status in
    if Log.enabled Log.Debug then
      Log.debug ~comp:"server"
        ~fields:
          [
            ("trace", string_of_int r.Trace.id);
            ("status", r.status);
            ("cached", string_of_bool r.cached);
            ("total_us", string_of_int r.total_us);
            ("queue_us", string_of_int r.queue_us);
            ("parse_us", string_of_int r.parse_us);
            ("cache_us", string_of_int r.cache_us);
            ("compute_us", string_of_int r.compute_us);
            ("write_us", string_of_int r.write_us);
            ("request", r.request);
          ]
        "request"
  in
  match
    Trace.timed tr Trace.Write (fun () ->
        write (P.encode_reply ~prefix:slot.prefix reply))
  with
  | () -> account status
  | exception e ->
    account "write-error";
    raise e

let answer t ~write slot =
  let ((t0, tr) as c) = clock_of t slot in
  let reply =
    match slot.parsed with
    | Error msg ->
      Metrics.incr t.metrics "bad_requests";
      P.err P.Bad_request msg
    | Ok req -> (
      try handle_request t ~t0 ~tr req with
      | Hp_util.Fault.Killed _ as e -> raise e
      | e -> internal_error t e)
  in
  send_reply t ~write slot c reply

(* [run]: consecutive mutations on [dataset], each with its slot and
   request.  Their clocks start together, before the one apply. *)
let serve_run t ~write ~dataset run =
  let clocks =
    Array.map
      (fun (slot, req, _) ->
        Metrics.incr t.metrics (verb_counter req);
        clock_of t slot)
      run
  in
  let replies =
    try mutation_replies t dataset (Array.to_list (Array.map (fun (_, _, op) -> op) run))
    with
    | Hp_util.Fault.Killed _ as e -> raise e
    | e -> Array.map (fun _ -> internal_error t e) run
  in
  Array.iteri
    (fun k (slot, _, _) -> send_reply t ~write slot clocks.(k) replies.(k))
    run

(* Answer a frame's requests in order: every maximal run of mutations
   on one dataset is one [serve_run], everything else is answered on
   its own. *)
let serve_slots t ~write slots =
  let n = Array.length slots in
  let mutation i =
    if i >= n then None
    else
      match slots.(i).parsed with
      | Ok req ->
        Option.map
          (fun (ds, op) -> (ds, (slots.(i), req, op)))
          (mutation_of_request req)
      | Error _ -> None
  in
  let rec go i =
    if i < n then
      match mutation i with
      | None ->
        answer t ~write slots.(i);
        go (i + 1)
      | Some (ds, m) ->
        let rec extend j run =
          match mutation j with
          | Some (ds', m') when String.equal ds' ds -> extend (j + 1) (m' :: run)
          | _ ->
            serve_run t ~write ~dataset:ds (Array.of_list (List.rev run));
            go j
        in
        extend (i + 1) [ m ]
  in
  go 0

(* The one request core behind both transports: serve a frame — a
   request line, or a BATCH header with all its item lines — handing
   each reply to [write] as soon as it is computed.  The Unix path's
   [write] is a blocking write that may raise, the TCP path's is
   [Event_loop.send], which never does.  [`Stop]: the frame was a
   SHUTDOWN, already answered. *)
let serve_frame t ~write ~queue_us (payload : Framer.payload) =
  match payload with
  | Framer.Single line ->
    let ((_, tr) as c) = start_clock t ~queue_us ~batched:false line in
    let parsed = Trace.timed tr Trace.Parse (fun () -> P.parse_request line) in
    serve_slots t ~write [| { line; parsed; prefix = ""; clock = Some c } |];
    (match parsed with Ok P.Shutdown -> `Stop | _ -> `Continue)
  | Framer.Batch { header; n; items } ->
    let t0, tr = start_clock t ~queue_us ~batched:false header in
    Metrics.incr t.metrics (verb_counter (P.Batch n));
    Metrics.incr t.metrics "batch_requests";
    serve_slots t ~write
      (Array.of_list
         (List.mapi
            (fun i line ->
              { line; parsed = parse_item line; prefix = P.item_line i ^ "\n"; clock = None })
            items));
    (* The header's own record spans the whole run. *)
    Metrics.observe_latency t.metrics (Unix.gettimeofday () -. t0);
    ignore (Trace.finish t.trace tr ~status:"ok");
    `Continue

(* ---------- connection plumbing ---------- *)

(* The line cannot be parsed for a request id, so it is answered once
   and the connection dropped rather than scanned for the next
   newline.  Both transports account it here. *)
let oversized_refusal t =
  Metrics.incr t.metrics "oversized_requests";
  Metrics.incr t.metrics "responses_err";
  P.encode_reply
    (P.err P.Bad_request
       (Printf.sprintf "request line exceeds %d bytes" P.max_line_bytes))

(* Reject at the door with a machine-readable backoff hint instead of
   queueing unboundedly or hanging up mute. *)
let busy_refusal t depth =
  Metrics.incr t.metrics "busy_rejections";
  P.encode_reply
    (P.err
       ~retry_after_ms:(retry_hint_ms depth)
       P.Busy
       (Printf.sprintf "job queue full (%d pending)" depth))

(* The blocking reply write, with the chaos failpoints around it; a
   truncation fault writes a prefix and then fails, modelling a
   connection torn down mid-reply. *)
let write_reply fd s =
  Hp_util.Fault.point "server.write";
  if Hp_util.Fault.fires "server.write.trunc" then begin
    Netaddr.write_all fd (String.sub s 0 (String.length s / 2));
    raise (Hp_util.Fault.Injected "server.write.trunc")
  end
  else Netaddr.write_all fd s

let initiate_stop t =
  if not (Atomic.exchange t.stopping true) then begin
    (* Stop accepting right away; established TCP connections are
       drained when [wait] stops the loop after the workers.  Remove
       the rendezvous point now too, so a SHUTDOWN client observes the
       file gone once its reply arrives and a restarting server never
       sees its own stale socket. *)
    Event_loop.quiesce t.loop;
    try Unix.unlink t.config.socket_path with _ -> ()
  end

let serve_connection t (fd, accepted_at) =
  Metrics.incr t.metrics "connections";
  (* Accept-to-pickup wait.  It belongs to the connection, so it is
     charged to the queue-wait histogram once and to the first request's
     trace (later requests on a keep-alive connection never queued). *)
  let queue_wait = Unix.gettimeofday () -. accepted_at in
  Metrics.observe t.metrics "queue_wait" queue_wait;
  let pending_queue_us = ref (max 0 (int_of_float (queue_wait *. 1e6))) in
  (* Reads block in slices of the poll interval so a worker parked on
     an idle keep-alive connection notices shutdown promptly. *)
  (try Unix.setsockopt_float fd SO_RCVTIMEO 0.25 with _ -> ());
  let input = Framer.create () in
  (* [Framer.feed] copies, so one buffer serves every read. *)
  let buf = Bytes.create 4096 in
  let rec next_frame () =
    match Framer.frame input with
    | `Await -> (
      match Unix.read fd buf 0 (Bytes.length buf) with
      | 0 ->
        Framer.feed_eof input;
        next_frame ()
      | n ->
        Framer.feed input buf n;
        next_frame ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
        if Atomic.get t.stopping then `End else next_frame ())
    | (`Frame _ | `Oversized | `End) as r -> r
  in
  let rec loop () =
    match next_frame () with
    | `End -> ()
    | `Oversized -> write_reply fd (oversized_refusal t)
    | `Frame payload -> (
      let queue_us = !pending_queue_us in
      pending_queue_us := 0;
      match serve_frame t ~write:(write_reply fd) ~queue_us payload with
      | `Continue -> loop ()
      | `Stop -> initiate_stop t)
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      Hp_util.Fault.point "worker.job";
      try loop () with
      | Unix.Unix_error ((EPIPE | ECONNRESET | ESHUTDOWN), _, _) ->
        (* The peer vanished with a reply owed.  SIGPIPE is ignored at
           startup, so the write surfaced as EPIPE; account it and
           keep the worker alive. *)
        Metrics.incr t.metrics "client_disconnects"
      | Unix.Unix_error _ -> ())

(* One framed TCP request, computed on a worker while the event loop
   keeps the socket: replies go back through [Event_loop.send] (which
   buffers without blocking) and [finish] releases the connection for
   its next pipelined frame.  Whatever happens — including a lethal
   failpoint killing the domain — the connection must be released, or
   it would hang in-flight forever. *)
let serve_parsed t { pconn; payload; enqueued_at } =
  let queue_wait = Unix.gettimeofday () -. enqueued_at in
  Metrics.observe t.metrics "queue_wait" queue_wait;
  let queue_us = max 0 (int_of_float (queue_wait *. 1e6)) in
  match
    Hp_util.Fault.point "worker.job";
    serve_frame t ~write:(Event_loop.send t.loop pconn) ~queue_us payload
  with
  | `Continue -> Event_loop.finish t.loop pconn ~close:false
  | `Stop ->
    Event_loop.finish t.loop pconn ~close:true;
    initiate_stop t
  | exception e ->
    Event_loop.finish t.loop pconn ~close:true;
    raise e

(* Admission decisions; both run on the loop domain, so they only queue
   and return.  A Unix connection is one job: a full queue refuses it
   at the door and the loop closes it.  A TCP frame is one job: a full
   queue answers it on the open connection, which stays open —
   reconnecting through a full queue would only add load. *)
let submit t job =
  match t.pool with Some pool -> Worker.submit pool job | None -> `Stopping

let on_handoff t fd =
  match submit t (Conn (fd, Unix.gettimeofday ())) with
  | `Accepted -> `Taken
  | `Stopping ->
    (try Unix.close fd with _ -> ());
    `Taken
  | `Busy depth -> `Refused (busy_refusal t depth)

let on_loop_request t pconn : _ -> Event_loop.verdict = function
  | `Oversized -> Event_loop.Reply_close (oversized_refusal t)
  | `Frame _ when Atomic.get t.stopping -> Event_loop.Close_now
  | `Frame payload -> (
    match submit t (Parsed { pconn; payload; enqueued_at = Unix.gettimeofday () }) with
    | `Accepted -> Event_loop.Dispatched
    | `Stopping -> Event_loop.Close_now
    | `Busy depth -> Event_loop.Reply_now (busy_refusal t depth))

(* The scrape endpoints.  Deliberately tiny: two GET paths, answered
   on the loop domain from in-memory state (no dataset work, no
   workers), one request per connection. *)
let http_response t ~peer:_ lines =
  let bad () = Http.response ~status:400 "bad request\n" in
  match lines with
  | [] -> bad ()
  | request_line :: _ -> (
    match Http.parse_request_line request_line with
    | None -> bad ()
    | Some { Http.meth; path } ->
      if meth <> "GET" && meth <> "HEAD" then
        Http.response ~status:405 "method not allowed\n"
      else begin
        let head_only = meth = "HEAD" in
        match path with
        | "/healthz" ->
          if Atomic.get t.stopping then
            Http.response ~head_only ~status:503 "stopping\n"
          else Http.response ~head_only ~status:200 "ok\n"
        | "/metrics" ->
          let body = String.concat "\n" (prometheus_lines t) ^ "\n" in
          Http.response ~content_type:Http.prometheus_content_type ~head_only
            ~status:200 body
        | _ -> Http.response ~head_only ~status:404 "not found\n"
      end)

(* ---------- lifecycle ---------- *)

let start config =
  let ( let* ) = Result.bind in
  let* () = if config.workers >= 1 then Ok () else Error "workers must be >= 1" in
  let* () =
    if config.cache_capacity >= 0 then Ok () else Error "cache capacity must be >= 0"
  in
  let* () =
    if config.compute_domains >= 1 then Ok () else Error "compute domains must be >= 1"
  in
  let* () =
    if config.queue_limit >= 1 then Ok () else Error "queue limit must be >= 1"
  in
  let* () =
    if config.max_file_bytes >= 0 then Ok () else Error "max file bytes must be >= 0"
  in
  let* () =
    if config.wal_checkpoint_every >= 0 then Ok ()
    else Error "wal checkpoint interval must be >= 0"
  in
  let* () =
    if config.failpoints = "" then Ok ()
    else
      match Hp_util.Fault.configure config.failpoints with
      | Ok () -> Ok ()
      | Error msg -> Error ("failpoints: " ^ msg)
  in
  (* A client vanishing mid-reply must surface as EPIPE, not kill the
     daemon. *)
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> ());
  let metrics = Metrics.create () in
  let registry =
    Registry.create ~max_file_bytes:config.max_file_bytes
      ~wal_sync:config.wal_sync ~checkpoint_every:config.wal_checkpoint_every ()
  in
  let* () =
    List.fold_left
      (fun acc path ->
        let* () = acc in
        match Registry.load registry path with
        | Ok (entry, fresh) ->
          count_load_metrics metrics entry fresh;
          Ok ()
        | Error (Registry.Read_failed msg | Registry.Parse_failed msg) -> Error msg)
      (Ok ()) config.preload
  in
  (* Replace a stale socket file, but refuse to displace a live server. *)
  let* () =
    if not (Sys.file_exists config.socket_path) then Ok ()
    else begin
      let probe = Unix.socket PF_UNIX SOCK_STREAM 0 in
      let live =
        try
          Unix.connect probe (Unix.ADDR_UNIX config.socket_path);
          true
        with _ -> false
      in
      (try Unix.close probe with _ -> ());
      if live then Error (config.socket_path ^ ": a server is already listening")
      else begin
        (try Unix.unlink config.socket_path with _ -> ());
        Ok ()
      end
    end
  in
  let* listen_fd =
    let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
    try
      Unix.bind fd (Unix.ADDR_UNIX config.socket_path);
      Unix.listen fd 64;
      Ok fd
    with Unix.Unix_error (err, _, _) ->
      (try Unix.close fd with _ -> ());
      Error
        (Printf.sprintf "cannot bind %s: %s" config.socket_path
           (Unix.error_message err))
  in
  let release_unix () =
    (try Unix.close listen_fd with _ -> ());
    try Unix.unlink config.socket_path with _ -> ()
  in
  let* tcp_listen =
    match config.tcp with
    | None -> Ok None
    | Some (host, port) -> (
      match Netaddr.bind_listen ~host ~port ~backlog:128 with
      | Ok (fd, bound) -> Ok (Some (fd, bound))
      | Error e ->
        release_unix ();
        Error e)
  in
  let* http_listen =
    match config.http with
    | None -> Ok None
    | Some (host, port) -> (
      match Netaddr.bind_listen ~host ~port ~backlog:64 with
      | Ok (fd, bound) -> Ok (Some (fd, bound))
      | Error e ->
        release_unix ();
        Option.iter (fun (fd, _) -> try Unix.close fd with _ -> ()) tcp_listen;
        Error e)
  in
  let listeners =
    ((listen_fd, `Handoff) :: List.map (fun (fd, _) -> (fd, `Protocol)) (Option.to_list tcp_listen))
    @ List.map (fun (fd, _) -> (fd, `Http)) (Option.to_list http_listen)
  in
  let t =
    {
      config;
      registry;
      cache = Result_cache.create ~capacity:config.cache_capacity ~metrics ();
      metrics;
      loop = Event_loop.create ~metrics ~listeners ();
      tcp_port = Option.map snd tcp_listen;
      http_port = Option.map snd http_listen;
      trace = Trace.create ();
      started_at = Unix.gettimeofday ();
      stopping = Atomic.make false;
      pool = None;
      finalize_mutex = Mutex.create ();
      finalized = false;
    }
  in
  (* Warm start: replay the previous run's result cache before the
     first connection is accepted.  A missing or damaged file only
     means a cold cache. *)
  Option.iter
    (fun path ->
      match Result_cache.restore t.cache path with
      | Ok n ->
        Metrics.incr metrics ~by:n "cache_restored";
        if n > 0 then
          Log.info ~comp:"server"
            ~fields:[ ("cache_file", path); ("entries", string_of_int n) ]
            "result cache restored"
      | Error msg ->
        Log.warn ~comp:"server"
          ~fields:[ ("cache_file", path); ("error", msg) ]
          "result cache restore failed; starting cold")
    config.cache_file;
  t.pool <-
    Some
      (Worker.create ~workers:config.workers ~max_pending:config.queue_limit
         ~lethal:(function Hp_util.Fault.Killed _ -> true | _ -> false)
         ~on_exception:(fun e ->
           Metrics.incr metrics "worker_exceptions";
           Log.warn ~comp:"worker"
             ~fields:[ ("exn", Printexc.to_string e) ]
             "handler exception captured")
         (fun job ->
           match job with
           | Conn (fd, at) -> serve_connection t (fd, at)
           | Parsed p -> serve_parsed t p));
  Event_loop.start t.loop ~on_request:(on_loop_request t)
    ~on_http:(fun ~peer lines -> http_response t ~peer lines)
    ~on_handoff:(on_handoff t);
  Log.info ~comp:"server"
    ~fields:
      ([
         ("socket", config.socket_path);
         ("workers", string_of_int config.workers);
         ("queue_limit", string_of_int config.queue_limit);
         ("cache_capacity", string_of_int config.cache_capacity);
         ("compute_domains", string_of_int config.compute_domains);
         ("stats_samples", string_of_int config.stats_samples);
       ]
      @ (match (t.tcp_port, config.tcp) with
        | Some p, Some (host, _) -> [ ("tcp", Printf.sprintf "%s:%d" host p) ]
        | _ -> [])
      @ (match (t.http_port, config.http) with
        | Some p, Some (host, _) -> [ ("http", Printf.sprintf "%s:%d" host p) ]
        | _ -> [])
      @ [ ("event_backend", Event_loop.backend t.loop) ])
    "listening";
  Ok t

let request_stop = initiate_stop

let wait t =
  Mutex.lock t.finalize_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.finalize_mutex)
    (fun () ->
      if not t.finalized then begin
        (* Polled, not signalled: [request_stop] runs in signal
           handlers, where taking a lock could deadlock. *)
        while not (Atomic.get t.stopping) do
          Unix.sleepf 0.05
        done;
        Option.iter Worker.shutdown t.pool;
        (* Workers drained after the loop quiesced: every accepted TCP
           request has produced its reply bytes; stop the loop so it
           flushes outboxes and closes the remaining connections. *)
        Event_loop.stop t.loop;
        Event_loop.join t.loop;
        (* Workers are drained: no more appends are coming, so make
           every Batch/Never-policy WAL tail durable before exit. *)
        Registry.sync_wals t.registry;
        (* Workers are drained: the cache is quiescent, dump it for the
           next run. *)
        Option.iter
          (fun path ->
            match Result_cache.save t.cache path with
            | Ok n ->
              Log.info ~comp:"server"
                ~fields:[ ("cache_file", path); ("entries", string_of_int n) ]
                "result cache saved"
            | Error msg ->
              Log.warn ~comp:"server"
                ~fields:[ ("cache_file", path); ("error", msg) ]
                "result cache save failed")
          t.config.cache_file;
        t.finalized <- true;
        Log.info ~comp:"server"
          ~fields:
            [
              ( "uptime_s",
                Printf.sprintf "%.3f" (Unix.gettimeofday () -. t.started_at) );
            ]
          "stopped"
      end)

let stop t =
  initiate_stop t;
  wait t

let run config =
  match start config with
  | Error _ as e -> e
  | Ok t ->
    wait t;
    Ok ()
