(* hgbench: the hgd benchmark (see README.md in this directory).

   One run = one workload at one seed.  The run generates its datasets
   and request streams from the seed, starts the built hgd binary fresh
   on freshly written files, drives it from this process over
   Hp_server.Client with a fixed number of closed-loop connections,
   checks every reply, and prints one JSON line.  With --trace 1 it
   instead measures the per-layer metrics: deltas of hgd's own
   METRICS/INFO, /proc/<hgd pid>, the OCaml runtime's exit report, and
   spans this process records around its calls into the library. *)

module P = Hp_server.Protocol
module C = Hp_server.Client
module H = Hp_hypergraph.Hypergraph
module HM = Hp_hypergraph.Hypergraph_maintain
module Wal = Hp_wal.Wal
module Live = Hp_wal.Live
module Registry = Hp_server.Registry
module Result_cache = Hp_server.Result_cache
module Metrics = Hp_server.Metrics
module Trace = Hp_server.Trace
module Snapshot = Hp_snapshot.Snapshot
module M = Hgb.Measure
module O = Hgb.Oracle
module Mirror = Hgb.Mirror
module Dyn = Hp_util.Dynarray

let now = Unix.gettimeofday

(* Round trips are timed on the monotonic clock in nanoseconds: a
   cached read takes ~30 us, where gettimeofday's microsecond steps
   would be a 3% quantum. *)
let clock () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* ---------- process hygiene ---------- *)

let run_dir = ref ""
let live_pids : int list ref = ref []

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error _ -> ()

(* Whatever way the run ends, no hgd outlives it and no file stays. *)
let cleanup () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live_pids;
  live_pids := [];
  if !run_dir <> "" then begin
    rm_rf !run_dir;
    (* Shared by concurrent runs; removed once the last one is done. *)
    (try Unix.rmdir (Filename.dirname !run_dir) with Unix.Unix_error _ -> ());
    run_dir := ""
  end

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("hgbench: " ^ s);
      exit 2)
    fmt

let read_all path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      go ()
  in
  Fun.protect ~finally:(fun () -> Unix.close fd) go;
  Buffer.contents buf

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* ---------- datasets ---------- *)

type dataset = {
  role : string;  (* "sparse" (a proteome) or "dense" (a matrix) *)
  file : string;  (* name hgd loads it under *)
  bytes : string; (* written fresh for every hgd *)
  digest : string;(* hgd's handle for it *)
  h : H.t;        (* what hgd holds once it has loaded [bytes] *)
}

let cellzome ~seed =
  let bytes =
    Hp_hypergraph.Hypergraph_io.to_string (Hp_data.Cellzome.generate ~seed ()).hypergraph
  in
  { role = "sparse"; file = "cellzome.hg"; bytes; digest = Hp_util.Md5.string bytes;
    h = Hp_hypergraph.Hypergraph_io.of_string bytes }

(* The smallest of the Table-1 stand-ins: dense rows (mean hyperedge
   size ~19 against ~2 for Cellzome), so its peel does far more
   maximality checking per vertex than the proteome's. *)
let dense_matrix ~seed =
  let m = List.assoc "bfw398-like" (Hp_data.Matrix_market.synthetic_suite ~seed ()) in
  let bytes = Hp_data.Matrix_market.to_string m in
  { role = "dense"; file = "bfw398.mtx"; bytes; digest = Hp_util.Md5.string bytes;
    h = Hp_data.Matrix_market.to_hypergraph (Hp_data.Matrix_market.parse bytes) }

(* Four times the Cellzome calibration: ~5.4k proteins, one giant
   overlap component.  Packed to .hgsnap, the form hgd mmaps. *)
let proteome_scale = 4.0

let proteome ~seed ~tmp_dir =
  let params = Hp_data.Proteome_gen.scaled Hp_data.Proteome_gen.cellzome_params proteome_scale in
  let p = Hp_data.Proteome_gen.generate (Hp_util.Prng.create seed) params in
  let path = Filename.concat tmp_dir "proteome.hgsnap" in
  let info = Snapshot.pack p.hypergraph path in
  let bytes = read_all path in
  let h =
    match Snapshot.read path with
    | Ok (h, _) -> h
    | Error e -> die "snapshot: %s" (Snapshot.error_to_string e)
  in
  Sys.remove path;
  { role = "sparse"; file = "proteome.hgsnap"; bytes; digest = info.Snapshot.identity; h }

(* ---------- request streams ---------- *)

type item = Read of P.request | Batch of P.request list

let item_lines = function
  | Read r -> [ P.request_line r ]
  | Batch rs -> P.request_line (P.Batch (List.length rs)) :: List.map P.request_line rs

(* Every request kind appears equally often in each cycle, in a seeded
   order, so a run's mix never drifts and the median sits inside one
   kind's cluster, not between two. *)
let shuffled_cycle rng kinds ~per_kind =
  let a = Array.concat (List.map (fun k -> Array.make per_kind k) kinds) in
  Hp_util.Prng.shuffle rng a;
  a

let analyze dataset analysis = P.Analyze { dataset; analysis }
let kcore_max ds = analyze ds (P.Kcore None)
let cover2 ds = analyze ds (P.Cover { weighting = P.Degree_squared; r = 2 })

(* unix_reads / tcp_reads: KCORE max and k=2, STATS, COVER degree2
   r=2, POWERLAW, PING, and a 3-item BATCH of the analyses. *)
let cached_mix rng ds =
  let analyses =
    [| kcore_max ds; analyze ds (P.Kcore (Some 2)); analyze ds P.Stats; cover2 ds;
       analyze ds P.Powerlaw |]
  in
  let kinds = List.init 7 Fun.id in
  Array.map
    (fun k ->
      if k < 5 then Read analyses.(k)
      else if k = 5 then Read P.Ping
      else begin
        let idx = Array.init 5 Fun.id in
        Hp_util.Prng.shuffle rng idx;
        Batch (List.map (fun i -> analyses.(i)) [ idx.(0); idx.(1); idx.(2) ])
      end)
    (shuffled_cycle rng kinds ~per_kind:64)

(* cold_analyses: the paper's suite on every resident dataset as one
   BATCH.  Every request is the same suite (k = 2 for the fixed-k
   core): with the cache off each one is computed afresh, and a k drawn
   per request would give the latency one mode per k. *)
let suite ds =
  [ kcore_max ds; analyze ds (P.Kcore (Some 2)); analyze ds P.Stats; cover2 ds;
    analyze ds P.Powerlaw ]

let cold_mix dss = [| Batch (List.concat_map (fun d -> suite d.digest) dss) |]

(* mixed_writes reader: KCORE max and k=2, served from the maintained
   decomposition. *)
let core_reads rng ds =
  shuffled_cycle rng [ Read (kcore_max ds); Read (analyze ds (P.Kcore (Some 2))) ] ~per_kind:32

let stream_digest items =
  Hp_util.Md5.string (String.concat "\n" (List.concat_map item_lines (Array.to_list items)))

let ops_digest ~dataset ops =
  Hp_util.Md5.string
    (String.concat "\n"
       (Array.to_list
          (Array.map (fun op -> P.request_line (Mirror.request_of_op ~dataset op)) ops)))

(* ---------- workloads ---------- *)

type transport = Unix_socket | Tcp

type workload = {
  name : string;
  transport : transport;
  cache : int;             (* hgd --cache *)
  datasets : dataset list; (* loaded in this order *)
  readers : item array array;  (* one cyclic stream per read connection *)
  writer : bool;           (* a writer connection streams rewiring ops *)
  target : dataset;        (* what the writer (or the write probe) mutates *)
  ops : Wal.op array;      (* the writer's (or the write probe's) stream *)
  read_tail : float;       (* fixed tail percentiles, see README.md *)
  write_tail : float;
  windows : int;           (* slices the tail is estimated over *)
  rate_windows : int;      (* slices throughput_rps is the median of *)
  traced_counts : int * int * int;
      (* traced run: requests per read connection, writer ops, singles
         per transport *)
}

(* Writes the stream may need: far more than any run completes at the
   write rates measured on a 2-core host (a run that exhausts it stops
   writing and says so). *)
let max_ops ~seconds = 2000 + int_of_float (seconds *. 6000.0)

(* Timed ops of each of the write probe's two passes.  Its tail is p90
   over both (90 beyond), not p99: one op in 32 pays hgd's batched WAL
   fsync, so p99, and p95 at the edge of that mode, follow the shared
   disk rather than hgd. *)
let probe_writes = 450

let make_workload ~name ~seed ~seconds ~tmp_dir =
  let rng = Hp_util.Prng.create (seed * 7919 + 17) in
  let scale n = max 1 (int_of_float (float_of_int n *. seconds /. 10.0)) in
  let probe_ops d = Mirror.rewiring_ops ~seed ~n:(probe_writes + 1) d.h in
  match name with
  | "unix_reads" ->
    let d = cellzome ~seed in
    { name; transport = Unix_socket; cache = 128; datasets = [ d ];
      readers = [| cached_mix rng d.digest |]; writer = false; target = d; ops = probe_ops d;
      read_tail = 99.9; write_tail = 90.0; windows = 4; rate_windows = 10;
      traced_counts = (scale 20000, 0, scale 4000) }
  | "tcp_reads" ->
    let d = cellzome ~seed in
    { name; transport = Tcp; cache = 128; datasets = [ d ];
      readers = [| cached_mix rng d.digest; cached_mix rng d.digest |]; writer = false;
      target = d; ops = probe_ops d; read_tail = 99.9; write_tail = 90.0; windows = 4; rate_windows = 10;
      traced_counts = (scale 8000, 0, scale 4000) }
  | "cold_analyses" ->
    let s = cellzome ~seed and dn = dense_matrix ~seed in
    { name; transport = Unix_socket; cache = 0; datasets = [ s; dn ];
      readers = [| cold_mix [ s; dn ] |]; writer = false; target = s; ops = probe_ops s;
      read_tail = 90.0; write_tail = 90.0; windows = 1; rate_windows = 1;
      traced_counts = (scale 24, 0, scale 60) }
  | "mixed_writes" ->
    let d = proteome ~seed ~tmp_dir in
    { name; transport = Unix_socket; cache = 0; datasets = [ d ];
      readers = [| core_reads rng d.digest |]; writer = true; target = d;
      ops = Mirror.rewiring_ops ~seed ~n:(max_ops ~seconds) d.h;
      read_tail = 90.0; write_tail = 90.0; windows = 4; rate_windows = 5;
      traced_counts = (scale 100, scale 200, scale 100) }
  | other -> die "unknown workload %S (unix_reads, tcp_reads, cold_analyses, mixed_writes)" other

(* ---------- one hgd process ---------- *)

type hgd = {
  pid : int;
  dir : string;
  sock : string;
  mutable port : int;  (* TCP port; 0 when not serving TCP *)
  mutable sent : int;  (* requests this process has been sent *)
}

let instances = ref 0

let hgd_args wl ~tcp =
  [ "-w"; "2"; "--cache"; string_of_int wl.cache; "--wal-sync"; "batch" ]
  @ if tcp then [ "--tcp"; "127.0.0.1:0" ] else []

let spawn ~bin ~wl ~tcp ~gc_report =
  incr instances;
  let dir = Filename.concat !run_dir (Printf.sprintf "i%d" !instances) in
  Unix.mkdir dir 0o755;
  List.iter (fun d -> write_file (Filename.concat dir d.file) d.bytes) wl.datasets;
  let out name =
    Unix.openfile (Filename.concat dir name) [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let fo = out "hgd.out" and fe = out "hgd.err" in
  let env =
    List.filter
      (fun s -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" s))
      (Array.to_list (Unix.environment ()))
  in
  let env = if gc_report then "OCAMLRUNPARAM=v=0x400" :: env else env in
  let sock = Filename.concat dir "hgd.sock" in
  let argv = Array.of_list ((bin :: [ "-s"; sock ]) @ hgd_args wl ~tcp) in
  let pid = Unix.create_process_env bin argv (Array.of_list env) Unix.stdin fo fe in
  live_pids := pid :: !live_pids;
  Unix.close fo;
  Unix.close fe;
  { pid; dir; sock; port = 0; sent = 0 }

let exited inst =
  match Unix.waitpid [ Unix.WNOHANG ] inst.pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error _ -> true

(* Readiness is a tight connect retry: no sleep, so set-up time is
   hgd's own start-up, load and warm-up work. *)
let connect_ready inst =
  let deadline = now () +. 60.0 in
  let rec go () =
    match C.connect ~socket_path:inst.sock with
    | Ok c -> c
    | Error _ ->
      if exited inst then die "hgd exited during start-up (see %s/hgd.err)" inst.dir;
      if now () > deadline then die "hgd did not accept within 60 s";
      go ()
  in
  go ()

(* hgd prints its ephemeral TCP port once it is listening. *)
let tcp_port inst =
  let deadline = now () +. 60.0 and marker = "tcp protocol on port " in
  let port_in line =
    let m = String.length marker and n = String.length line in
    let rec find i =
      if i + m > n then None
      else if String.sub line i m = marker then
        int_of_string_opt (String.trim (String.sub line (i + m) (n - i - m)))
      else find (i + 1)
    in
    find 0
  in
  let rec go () =
    match
      List.find_map port_in
        (String.split_on_char '\n' (read_all (Filename.concat inst.dir "hgd.out")))
    with
    | Some p -> p
    | None ->
      if exited inst || now () > deadline then die "hgd never reported its TCP port";
      go ()
  in
  go ()

let addr inst = function
  | Unix_socket -> C.Unix_path inst.sock
  | Tcp -> C.Tcp { host = "127.0.0.1"; port = inst.port }

let with_control inst f =
  match C.connect ~socket_path:inst.sock with
  | Error e -> die "control connection: %s" e
  | Ok c -> Fun.protect ~finally:(fun () -> C.close c) (fun () -> f c)

let call inst c req =
  inst.sent <- inst.sent + 1;
  C.request c req

type scrape = { prom : (string * float) list; info : (string * float) list }

(* METRICS first, then INFO.  Between two scrapes hgd's histograms
   therefore hold exactly the earlier scrape's two control requests
   besides the measured traffic. *)
let scrape inst =
  with_control inst (fun c ->
      let prom =
        match call inst c (P.Metrics P.Prometheus) with
        | Ok (P.Ok kvs) -> M.parse_prometheus (List.map snd kvs)
        | _ -> die "METRICS prom failed"
      in
      let info =
        match call inst c P.Info with
        | Ok (P.Ok kvs) ->
          List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (float_of_string_opt v)) kvs
        | _ -> die "INFO failed"
      in
      { prom; info })

let scrape_control_requests = 2.0

(* SHUTDOWN must be acknowledged and hgd must then exit 0 by itself. *)
let shutdown inst =
  let acked =
    with_control inst (fun c ->
        match call inst c P.Shutdown with Ok (P.Ok _) -> true | _ -> false)
  in
  let deadline = now () +. 20.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] inst.pid with
    | 0, _ ->
      if now () > deadline then begin
        (try Unix.kill inst.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] inst.pid);
        false
      end
      else begin
        Unix.sleepf 0.002;
        wait ()
      end
    | _, Unix.WEXITED 0 -> true
    | _ -> false
  in
  let clean = wait () in
  live_pids := List.filter (( <> ) inst.pid) !live_pids;
  acked && clean

let clk_tck = 100.0  (* USER_HZ; fixed at 100 on Linux *)

let proc_cpu pid =
  match M.parse_proc_stat (read_all (Printf.sprintf "/proc/%d/stat" pid)) with
  | Ok (u, s) -> float_of_int (u + s) /. clk_tck
  | Error e -> die "/proc/%d/stat: %s" pid e

let proc_rss_kb pid =
  match M.parse_proc_status_kb (read_all (Printf.sprintf "/proc/%d/status" pid)) "VmRSS" with
  | Some kb -> kb
  | None -> die "/proc/%d/status: no VmRSS" pid

let self_cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ---------- closed-loop connections ---------- *)

type conn_result = {
  reads : float Dyn.t;   (* seconds, completion order; failures are +inf *)
  writes : float Dyn.t;
  singles : float Dyn.t; (* single (non-BATCH) read round trips *)
  stamps : float Dyn.t;  (* completion times, [clock] *)
  mutable completed : int;
  mutable failed : int;
  mutable exhausted : bool;
}

let conn_result () =
  let samples () = Dyn.create ~capacity:1024 ~dummy:0.0 () in
  { reads = samples (); writes = samples (); singles = samples (); stamps = samples ();
    completed = 0; failed = 0; exhausted = false }

(* The writer's state, shared by every phase of a run: the op stream,
   the cursor of the next op to send, and the mirror the replies are
   checked against. *)
type writer = {
  wops : Wal.op array;
  mutable next : int;
  mirror : Mirror.t;
  dataset : string;
}

type role = Reader of item array * O.checker | Writer of writer

exception Exhausted

(* Send request [i] of a connection and check its reply.  The latency
   is the round trip alone: encode before, checking after. *)
let send_one (timer : O.timer) c role i =
  match role with
  | Reader (items, chk) -> (
    match items.(i mod Array.length items) with
    | Read req ->
      let line = timer.time "encode" (fun () -> P.request_line req) in
      let t0 = clock () in
      let r = timer.time "round_trip" (fun () -> C.request_line c line) in
      let lat = clock () -. t0 in
      let ok =
        timer.time "decode" (fun () -> match r with Ok rep -> O.check chk line rep | Error _ -> false)
      in
      (`Single, ok, lat)
    | Batch reqs ->
      let lines = timer.time "encode" (fun () -> List.map P.request_line reqs) in
      let t0 = clock () in
      let r = timer.time "round_trip" (fun () -> C.batch_lines c lines) in
      let lat = clock () -. t0 in
      let ok =
        timer.time "decode" (fun () ->
            match r with Ok (C.Items rs) -> O.check_batch chk lines rs | _ -> false)
      in
      (`Batch, ok, lat))
  | Writer w ->
    if w.next >= Array.length w.wops then raise Exhausted;
    let op = w.wops.(w.next) in
    w.next <- w.next + 1;
    let line = timer.time "encode" (fun () -> P.request_line (Mirror.request_of_op ~dataset:w.dataset op)) in
    let expected =
      match Mirror.apply w.mirror op with
      | Ok assigned -> Some (Mirror.expected_reply w.mirror ~assigned)
      | Error _ -> None
    in
    let t0 = clock () in
    let r = timer.time "round_trip" (fun () -> C.request_line c line) in
    let lat = clock () -. t0 in
    let ok =
      timer.time "decode" (fun () ->
          match (r, expected) with Ok rep, Some e -> O.same e rep | _ -> false)
    in
    (`Write, ok, lat)

type stop = Until of float | Count of int

let drive_conn ~c ~role ~stop ~recorder res =
  let i = ref 0 in
  let go () = match stop with Until t -> now () < t | Count n -> !i < n in
  while go () && not res.exhausted do
    match
      match recorder with
      | None -> send_one O.untimed c role !i
      | Some r ->
        let req = !i in
        M.with_span r ~parent:(-1) ~req "request" (fun root ->
            send_one
              { O.time = (fun name f -> M.with_span r ~parent:root ~req name (fun _ -> f ())) }
              c role !i)
    with
    | exception Exhausted -> res.exhausted <- true
    | kind, ok, lat ->
      let lat = if ok then lat else Float.infinity in
      (match kind with
      | `Write -> Dyn.push res.writes lat
      | `Single -> Dyn.push res.reads lat; Dyn.push res.singles lat
      | `Batch -> Dyn.push res.reads lat);
      Dyn.push res.stamps (clock ());
      res.completed <- res.completed + 1;
      if not ok then res.failed <- res.failed + 1;
      incr i
  done

type phase = {
  conns : conn_result array;
  start : float;       (* [clock] at the start of the phase *)
  elapsed : float;
  server_cpu : float;  (* seconds of hgd user+system CPU *)
  gen_cpu : float;     (* seconds of this process's CPU *)
  rss_kb : float;      (* hgd's VmRSS, see [run_phase] *)
  spans : M.span array array;  (* per connection; empty unless traced *)
}

(* hgd's VmRSS on a timed phase is the median of readings this often.
   A single reading at the end moved with where hgd's collector
   happened to be (readings within one cold_analyses phase varied by up
   to 3 MiB). *)
let rss_every = 0.2

(* Run one measured phase: every connection is dialled first, then all
   run their closed loops on their own threads, for [`Seconds s] of
   wall time or [`Counts ns] requests (ns.(k) on connection k).  Meanwhile
   this thread samples hgd's VmRSS on a timed phase; a counted phase
   reads it once at the end. *)
let run_phase inst ~roles ~stop ~traced =
  let cs =
    Array.map
      (fun (tr, _) ->
        match C.connect_addr (addr inst tr) with
        | Ok c -> c
        | Error e -> die "connect: %s" e)
      roles
  in
  let results = Array.map (fun _ -> conn_result ()) roles in
  let recorders = Array.map (fun _ -> if traced then Some (M.recorder ()) else None) roles in
  let cpu0 = proc_cpu inst.pid and g0 = self_cpu () in
  let start = clock () in
  let t0 = now () in
  let deadline = match stop with `Seconds s -> Some (t0 +. s) | `Counts _ -> None in
  let stop k =
    match stop with `Seconds s -> Until (t0 +. s) | `Counts ns -> Count ns.(k)
  in
  let threads =
    Array.mapi
      (fun k (_, role) ->
        Thread.create
          (fun () ->
            drive_conn ~c:cs.(k) ~role ~stop:(stop k) ~recorder:recorders.(k) results.(k))
          ())
      roles
  in
  let rss = Dyn.create ~capacity:256 ~dummy:0.0 () in
  Option.iter
    (fun d ->
      while now () < d do
        Dyn.push rss (float_of_int (proc_rss_kb inst.pid));
        Unix.sleepf (Float.min rss_every (Float.max 0.0 (d -. now ())))
      done)
    deadline;
  Array.iter Thread.join threads;
  let elapsed = clock () -. start in
  let server_cpu = proc_cpu inst.pid -. cpu0 and gen_cpu = self_cpu () -. g0 in
  Dyn.push rss (float_of_int (proc_rss_kb inst.pid));
  let rss_kb = M.median (Dyn.to_array rss) in
  Array.iter C.close cs;
  Array.iter (fun r -> inst.sent <- inst.sent + r.completed) results;
  {
    conns = results;
    start;
    elapsed;
    server_cpu;
    gen_cpu;
    rss_kb;
    spans = Array.map (function Some r -> M.spans r | None -> [||]) recorders;
  }

let completed ph = Array.fold_left (fun a r -> a + r.completed) 0 ph.conns
let failed ph = Array.fold_left (fun a r -> a + r.failed) 0 ph.conns

(* Window w of the merged samples = slice w of every connection, so
   each window spans the same stretch of the phase. *)
let merged_windows ~windows (vs : float array list) =
  List.concat_map
    (fun w ->
      List.map
        (fun a ->
          let size = Array.length a / windows in
          Array.sub a (w * size) size)
        vs)
    (List.init windows Fun.id)
  |> Array.concat

(* ---------- set-up and warm-up ---------- *)

type setup = {
  inst : hgd;
  setup_s : float;
  warm_failures : int;
  refs : (string, P.reply) Hashtbl.t;  (* reference reply per request line *)
}

(* The distinct analysis requests of the read streams. *)
let distinct_reads wl =
  let seen = Hashtbl.create 16 in
  Array.iter
    (Array.iter (fun it ->
         let reqs = match it with Read r -> [ r ] | Batch rs -> rs in
         List.iter
           (function
             | P.Analyze _ as r -> Hashtbl.replace seen (P.request_line r) r
             | _ -> ())
           reqs))
    wl.readers;
  List.sort compare (Hashtbl.fold (fun line r acc -> (line, r) :: acc) seen [])

let dataset_of wl digest = List.find (fun d -> d.digest = digest) wl.datasets

(* The oracle's replies for the computed (uncached) distinct analyses,
   on the generated hypergraphs hgd is given; worked out before any
   clock starts. *)
let expected_table wl =
  let t = Hashtbl.create 32 in
  List.iter
    (fun (line, req) ->
      match req with
      | P.Analyze { dataset; analysis } ->
        let d = dataset_of wl dataset in
        Hashtbl.replace t line (O.computed_reply (O.payload ~role:d.role d.h analysis))
      | _ -> ())
    (distinct_reads wl);
  t

(* The planted maximum core of the Cellzome stand-in, for every seed:
   41 proteins in 54 complexes, k = 6. *)
let planted_core_ok (reply : P.reply) =
  match reply with
  | P.Ok kvs ->
    List.assoc_opt "k" kvs = Some "6"
    && List.assoc_opt "core_vertices" kvs = Some "41"
    && List.assoc_opt "core_hyperedges" kvs = Some "54"
  | P.Err _ -> false

let as_cached = function
  | P.Ok kvs -> P.Ok (List.map (fun (k, v) -> if k = "cached" then (k, "true") else (k, v)) kvs)
  | e -> e

let first_op_reply wl =
  let m = Mirror.of_hypergraph wl.target.h in
  match Mirror.apply m wl.ops.(0) with
  | Ok assigned -> Mirror.expected_reply m ~assigned
  | Error msg -> die "first write op invalid: %s" msg

(* Start hgd on fresh files, load, warm up; [setup_s] covers exactly
   that.  Warm-up: the read workloads fill the cache (each distinct
   analysis computed once and checked against the oracle, then served
   once from the cache: that reply is the reference every measured
   reply must equal); cold_analyses runs one suite; mixed_writes sends
   its first mutation, which pays the maintainer's full peel. *)
let setup ~bin ~wl ~tcp ~gc_report ~expected =
  let refs = Hashtbl.create 16 and failures = ref 0 in
  let expect ok = if not ok then incr failures in
  let t0 = now () in
  let inst = spawn ~bin ~wl ~tcp ~gc_report in
  let c = connect_ready inst in
  if tcp then inst.port <- tcp_port inst;
  List.iter
    (fun d ->
      expect
        (match call inst c (P.Load (Filename.concat inst.dir d.file)) with
        | Ok (P.Ok kvs) -> List.assoc_opt "digest" kvs = Some d.digest
        | _ -> false))
    wl.datasets;
  let reads = distinct_reads wl in
  (if wl.writer then
     expect
       (match call inst c (Mirror.request_of_op ~dataset:wl.target.digest wl.ops.(0)) with
       | Ok rep -> O.same rep (first_op_reply wl)
       | Error _ -> false)
   else if wl.cache > 0 then
     List.iter
       (fun (line, req) ->
         let computed = Hashtbl.find expected line in
         expect (match call inst c req with Ok rep -> O.same rep computed | Error _ -> false);
         match call inst c req with
         | Ok rep when O.same rep (as_cached computed) -> Hashtbl.replace refs line rep
         | _ -> expect false)
       reads
   else begin
     Hashtbl.iter (Hashtbl.replace refs) expected;
     match wl.readers.(0).(0) with
     | Batch reqs ->
       inst.sent <- inst.sent + 1;
       expect
         (match C.batch c reqs with
         | Ok (C.Items rs) ->
           O.check_batch { O.refs; racing = false } (List.map P.request_line reqs) rs
         | _ -> false)
     | Read _ -> ()
   end);
  C.close c;
  let setup_s = now () -. t0 in
  (* Checked after the clock: the Cellzome stand-in's planted core. *)
  List.iter
    (fun (line, req) ->
      match req with
      | P.Analyze { dataset; analysis = P.Kcore None }
        when (dataset_of wl dataset).file = "cellzome.hg" ->
        expect (planted_core_ok (Hashtbl.find expected line))
      | _ -> ())
    reads;
  { inst; setup_s; warm_failures = !failures; refs }

(* ---------- connection roles ---------- *)

(* A writer positioned after the warm-up op, which [setup] sent. *)
let new_writer wl =
  let d = wl.target in
  let w = { wops = wl.ops; next = 1; mirror = Mirror.of_hypergraph d.h; dataset = d.digest } in
  (match Mirror.apply w.mirror wl.ops.(0) with Ok _ -> () | Error m -> die "op 0: %s" m);
  w

(* Readers first, then the writer. *)
let roles_of wl chk writer =
  Array.append
    (Array.map (fun s -> (wl.transport, Reader (s, chk))) wl.readers)
    (match writer with Some w -> [| (wl.transport, Writer w) |] | None -> [||])

(* After the writer stops, the KCORE reply must equal a full peel of
   the writer's mirror. *)
let final_core_ok inst w =
  let expected = O.computed_reply (O.payload ~role:"sparse" (Mirror.hypergraph w.mirror) (P.Kcore None)) in
  with_control inst (fun c ->
      match call inst c (kcore_max w.dataset) with
      | Ok rep -> O.same rep expected
      | Error _ -> false)

(* The read workloads never write, but every end-to-end metric is
   reported on every workload, so they send a write probe: the same
   seeded stream of rewiring mutations, over the workload's transport,
   to the resident proteome of a freshly set-up hgd, once between each
   two measured hgds (README.md, "Write probe").  Never to a measured
   hgd itself: the probe grows hgd's heap, which changes how the read
   phase collects.  The first op pays the maintainer's peel and is not
   timed; [warm] counts it. *)
type probe = { warm : phase; timed : phase }

let write_probe inst wl =
  let d = wl.target in
  let w = { wops = wl.ops; next = 0; mirror = Mirror.of_hypergraph d.h; dataset = d.digest } in
  let run n = run_phase inst ~roles:[| (wl.transport, Writer w) |] ~stop:(`Counts [| n |]) ~traced:false in
  let warm = run 1 in
  { warm; timed = run (Array.length wl.ops - 1) }

(* ---------- output ---------- *)

let fmt_value v =
  if not (Float.is_finite v) then "1e300"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (fmt_value v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let ms x = x *. 1000.0

let per n x = if n = 0 then 0.0 else x /. float_of_int n

let print_streams wl =
  Array.iteri
    (fun i s ->
      Printf.printf "stream conn=%d reads cycle=%d digest=%s\n" i (Array.length s) (stream_digest s))
    wl.readers;
  Printf.printf "stream %s writes ops=%d digest=%s\n%!"
    (if wl.writer then Printf.sprintf "conn=%d" (Array.length wl.readers) else "probe")
    (Array.length wl.ops)
    (ops_digest ~dataset:wl.target.digest wl.ops)

let print_health ph ~clean =
  Array.iteri
    (fun i r ->
      Printf.printf "conn %d completed=%d failed=%d%s\n" i r.completed r.failed
        (if r.exhausted then " exhausted" else ""))
    ph.conns;
  Printf.printf "generator cpu_ms_per_req=%.4f hgd_clean_exit=%b\n%!"
    (per (completed ph) (ms ph.gen_cpu)) clean

let samples f ph = List.map (fun r -> Dyn.to_array (f r)) (Array.to_list ph.conns)

(* ---------- untraced run: the end-to-end metrics ---------- *)

(* setup_s is the median of this many fresh starts per run. *)
let setup_repeats = 15

(* Fresh hgds a run's measured time is split between.  On
   cold_analyses hgd's resident memory settled near 21 or near 30 MiB
   depending on the run (where its collector happened to be), so with
   one hgd per run server_rss_mb split into two modes across runs; the
   median of three is steadier, as is everything pooled over three. *)
let rounds = 3

let tail ~p ~windows (parts : float array list) =
  match M.windowed ~p ~windows (merged_windows ~windows parts) with
  | Ok v -> v
  | Error msg ->
    Printf.printf "warning: %s; reporting p%g over the whole phase\n%!" msg p;
    M.percentile ~p (Array.concat parts)

let slice_rates ~windows ph =
  M.slice_rates ~windows ~t0:ph.start ~elapsed:ph.elapsed
    (Array.concat (samples (fun r -> r.stamps) ph))

let nonempty a = if Array.length a = 0 then die "no samples: the run was too short" else a

let untraced ~bin ~wl ~seconds =
  print_streams wl;
  let expected = expected_table wl in
  let tcp = wl.transport = Tcp in
  let failures = ref 0 in
  let check ok = if not ok then incr failures in
  let start () =
    let s = setup ~bin ~wl ~tcp ~gc_report:false ~expected in
    failures := !failures + s.warm_failures;
    s
  in
  let set_up_only () =
    let s = start () in
    check (shutdown s.inst);
    s
  in
  let measure () =
    let s = start () in
    let writer = if wl.writer then Some (new_writer wl) else None in
    let chk = { O.refs = s.refs; racing = wl.writer } in
    let ph =
      run_phase s.inst ~roles:(roles_of wl chk writer)
        ~stop:(`Seconds (seconds /. float_of_int rounds)) ~traced:false
    in
    Option.iter (fun w -> check (final_core_ok s.inst w)) writer;
    let clean = shutdown s.inst in
    check clean;
    print_health ph ~clean;
    (s, ph)
  in
  let probe_pass () =
    let s = start () in
    let p = write_probe s.inst wl in
    check (shutdown s.inst);
    (s, p)
  in
  (* The read workloads' probe passes run between the measured hgds;
     the other set-ups come before and after them.  So every figure,
     setup_s too, spans the run. *)
  let passes = if wl.writer then 0 else rounds - 1 in
  let others = setup_repeats - rounds - passes in
  let before = List.init (others / 2) (fun _ -> set_up_only ()) in
  let middle =
    List.init rounds (fun i ->
        let m = measure () in
        (m, if i < passes then [ probe_pass () ] else []))
  in
  let after = List.init (others - (others / 2)) (fun _ -> set_up_only ()) in
  let setups = before @ List.concat_map (fun (m, p) -> fst m :: List.map fst p) middle @ after in
  let phases = List.map (fun (m, _) -> snd m) middle in
  let probes = List.concat_map (fun (_, p) -> List.map snd p) middle in
  let sum f = List.fold_left (fun a ph -> a + f ph) 0 phases in
  let n = sum completed in
  let reads = List.concat_map (samples (fun r -> r.reads)) phases in
  let probe_phases = List.concat_map (fun p -> [ p.warm; p.timed ]) probes in
  let writes, write_windows =
    if wl.writer then (List.concat_map (samples (fun r -> r.writes)) phases, wl.windows)
    else (List.concat_map (fun p -> samples (fun r -> r.writes) p.timed) probes, 1)
  in
  let probe_n = List.fold_left (fun a p -> a + completed p) 0 probe_phases in
  let probe_failed = List.fold_left (fun a p -> a + failed p) 0 probe_phases in
  let median_of f l = M.median (Array.of_list (List.map f l)) in
  let metrics =
    [
      ( "throughput_rps",
        M.median (Array.concat (List.map (slice_rates ~windows:wl.rate_windows) phases)),
        "1/s" );
      ("read_p50_ms", ms (M.median (nonempty (Array.concat reads))), "ms");
      ("read_tail_ms", ms (tail ~p:wl.read_tail ~windows:wl.windows reads), "ms");
      ("write_p50_ms", ms (M.median (nonempty (Array.concat writes))), "ms");
      ("write_tail_ms", ms (tail ~p:wl.write_tail ~windows:write_windows writes), "ms");
      ( "server_cpu_ms_per_req",
        per n (ms (List.fold_left (fun a ph -> a +. ph.server_cpu) 0.0 phases)),
        "ms" );
      ("server_rss_mb", median_of (fun ph -> ph.rss_kb) phases /. 1024.0, "MiB");
      ("setup_s", median_of (fun s -> s.setup_s) setups, "s");
    ]
  in
  (* Each set-up and each final check count as one attempted request. *)
  let attempted = n + probe_n + setup_repeats + if wl.writer then rounds else 0 in
  let failed = sum failed + probe_failed + !failures in
  print_result ~correct:(failed = 0) ~attempted ~failed metrics;
  failed = 0

(* ---------- in-process replay ---------- *)

(* The traced run replays its measured request stream through the
   public functions hgd's dispatcher composes, on this process's own
   Registry, Result_cache, Metrics and Trace, with a span around each
   call.  [req] >= 0 marks measured requests; the warm-up replay (which
   fills the cache, as hgd's set-up did) records with req = -1. *)
type replay = {
  r : M.recorder;
  registry : Registry.t;
  cache : Result_cache.t;
  metrics : Metrics.t;
  trace : Trace.t;
  started : float;
  counts : (string, int * int) Hashtbl.t;  (* counter -> (sum, calls) *)
  mutable reply_bytes : int;
  mutable requests : int;
  rwl : workload;
}

let count rp name n =
  let s, c = Option.value (Hashtbl.find_opt rp.counts name) ~default:(0, 0) in
  Hashtbl.replace rp.counts name (s + n, c + 1)

let mutation_op : P.request -> (string * Wal.op) option = function
  | P.Add_vertex { dataset; name } -> Some (dataset, Wal.Add_vertex { name })
  | P.Add_edge { dataset; name; members } ->
    Some (dataset, Wal.Add_edge { name; members = Array.of_list members })
  | P.Del_edge { dataset; edge } -> Some (dataset, Wal.Del_edge { edge })
  | _ -> None

let mutation_reply (a : Registry.applied) =
  P.Ok
    ([ ("epoch", string_of_int a.epoch) ]
    @ (match a.assigned with Some id -> [ ("assigned", string_of_int id) ] | None -> [])
    @ [
        ("vertices", string_of_int a.n_vertices);
        ("hyperedges", string_of_int a.n_edges);
        ("checkpointed", string_of_bool a.checkpointed);
      ])

(* One request line, as hgd serves it: parse, registry, cache, kernel,
   cache insert, encode, plus the Metrics and Trace calls. *)
let replay_line rp ~req ~parent line =
  M.with_span rp.r ~parent ~req "server.request" (fun root ->
      let sp name f = M.with_span rp.r ~parent:root ~req name (fun _ -> f ()) in
      let t0 = now () in
      let tr =
        sp "telemetry" (fun () ->
            Metrics.incr rp.metrics "requests_total";
            Trace.start rp.trace ~queue_us:0 ~request:line ())
      in
      let parsed = sp "protocol.parse" (fun () -> P.parse_request line) in
      let reply =
        match parsed with
        | Ok (P.Analyze { dataset; analysis }) -> (
          match sp "registry.find" (fun () -> Registry.find rp.registry dataset) with
          | `Found entry -> (
            let st = entry.Registry.state in
            let key, hit =
              sp "cache.lookup" (fun () ->
                  let key = Result_cache.key ~digest:entry.digest ~epoch:st.epoch ~analysis in
                  (key, Result_cache.find rp.cache key))
            in
            match hit with
            | Some payload -> P.Ok (payload @ [ ("cached", "true") ])
            | None ->
              let role = (dataset_of rp.rwl entry.digest).role in
              let timer =
                { O.time = (fun name f -> M.with_span rp.r ~parent:root ~req name (fun _ -> f ())) }
              in
              let payload =
                O.payload ~timer ~count:(count rp) ~role ?cores:st.cores st.hypergraph analysis
              in
              sp "cache.add" (fun () -> Result_cache.add rp.cache key payload);
              O.computed_reply payload)
          | `Missing | `Ambiguous -> P.err P.Unknown_dataset dataset)
        | Ok P.Ping ->
          P.Ok [ ("pong", "hgd"); ("uptime_s", Printf.sprintf "%.1f" (now () -. rp.started)) ]
        | Ok r -> (
          match mutation_op r with
          | Some (dataset, op) -> (
            match sp "registry.mutate" (fun () -> Registry.mutate rp.registry dataset op) with
            | Ok a -> mutation_reply a
            | Error _ -> P.err P.Bad_request "replayed mutation rejected")
          | None -> P.err P.Bad_request "not replayed")
        | Error msg -> P.err P.Bad_request msg
      in
      let bytes = sp "protocol.encode" (fun () -> P.encode_reply reply) in
      if req >= 0 then rp.reply_bytes <- rp.reply_bytes + String.length bytes;
      sp "telemetry" (fun () ->
          Metrics.observe_latency rp.metrics (now () -. t0);
          ignore (Trace.finish rp.trace tr ~status:"ok"));
      reply)

(* hgd observes a BATCH header (spanning its items) and each item; the
   replay nests the same way. *)
let replay_item rp ~req item =
  (match item with
  | Read r -> ignore (replay_line rp ~req ~parent:(-1) (P.request_line r))
  | Batch rs ->
    M.with_span rp.r ~parent:(-1) ~req "server.request" (fun root ->
        ignore
          (M.with_span rp.r ~parent:root ~req "protocol.parse" (fun _ ->
               P.parse_request (P.request_line (P.Batch (List.length rs)))));
        List.iter (fun r -> ignore (replay_line rp ~req ~parent:root (P.request_line r))) rs));
  if req >= 0 then rp.requests <- rp.requests + 1

let replay_write rp ~req w i =
  ignore
    (replay_line rp ~req ~parent:(-1)
       (P.request_line (Mirror.request_of_op ~dataset:w.dataset w.wops.(i))));
  if req >= 0 then rp.requests <- rp.requests + 1

(* Load the workload's files into the replay's own Registry; the
   parse / snapshot-map step is also timed on its own. *)
let replay_start (wl : workload) dir =
  let metrics = Metrics.create () in
  let rp =
    {
      r = M.recorder ();
      registry = Registry.create ~wal_sync:Wal.Batch ();
      cache = Result_cache.create ~capacity:wl.cache ~metrics ();
      metrics;
      trace = Trace.create ();
      started = now ();
      counts = Hashtbl.create 32;
      reply_bytes = 0;
      requests = 0;
      rwl = wl;
    }
  in
  List.iter
    (fun d ->
      let path = Filename.concat dir d.file in
      write_file path d.bytes;
      for _ = 1 to 3 do
        if Filename.check_suffix d.file ".hgsnap" then
          M.with_span rp.r ~parent:(-1) ~req:(-1) "snapshot.load" (fun _ ->
              ignore (Snapshot.read path))
        else
          M.with_span rp.r ~parent:(-1) ~req:(-1) "io.parse" (fun _ ->
              if Filename.check_suffix d.file ".mtx" then
                ignore (Hp_data.Matrix_market.to_hypergraph (Hp_data.Matrix_market.parse d.bytes))
              else ignore (Hp_hypergraph.Hypergraph_io.of_string d.bytes))
      done;
      M.with_span rp.r ~parent:(-1) ~req:(-1) "registry.load" (fun _ ->
          match Registry.load rp.registry path with
          | Ok _ -> ()
          | Error _ -> die "replay: cannot load %s" path))
    wl.datasets;
  rp

(* The write path piece by piece, on copies: Live validate/apply, a WAL
   append under hgd's default Batch sync, the Live.to_hypergraph
   rebuild every mutation publishes, and the maintainer's repair.
   [first] ops (warm-up and untraced phase) are fast-forwarded first. *)
let replay_write_path rp wl dir ~first ~n =
  let live = Live.of_hypergraph wl.target.h in
  for i = 0 to first - 1 do
    match Live.apply live wl.ops.(i) with Ok _ -> () | Error m -> die "replay op %d: %s" i m
  done;
  let maint =
    M.with_span rp.r ~parent:(-1) ~req:(-1) "maintain.create" (fun _ ->
        HM.create ~budget:4096 (Live.to_hypergraph live))
  in
  let path = Filename.concat dir "writepath.hgwal" in
  let w =
    match
      Wal.create ~path ~handle:"replay" ~base_identity:"replay" ~base_epoch:first ~sync:Wal.Batch
    with
    | Ok w -> w
    | Error e -> die "replay wal: %s" (Wal.error_to_string e)
  in
  let size0 = (Unix.stat path).Unix.st_size in
  for i = first to first + n - 1 do
    let op = wl.ops.(i) in
    let sp name f = M.with_span rp.r ~parent:(-1) ~req:i name (fun _ -> f ()) in
    sp "live.apply" (fun () ->
        match Live.validate live op with
        | Ok () -> ignore (Live.apply_exn live op)
        | Error m -> die "replay op %d: %s" i m);
    sp "wal.append" (fun () ->
        match Wal.append w { Wal.epoch = i + 1; op } with
        | Ok () -> ()
        | Error e -> die "replay append: %s" (Wal.error_to_string e));
    let after = sp "live.publish" (fun () -> Live.to_hypergraph live) in
    sp "maintain.repair" (fun () ->
        ignore
          (match op with
          | Wal.Add_vertex _ -> HM.add_vertex maint ~after
          | Wal.Add_edge _ -> HM.add_edge maint ~after
          | Wal.Del_edge { edge } -> HM.del_edge maint ~after ~edge))
  done;
  Wal.close w;
  float_of_int ((Unix.stat path).Unix.st_size - size0) /. float_of_int (max 1 n)

(* ---------- traced run: the per-layer metrics ---------- *)

(* Each per-layer metric with its unit, layer, the end-to-end metric it
   should move, and the workloads on which it should move it (heavy)
   and barely move it (light). *)
let layer_table =
  let core role =
    let hl = "cold_analyses / unix_reads" in
    [
      ("core.max_core_ms." ^ role, "ms", "Hypergraph_core", "read_p50_ms, throughput_rps, server_cpu_ms_per_req", hl);
      ("core.k_core_ms." ^ role, "ms", "Hypergraph_core", "read_p50_ms, throughput_rps, server_cpu_ms_per_req", hl);
      ("core.peel_rounds." ^ role, "count", "Hypergraph_core", "read_p50_ms", hl);
      ("core.maximality_checks." ^ role, "count", "Hypergraph_core", "read_p50_ms", hl);
      ("path.sweep_ms." ^ role, "ms", "Hypergraph_path", "read_p50_ms, read_tail_ms", hl);
      ("path.bfs_sources." ^ role, "count", "Hypergraph_path", "read_p50_ms, read_tail_ms", hl);
      ("cover.solve_ms." ^ role, "ms", "Hp_cover", "read_p50_ms", hl);
    ]
  in
  [
    ("frontend.unix_overhead_us", "us", "Server (Unix connection path)", "read_p50_ms, throughput_rps", "unix_reads / cold_analyses");
    ("frontend.tcp_overhead_us", "us", "Event_loop, Poller", "read_p50_ms, read_tail_ms, throughput_rps", "tcp_reads / cold_analyses");
    ("worker.queue_wait_us", "us", "Worker", "read_tail_ms, throughput_rps", "tcp_reads / unix_reads");
    ("server.service_us", "us", "Server dispatch", "server_cpu_ms_per_req", "all");
    ("protocol.parse_us", "us", "Protocol", "server_cpu_ms_per_req, read_p50_ms", "unix_reads, tcp_reads / cold_analyses");
    ("protocol.encode_us", "us", "Protocol", "server_cpu_ms_per_req, read_p50_ms", "unix_reads, tcp_reads / cold_analyses");
    ("protocol.reply_bytes", "bytes", "Protocol", "server_cpu_ms_per_req, read_p50_ms", "unix_reads, tcp_reads / cold_analyses");
    ("cache.lookup_us", "us", "Result_cache", "read_p50_ms", "unix_reads, tcp_reads / cold_analyses");
    ("cache.hit_ratio", "ratio", "Result_cache", "read_p50_ms", "unix_reads, tcp_reads / cold_analyses");
    ("telemetry.per_req_us", "us", "Metrics + Trace", "server_cpu_ms_per_req", "unix_reads / cold_analyses");
    ("registry.find_us", "us", "Registry", "read_tail_ms", "mixed_writes / unix_reads, tcp_reads");
    ("registry.mutate_us", "us", "Registry", "write_p50_ms", "mixed_writes / unix_reads, tcp_reads");
    ("registry.load_ms", "ms", "Registry", "setup_s", "mixed_writes / unix_reads, tcp_reads");
    ("wal.append_us", "us", "Hp_wal.Wal", "write_tail_ms, write_p50_ms", "mixed_writes / others");
    ("wal.bytes_per_op", "bytes", "Hp_wal.Wal", "write_tail_ms, write_p50_ms", "mixed_writes / others");
    ("live.apply_us", "us", "Hp_wal.Live", "write_p50_ms, server_cpu_ms_per_req", "mixed_writes / others");
    ("live.publish_us", "us", "Hp_wal.Live", "write_p50_ms, server_cpu_ms_per_req", "mixed_writes / others");
    ("maintain.repair_us", "us", "Hypergraph_maintain", "write_p50_ms, write_tail_ms", "mixed_writes / others");
    ("maintain.visited_per_op", "count", "Hypergraph_maintain", "write_p50_ms, write_tail_ms", "mixed_writes / others");
    ("maintain.cascade_share", "ratio", "Hypergraph_maintain", "write_p50_ms, write_tail_ms", "mixed_writes / others");
    ("maintain.component_share", "ratio", "Hypergraph_maintain", "write_p50_ms, write_tail_ms", "mixed_writes / others");
    ("maintain.repeel_share", "ratio", "Hypergraph_maintain", "write_p50_ms, write_tail_ms", "mixed_writes / others");
    ("maintain.create_ms", "ms", "Hypergraph_maintain", "setup_s", "mixed_writes / others");
  ]
  @ core "sparse" @ core "dense"
  @ [
      ("core.of_decomposition_us", "us", "Hypergraph_core", "read_p50_ms", "mixed_writes / unix_reads");
      ("stats.powerlaw_us", "us", "Hp_stats", "read_p50_ms", "cold_analyses / unix_reads");
      ("io.parse_ms", "ms", "Hypergraph_io", "setup_s", "cold_analyses / mixed_writes");
      ("snapshot.load_ms", "ms", "Hp_snapshot", "setup_s", "mixed_writes / cold_analyses");
      ("gc.minor_words_per_req", "words", "hgd OCaml runtime", "read_tail_ms, server_cpu_ms_per_req", "unix_reads, tcp_reads / cold_analyses");
      ("gc.minor_collections_per_kreq", "count", "hgd OCaml runtime", "read_tail_ms, server_cpu_ms_per_req", "unix_reads, tcp_reads / cold_analyses");
      ("gc.major_collections_per_kreq", "count", "hgd OCaml runtime", "read_tail_ms, server_cpu_ms_per_req", "unix_reads, tcp_reads / cold_analyses");
      ("gc.top_heap_mb", "MiB", "hgd OCaml runtime", "server_rss_mb", "unix_reads, tcp_reads / cold_analyses");
      ("generator.cpu_ms_per_req", "ms", "generator", "none (must stay far below the request time)", "all");
      ("trace.coverage", "ratio", "replay", "none (share of hgd service time the replay explains)", "all");
      ("trace.overhead_ms", "ms", "replay", "none (traced minus untraced read_p50_ms)", "all");
    ]

(* The single-request part of the read streams: BATCHes expanded into
   their items, so hgd's service time and the client round trip count
   the same requests. *)
let singles wl =
  Array.of_list
    (List.concat_map
       (function Read r -> [ Read r ] | Batch rs -> List.map (fun r -> Read r) rs)
       (Array.to_list wl.readers.(0)))

let mean a = if Array.length a = 0 then 0.0 else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let traced ~bin ~wl =
  print_streams wl;
  let expected = expected_table wl in
  let n_reads, n_writes, n_singles = wl.traced_counts in
  let failures = ref 0 and attempted = ref 0 in
  let tally ph =
    attempted := !attempted + completed ph;
    failures := !failures + failed ph
  in
  (* The GC baseline: an hgd that only sets up and shuts down. *)
  let base = setup ~bin ~wl ~tcp:true ~gc_report:true ~expected in
  failures := !failures + base.warm_failures;
  if not (shutdown base.inst) then incr failures;
  let gc0 = M.parse_gc_report (read_all (Filename.concat base.inst.dir "hgd.err")) in
  (* The traced hgd: untraced phase, traced phase, then the two
     single-request phases for the front-end overheads. *)
  let s = setup ~bin ~wl ~tcp:true ~gc_report:true ~expected in
  failures := !failures + s.warm_failures;
  let inst = s.inst in
  let writer = if wl.writer then Some (new_writer wl) else None in
  let chk = { O.refs = s.refs; racing = wl.writer } in
  let counts = Array.append (Array.map (fun _ -> n_reads) wl.readers) (if wl.writer then [| n_writes |] else [||]) in
  let roles () = roles_of wl chk writer in
  let pa = run_phase inst ~roles:(roles ()) ~stop:(`Counts counts) ~traced:false in
  tally pa;
  let phase_b_start = match writer with Some w -> w.next | None -> 0 in
  let before = scrape inst in
  let pb = run_phase inst ~roles:(roles ()) ~stop:(`Counts counts) ~traced:true in
  let after = scrape inst in
  tally pb;
  let service_delta b a name =
    let sum = M.delta ~before:b.prom ~after:a.prom (name ^ "_sum")
    and cnt = M.delta ~before:b.prom ~after:a.prom (name ^ "_count") in
    (sum, cnt)
  in
  let overhead tr =
    let b = scrape inst in
    let p =
      run_phase inst ~roles:[| (tr, Reader (singles wl, chk)) |] ~stop:(`Counts [| n_singles |]) ~traced:false
    in
    let a = scrape inst in
    tally p;
    let sum, cnt = service_delta b a "hgd_latency_seconds" in
    let hgd_mean = sum /. (cnt -. scrape_control_requests) in
    (mean (Dyn.to_array p.conns.(0).singles) -. hgd_mean) *. 1e6
  in
  let unix_overhead = overhead Unix_socket in
  let tcp_overhead = overhead Tcp in
  (match writer with Some w -> if not (final_core_ok inst w) then incr failures | None -> ());
  incr attempted;
  let clean = shutdown inst in
  if not clean then incr failures;
  print_health pb ~clean;
  let gc1 = M.parse_gc_report (read_all (Filename.concat inst.dir "hgd.err")) in
  (* Replay phase B's stream in-process. *)
  let dir = Filename.concat !run_dir "replay" in
  Unix.mkdir dir 0o755;
  let rp = replay_start wl dir in
  (match writer with
   | Some w ->
     (* hgd's warm-up op and the untraced phase's ops, unmeasured. *)
     for i = 0 to phase_b_start - 1 do
       replay_write rp ~req:(-1) w i
     done
   | None ->
     if wl.cache > 0 then
       List.iter
         (fun (_, req) ->
           for _ = 1 to 2 do
             replay_item rp ~req:(-1) (Read req)
           done)
         (distinct_reads wl)
     else replay_item rp ~req:(-1) wl.readers.(0).(0));
  let req = ref 0 in
  let next () = let r = !req in incr req; r in
  (match writer with
  | Some w ->
    (* Reads slot in between writes in proportion, deterministically. *)
    let reads = wl.readers.(0) in
    let ri = ref 0 in
    for k = 0 to n_writes - 1 do
      replay_write rp ~req:(next ()) w (phase_b_start + k);
      while !ri < n_reads && !ri * n_writes <= k * n_reads do
        replay_item rp ~req:(next ()) reads.(!ri mod Array.length reads);
        incr ri
      done
    done;
    while !ri < n_reads do
      replay_item rp ~req:(next ()) reads.(!ri mod Array.length reads);
      incr ri
    done
  | None ->
    for i = 0 to n_reads - 1 do
      Array.iter
        (fun stream -> replay_item rp ~req:(next ()) stream.(i mod Array.length stream))
        wl.readers
    done);
  let bytes_per_op =
    if wl.writer then replay_write_path rp wl dir ~first:phase_b_start ~n:n_writes else 0.0
  in
  let spans = M.spans rp.r in
  let measured = M.by_name ~keep:(fun sp -> sp.M.req >= 0) spans in
  let all = M.by_name spans in
  let calls tbl name = match Hashtbl.find_opt tbl name with Some (c, _, _) -> c | None -> 0 in
  let self tbl name = match Hashtbl.find_opt tbl name with Some (_, t, _) -> t | None -> 0.0 in
  let per_call tbl name = per (calls tbl name) (self tbl name) in
  let us tbl name = per_call tbl name *. 1e6 and msec tbl name = per_call tbl name *. 1e3 in
  let counter name =
    match Hashtbl.find_opt rp.counts name with Some (s, c) -> per c (float_of_int s) | None -> 0.0
  in
  let service_sum, service_cnt = service_delta before after "hgd_latency_seconds" in
  let service_cnt = service_cnt -. scrape_control_requests in
  let qsum, qcnt = service_delta before after "hgd_queue_wait_seconds" in
  let d name = M.delta ~before:before.prom ~after:after.prom name in
  let di name = M.delta ~before:before.info ~after:after.info name in
  let hits = d "hgd_cache_hits" and misses = d "hgd_cache_misses" in
  let casc = di "kcore_cascade_repairs" and comp = di "kcore_component_repairs"
  and repeel = di "kcore_full_repeels" in
  let repairs = casc +. comp +. repeel in
  let share x = if repairs = 0.0 then 0.0 else x /. repairs in
  let mutations = d "hgd_mutations_total" in
  let replayed =
    match Hashtbl.find_opt measured "server.request" with Some (_, _, total) -> total | None -> 0.0
  in
  let gc key set = M.lookup set key in
  let req1 = float_of_int inst.sent and req0 = float_of_int base.inst.sent in
  let gc_per key = (gc key gc1 -. gc key gc0) /. (req1 -. req0) in
  let reads_of ph = Array.concat (samples (fun r -> r.reads) ph) in
  let p50 ph = match reads_of ph with [||] -> 0.0 | a -> M.median a in
  let values =
    [
      ("frontend.unix_overhead_us", unix_overhead);
      ("frontend.tcp_overhead_us", tcp_overhead);
      ("worker.queue_wait_us", (if qcnt > 0.0 then qsum /. qcnt else 0.0) *. 1e6);
      ("server.service_us", service_sum /. service_cnt *. 1e6);
      ("protocol.parse_us", us measured "protocol.parse");
      ("protocol.encode_us", us measured "protocol.encode");
      ("protocol.reply_bytes", per rp.requests (float_of_int rp.reply_bytes));
      ("cache.lookup_us", us measured "cache.lookup");
      ("cache.hit_ratio", if hits +. misses = 0.0 then 0.0 else hits /. (hits +. misses));
      ("telemetry.per_req_us", per rp.requests (self measured "telemetry") *. 1e6);
      ("registry.find_us", us measured "registry.find");
      ("registry.mutate_us", us measured "registry.mutate");
      ("registry.load_ms", msec all "registry.load");
      ("wal.append_us", us measured "wal.append");
      ("wal.bytes_per_op", bytes_per_op);
      ("live.apply_us", us measured "live.apply");
      ("live.publish_us", us measured "live.publish");
      ("maintain.repair_us", us measured "maintain.repair");
      ("maintain.visited_per_op", if mutations = 0.0 then 0.0 else di "kcore_repair_visited_total" /. mutations);
      ("maintain.cascade_share", share casc);
      ("maintain.component_share", share comp);
      ("maintain.repeel_share", share repeel);
      ("maintain.create_ms", msec all "maintain.create");
    ]
    @ List.concat_map
        (fun role ->
          [
            ("core.max_core_ms." ^ role, msec all ("core.max_core." ^ role));
            ("core.k_core_ms." ^ role, msec all ("core.k_core." ^ role));
            ("core.peel_rounds." ^ role, counter ("core.peel_rounds." ^ role));
            ("core.maximality_checks." ^ role, counter ("core.maximality_checks." ^ role));
            ("path.sweep_ms." ^ role, msec all ("path.sweep." ^ role));
            ("path.bfs_sources." ^ role, counter ("path.bfs_sources." ^ role));
            ("cover.solve_ms." ^ role, msec all ("cover.solve." ^ role));
          ])
        [ "sparse"; "dense" ]
    @ [
        ("core.of_decomposition_us", us measured "core.of_decomposition");
        ("stats.powerlaw_us", us all "stats.powerlaw");
        ("io.parse_ms", msec all "io.parse");
        ("snapshot.load_ms", msec all "snapshot.load");
        (* Whole words: the exit report spans the process lifetime,
           whose scheduling-dependent allocations (idle poll wake-ups,
           the printed width of timings) add well under one word per
           request. *)
        ("gc.minor_words_per_req", Float.round (gc_per "minor_words"));
        ("gc.minor_collections_per_kreq", 1000.0 *. gc_per "minor_collections");
        ("gc.major_collections_per_kreq", 1000.0 *. gc_per "major_collections");
        ("gc.top_heap_mb", gc "top_heap_words" gc1 *. 8.0 /. 1048576.0);
        ("generator.cpu_ms_per_req", per (completed pa) (ms pa.gen_cpu));
        ("trace.coverage", if service_sum > 0.0 then replayed /. service_sum else 0.0);
        ("trace.overhead_ms", ms (p50 pb -. p50 pa));
      ]
  in
  Printf.printf "trace.coverage workload=%s %.4f (replayed %.6f s of hgd's %.6f s service time)\n"
    wl.name (List.assoc "trace.coverage" values) replayed service_sum;
  (* The generator's own phase-B spans: where its time per request went. *)
  let client = Hashtbl.create 8 in
  Array.iter
    (fun spans ->
      Hashtbl.iter
        (fun name (c, self, _) ->
          let c0, s0 = Option.value (Hashtbl.find_opt client name) ~default:(0, 0.0) in
          Hashtbl.replace client name (c0 + c, s0 +. self))
        (M.by_name spans))
    pb.spans;
  let words =
    Array.fold_left
      (Array.fold_left (fun acc sp -> if sp.M.parent < 0 then acc +. sp.M.words else acc))
      0.0 pb.spans
  in
  Printf.printf "client spans, mean self us per call: %s; %.0f words allocated per request\n"
    (String.concat ", "
       (List.map
          (fun name ->
            let c, t = Option.value (Hashtbl.find_opt client name) ~default:(0, 0.0) in
            Printf.sprintf "%s %.3f" name (per c t *. 1e6))
          [ "request"; "encode"; "round_trip"; "decode" ]))
    (per (completed pb) words);
  List.iter
    (fun (name, unit, layer, moves, hl) ->
      Printf.printf "layer %-34s %14.4f %-6s | %s | moves %s | heavy/light %s\n" name
        (List.assoc name values) unit layer moves hl)
    layer_table;
  let metrics = List.map (fun (name, unit, _, _, _) -> (name, List.assoc name values, unit)) layer_table in
  print_result ~correct:(!failures = 0) ~attempted:(max 1 !attempted) ~failed:!failures metrics;
  !failures = 0

(* ---------- command line ---------- *)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 25.0 and trace = ref 0 in
  let bin = ref "_build/default/bin/hgd.exe" in
  let usage =
    "hgbench --workload NAME --seed N [--seconds S] [--trace 0|1] [--hgd PATH]"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "unix_reads | tcp_reads | cold_analyses | mixed_writes");
      ("--seed", Arg.Set_int seed, "N  datasets and request streams derive from it");
      ("--seconds", Arg.Set_float seconds, "S  length of the measured phase (default 25)");
      ("--trace", Arg.Set_int trace, "0|1  1 = traced run, per-layer metrics");
      ("--hgd", Arg.Set_string bin, "PATH  the hgd binary (default _build/default/bin/hgd.exe)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !seed < 0 then die "--seed N (N >= 0) is required";
  if !seconds <= 0.0 then die "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
  if not (Sys.file_exists !bin) then die "no hgd binary at %s (build it first)" !bin;
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> ());
  (* However the run ends (an uncaught exception too), stop every hgd
     and remove the run's files. *)
  at_exit cleanup;
  List.iter
    (fun signal ->
      Sys.set_signal signal
        (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigint; Sys.sigterm ];
  (try Unix.mkdir ".bench_run" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  run_dir := Printf.sprintf ".bench_run/%s-s%d-p%d" !workload !seed (Unix.getpid ());
  Unix.mkdir !run_dir 0o755;
  let wl = make_workload ~name:!workload ~seed:!seed ~seconds:!seconds ~tmp_dir:!run_dir in
  let ok =
    if !trace = 0 then untraced ~bin:!bin ~wl ~seconds:!seconds
    else traced ~bin:!bin ~wl
  in
  exit (if ok then 0 else 1)
