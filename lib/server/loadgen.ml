(* Many-connection TCP load generator for hgd.

   Two measured phases against one live server: a single connection
   issuing the mixed workload alone (the round-trip floor), then
   [connections] concurrent clients issuing the same mix — each client
   a plain blocking {!Client} on its own thread, which is exactly the
   traffic shape the event loop exists to absorb.  The ratio of the
   two throughputs ("scaleup") is the number the CI guard watches:
   it is a same-host ratio, so it transfers across machines the way
   the kernel-bench speedup guards do.

   Optionally [stalled] extra connections connect, send *half* a
   request line, and hold the socket open for the whole loaded phase —
   the regression shape for the head-of-line-blocking bugs this
   front end was built against.  They are not counted in throughput;
   the measured clients simply must not care. *)

type config = {
  host : string;
  port : int;
  connections : int;
  requests_per_conn : int;
  dataset : string option;
      (* Digest for the KCORE/STATS mix; [None] degrades to a
         PING-and-batch mix that needs no resident dataset. *)
  stalled : int;
  seed : int;
  mutate : float;
      (* Fraction of requests that are ADDVERTEX/ADDEDGE/DELEDGE
         against [dataset], exercising the WAL + incremental-repair
         write path under the same concurrency; 0 keeps the mix
         read-only.  Needs [dataset]. *)
}

let default_config ~host ~port =
  {
    host;
    port;
    connections = 64;
    requests_per_conn = 50;
    dataset = None;
    stalled = 0;
    seed = 0x10ad;
    mutate = 0.0;
  }

type percentiles = {
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  max_ms : float;
  mean_ms : float;
}

type phase = {
  label : string;
  connections : int;
  requests : int;    (* completed successfully *)
  failures : int;    (* transport errors + ERR replies *)
  mutations : int;   (* mutation requests acknowledged OK *)
  mutation_races : int;
      (* Mutations the server rejected with a protocol ERR — under
         concurrent writers DELEDGE ids go stale as neighbours shift
         them, which is expected contention, not a failure. *)
  elapsed_s : float;
  throughput_rps : float;
  latency : percentiles;
}

type report = { single : phase; loaded : phase; scaleup : float }

(* ---------- workload mix ---------- *)

let pick_request prng dataset =
  let module P = Protocol in
  match dataset with
  | None -> (
    match Hp_util.Prng.int prng 4 with
    | 0 | 1 -> `One P.Ping
    | 2 -> `Batch [ P.Ping; P.Ping ]
    | _ -> `One P.Datasets)
  | Some d -> (
    (* KCORE and STATS replies come out of the result cache after the
       warm-up request, so the mix measures protocol + event-loop
       round trips, not kernel time. *)
    match Hp_util.Prng.int prng 8 with
    | 0 | 1 -> `One P.Ping
    | 2 | 3 -> `One (P.Analyze { dataset = d; analysis = P.Kcore (Some 2) })
    | 4 -> `One (P.Analyze { dataset = d; analysis = P.Kcore None })
    | 5 -> `One (P.Analyze { dataset = d; analysis = P.Stats })
    | 6 ->
      `Batch
        [
          P.Ping;
          P.Analyze { dataset = d; analysis = P.Kcore (Some 2) };
          P.Analyze { dataset = d; analysis = P.Stats };
        ]
    | _ -> `One (P.Analyze { dataset = d; analysis = P.Powerlaw }))

(* Per-client mutation state: names are made unique by phase label and
   client index so ADDVERTEX never collides with a sibling; edge ids
   handed back in [assigned] are remembered for later DELEDGE.  Other
   clients' deletes shift ids, so a remembered id can go stale — the
   server answers ERR, which is accounted as a race, not a failure. *)
type mut_state = {
  mutable tracked_edges : int list;  (* ids this client added, newest first *)
  mutable known_vertices : int;      (* count from the last mutation reply *)
  mutable next_name : int;
}

let pick_mutation prng st ~tag dataset =
  let module P = Protocol in
  let fresh_name prefix =
    let n = st.next_name in
    st.next_name <- n + 1;
    Printf.sprintf "%s%s%d" prefix tag n
  in
  match Hp_util.Prng.int prng 6 with
  | (0 | 1) when st.tracked_edges <> [] ->
    let e = List.hd st.tracked_edges in
    st.tracked_edges <- List.tl st.tracked_edges;
    `Del (P.Del_edge { dataset; edge = e })
  | (2 | 3) when st.known_vertices >= 2 ->
    let k = 2 + Hp_util.Prng.int prng 3 in
    let members =
      Array.to_list
        (Hp_util.Prng.sample_without_replacement prng
           (min k st.known_vertices) st.known_vertices)
    in
    `Add_edge (P.Add_edge { dataset; name = fresh_name "le"; members })
  | _ -> `Add_vertex (P.Add_vertex { dataset; name = fresh_name "lv" })

(* One client: dial once, run the whole request budget on that
   connection, record per-request latency.  A transport error kills
   the connection, so the remaining budget is counted as failed. *)
let run_client (cfg : config) ~tag ~idx ~out_latencies ~out_failures
    ~out_mutations ~out_races =
  let prng = Hp_util.Prng.create (cfg.seed + (idx * 7919)) in
  let addr = Client.Tcp { host = cfg.host; port = cfg.port } in
  match Client.connect_addr addr with
  | Error _ -> out_failures := !out_failures + cfg.requests_per_conn
  | Ok c ->
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () ->
        Client.set_timeout c 30.0;
        let st = { tracked_edges = []; known_vertices = 0; next_name = 0 } in
        let tag = Printf.sprintf "%s_%d_" tag idx in
        let alive = ref true in
        for _ = 1 to cfg.requests_per_conn do
          if !alive then begin
            let t0 = Unix.gettimeofday () in
            let mutation =
              match cfg.dataset with
              | Some d when Hp_util.Prng.bool prng cfg.mutate ->
                Some (pick_mutation prng st ~tag d)
              | _ -> None
            in
            let outcome =
              match mutation with
              | Some m -> (
                let req =
                  match m with
                  | `Del r | `Add_edge r | `Add_vertex r -> r
                in
                match Client.request c req with
                | Ok (Protocol.Ok kvs) ->
                  (match List.assoc_opt "vertices" kvs with
                  | Some v -> (
                    match int_of_string_opt v with
                    | Some n -> st.known_vertices <- n
                    | None -> ())
                  | None -> ());
                  (match (m, List.assoc_opt "assigned" kvs) with
                  | `Add_edge _, Some id -> (
                    match int_of_string_opt id with
                    | Some e -> st.tracked_edges <- e :: st.tracked_edges
                    | None -> ())
                  | _ -> ());
                  incr out_mutations;
                  `Ok
                | Ok (Protocol.Err _) ->
                  (* Stale DELEDGE id or name collision under
                     contention: a race, not a broken server. *)
                  incr out_races;
                  `Race
                | Error _ -> `Dead)
              | None -> (
                match pick_request prng cfg.dataset with
                | `One req -> (
                  match Client.request c req with
                  | Ok (Protocol.Ok _) -> `Ok
                  | Ok (Protocol.Err _) -> `Err
                  | Error _ -> `Dead)
                | `Batch reqs -> (
                  match Client.batch c reqs with
                  | Ok (Client.Items items)
                    when List.for_all
                           (function Ok (Protocol.Ok _) -> true | _ -> false)
                           items ->
                    `Ok
                  | Ok _ -> `Err
                  | Error _ -> `Dead))
            in
            match outcome with
            | `Ok ->
              out_latencies :=
                ((Unix.gettimeofday () -. t0) *. 1000.0) :: !out_latencies
            | `Race -> ()
            | `Err -> incr out_failures
            | `Dead ->
              incr out_failures;
              alive := false
          end
          else incr out_failures
        done)

(* A stalled connection: half a request line, then hold until the
   phase ends.  [stop] is polled so the generator never outlives its
   phase by more than ~50 ms. *)
let run_stalled (cfg : config) ~stop =
  match Client.connect_addr (Client.Tcp { host = cfg.host; port = cfg.port }) with
  | Error _ -> ()
  | Ok c ->
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () ->
        (match Client.send_raw c "KCORE deadbeef" with
        | () -> ()
        | exception _ -> ());
        while not (Atomic.get stop) do
          Thread.delay 0.05
        done)

let percentiles_of latencies =
  match latencies with
  | [] -> { p50_ms = 0.0; p90_ms = 0.0; p99_ms = 0.0; max_ms = 0.0; mean_ms = 0.0 }
  | _ ->
    let a = Array.of_list latencies in
    Array.sort compare a;
    let n = Array.length a in
    let pct q = a.(min (n - 1) (int_of_float (q *. float_of_int n))) in
    {
      p50_ms = pct 0.50;
      p90_ms = pct 0.90;
      p99_ms = pct 0.99;
      max_ms = a.(n - 1);
      mean_ms = Array.fold_left ( +. ) 0.0 a /. float_of_int n;
    }

let run_phase (cfg : config) ~label ~connections ~stalled =
  let stop = Atomic.make false in
  let stalled_threads =
    List.init stalled (fun _ -> Thread.create (fun () -> run_stalled cfg ~stop) ())
  in
  (* Give the stalled connections time to be accepted and half-parsed
     before measurement starts, so they are in the way the whole time. *)
  if stalled > 0 then Thread.delay 0.1;
  let slots =
    List.init connections (fun idx -> (idx, ref [], ref 0, ref 0, ref 0))
  in
  let t0 = Unix.gettimeofday () in
  let threads =
    List.map
      (fun (idx, lats, fails, muts, races) ->
        Thread.create
          (fun () ->
            run_client cfg ~tag:label ~idx ~out_latencies:lats
              ~out_failures:fails ~out_mutations:muts ~out_races:races)
          ())
      slots
  in
  List.iter Thread.join threads;
  let elapsed = Unix.gettimeofday () -. t0 in
  Atomic.set stop true;
  List.iter Thread.join stalled_threads;
  let latencies = List.concat_map (fun (_, l, _, _, _) -> !l) slots in
  let sum f = List.fold_left (fun acc slot -> acc + !(f slot)) 0 slots in
  let failures = sum (fun (_, _, f, _, _) -> f) in
  let mutations = sum (fun (_, _, _, m, _) -> m) in
  let mutation_races = sum (fun (_, _, _, _, r) -> r) in
  let requests = List.length latencies in
  {
    label;
    connections;
    requests;
    failures;
    mutations;
    mutation_races;
    elapsed_s = elapsed;
    throughput_rps =
      (if elapsed > 0.0 then float_of_int requests /. elapsed else 0.0);
    latency = percentiles_of latencies;
  }

let run (cfg : config) =
  if cfg.connections < 1 then Error "loadgen: connections must be >= 1"
  else if cfg.requests_per_conn < 1 then
    Error "loadgen: requests-per-conn must be >= 1"
  else if cfg.mutate < 0.0 || cfg.mutate > 1.0 then
    Error "loadgen: mutate must be in [0, 1]"
  else if cfg.mutate > 0.0 && cfg.dataset = None then
    Error "loadgen: mutate needs a dataset to mutate"
  else begin
    (* Warm the result cache (and prove the server is reachable) so
       phase throughput measures the socket path, not first-compute. *)
    let warm =
      let addr = Client.Tcp { host = cfg.host; port = cfg.port } in
      Client.with_connection_addr addr (fun c ->
          Client.set_timeout c 30.0;
          let reqs =
            Protocol.Ping
            ::
            (match cfg.dataset with
            | None -> []
            | Some d ->
              [
                Protocol.Analyze { dataset = d; analysis = Protocol.Kcore (Some 2) };
                Protocol.Analyze { dataset = d; analysis = Protocol.Kcore None };
                Protocol.Analyze { dataset = d; analysis = Protocol.Stats };
                Protocol.Analyze { dataset = d; analysis = Protocol.Powerlaw };
              ])
          in
          List.fold_left
            (fun acc req ->
              Result.bind acc (fun () ->
                  match Client.request c req with
                  | Ok (Protocol.Ok _) -> Ok ()
                  | Ok (Protocol.Err { message; _ }) ->
                    Error ("loadgen warm-up rejected: " ^ message)
                  | Error msg -> Error ("loadgen warm-up failed: " ^ msg)))
            (Ok ()) reqs)
    in
    match warm with
    | Error _ as e -> e
    | Ok () ->
      let single = run_phase cfg ~label:"single" ~connections:1 ~stalled:0 in
      let loaded =
        run_phase cfg ~label:"loaded" ~connections:cfg.connections
          ~stalled:cfg.stalled
      in
      let scaleup =
        if single.throughput_rps > 0.0 then
          loaded.throughput_rps /. single.throughput_rps
        else 0.0
      in
      Ok { single; loaded; scaleup }
  end

(* ---------- report / guard ---------- *)

let json_of_phase p =
  Printf.sprintf
    {|{"label":"%s","connections":%d,"requests":%d,"failures":%d,"mutations":%d,"mutation_races":%d,"elapsed_s":%.3f,"throughput_rps":%.1f,"latency_ms":{"p50":%.3f,"p90":%.3f,"p99":%.3f,"max":%.3f,"mean":%.3f}}|}
    p.label p.connections p.requests p.failures p.mutations p.mutation_races
    p.elapsed_s p.throughput_rps p.latency.p50_ms p.latency.p90_ms
    p.latency.p99_ms p.latency.max_ms p.latency.mean_ms

let to_json ~generated_at r =
  Printf.sprintf
    {|{"schema":1,"bench":"tcp_loadgen","generated_at":"%s","single":%s,"loaded":%s,"scaleup":%.2f}|}
    generated_at (json_of_phase r.single) (json_of_phase r.loaded) r.scaleup
  ^ "\n"

(* Minimal field scrape for the committed baseline — the schema is
   ours, so a full JSON parser buys nothing (same stance as the
   kernel-bench guards). *)
let scrape_float ~field s =
  let needle = "\"" ^ field ^ "\":" in
  match
    let at = ref None in
    let nl = String.length needle in
    for i = 0 to String.length s - nl do
      if !at = None && String.sub s i nl = needle then at := Some (i + nl)
    done;
    !at
  with
  | None -> None
  | Some start ->
    let stop = ref start in
    let len = String.length s in
    while
      !stop < len
      && (match s.[!stop] with
         | '0' .. '9' | '.' | '-' | 'e' | 'E' | '+' -> true
         | _ -> false)
    do
      incr stop
    done;
    float_of_string_opt (String.sub s start (!stop - start))

let baseline_scaleup s =
  match scrape_float ~field:"scaleup" s with
  | Some want -> Ok want
  | None -> Error "tcp loadgen guard: baseline has no \"scaleup\" field"

let check ~baseline r =
  let total_failures = r.single.failures + r.loaded.failures in
  if total_failures > 0 then
    Error
      (Printf.sprintf "tcp loadgen guard: %d failed requests (want 0)"
         total_failures)
  else if r.scaleup < baseline /. 2.0 then
    (* Same-host ratio guard, kernel-bench style: fail only when the
       concurrency scaleup collapses below half its baseline. *)
    Error
      (Printf.sprintf
         "tcp loadgen guard: scaleup %.2fx below half the baseline %.2fx"
         r.scaleup baseline)
  else Ok ()
