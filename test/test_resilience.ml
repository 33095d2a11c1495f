(* Failure containment: cooperative deadlines, the fault-injection
   harness, worker crash-respawn, admission control / load shedding,
   client retry, and chaos runs against an in-process server with
   failpoints armed (killed workers, injected read errors, slow
   kernels, truncated replies). *)

module P = Hp_server.Protocol
module Server = Hp_server.Server
module Client = Hp_server.Client
module Registry = Hp_server.Registry
module Worker = Hp_server.Worker
module Deadline = Hp_util.Deadline
module Fault = Hp_util.Fault

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

(* Poll until [cond ()]; chaos tests must tolerate scheduler delay but
   fail loudly rather than hang. *)
let eventually ?(timeout = 10.0) what cond =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if cond () then ()
    else if Unix.gettimeofday () -. t0 > timeout then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Unix.sleepf 0.02;
      go ()
    end
  in
  go ()

(* ---------- deadlines ---------- *)

let test_deadline_basics () =
  checkb "never does not expire" false (Deadline.expired Deadline.never);
  Deadline.check Deadline.never;
  Deadline.cancel Deadline.never;
  (* The shared constant must stay inert even after a cancel call. *)
  Deadline.check Deadline.never;
  checkb "of_timeout 0 never expires" false
    (Deadline.expired (Deadline.of_timeout 0.0));
  checkb "remaining of never" true
    (Deadline.remaining Deadline.never = infinity);
  let d = Deadline.after ~stride:1 0.0 in
  checkb "zero budget expires" true (Deadline.expired d);
  (match Deadline.check d with
  | () -> Alcotest.fail "check on an expired deadline should raise"
  | exception Deadline.Expired -> ());
  checkb "remaining clamps at zero" true (Deadline.remaining d = 0.0)

let test_deadline_cancel () =
  let d = Deadline.after ~stride:1 60.0 in
  Deadline.check d;
  checkb "fresh token not expired" false (Deadline.expired d);
  Deadline.cancel d;
  checkb "cancelled token expired" true (Deadline.expired d);
  match Deadline.check d with
  | () -> Alcotest.fail "cancelled deadline should raise"
  | exception Deadline.Expired -> ()

let test_deadline_stride () =
  (* With a large stride, expiry is still observed on the next clock
     read, never skipped forever. *)
  let d = Deadline.after ~stride:4 0.005 in
  Unix.sleepf 0.02;
  match
    for _ = 1 to 100 do
      Deadline.check d
    done
  with
  | () -> Alcotest.fail "strided check should notice an expired budget"
  | exception Deadline.Expired -> ()

(* ---------- fault injection ---------- *)

let with_faults spec f =
  (match Fault.configure spec with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "configure %S: %s" spec msg);
  Fun.protect ~finally:Fault.reset f

let test_fault_spec_rejects () =
  let bad spec =
    match Fault.configure spec with
    | Ok () -> Alcotest.failf "%S should not configure" spec
    | Error _ -> Fault.reset ()
  in
  bad "noequals";
  bad "x=frob";
  bad "x=err*many";
  bad "x=sleep:";
  bad "x=err%2.0";
  bad "=err"

let test_fault_count_and_skip () =
  with_faults "boom=err*2+1" (fun () ->
      Fault.point "boom";
      (* skipped *)
      (match Fault.point "boom" with
      | () -> Alcotest.fail "second hit should fire"
      | exception Fault.Injected "boom" -> ());
      (match Fault.point "boom" with
      | () -> Alcotest.fail "third hit should fire"
      | exception Fault.Injected "boom" -> ());
      Fault.point "boom";
      (* budget of 2 exhausted *)
      check "hits" 4 (Fault.hits "boom");
      check "fired" 2 (Fault.fired "boom");
      Fault.point "unarmed" (* unknown names are no-ops *))

let test_fault_prob_deterministic () =
  let run () =
    with_faults "maybe=err%0.5@42" (fun () ->
        List.init 64 (fun _ -> Fault.fires "maybe"))
  in
  let a = run () and b = run () in
  checkb "same seed, same firing pattern" true (a = b);
  checkb "fires sometimes" true (List.mem true a);
  checkb "passes sometimes" true (List.mem false a)

let test_fault_sleep_and_kill () =
  with_faults "slow=sleep:30*1;die=kill*1" (fun () ->
      let t0 = Unix.gettimeofday () in
      Fault.point "slow";
      checkb "sleep arm delays" true (Unix.gettimeofday () -. t0 >= 0.025);
      match Fault.point "die" with
      | () -> Alcotest.fail "kill arm should raise"
      | exception Fault.Killed "die" -> ())

(* ---------- worker pool supervision ---------- *)

exception Boom

let test_worker_captures_exceptions () =
  let served = Atomic.make 0 in
  let pool =
    Worker.create ~workers:2
      ~lethal:(function Fault.Killed _ -> true | _ -> false)
      (fun job ->
        if job = `Raise then raise Boom else Atomic.incr served)
  in
  Fun.protect ~finally:(fun () -> Worker.shutdown pool) @@ fun () ->
  checkb "accepted" true (Worker.submit pool `Raise = `Accepted);
  eventually "captured exception" (fun () -> Worker.exceptions pool = 1);
  for _ = 1 to 8 do
    ignore (Worker.submit pool `Work)
  done;
  eventually "jobs after capture" (fun () -> Atomic.get served = 8);
  check "no restarts for captured exceptions" 0 (Worker.restarts pool)

let test_worker_crash_respawn () =
  let served = Atomic.make 0 in
  let pool =
    Worker.create ~workers:2
      ~lethal:(function Fault.Killed _ -> true | _ -> false)
      (fun job ->
        if job = `Die then raise (Fault.Killed "test") else Atomic.incr served)
  in
  Fun.protect ~finally:(fun () -> Worker.shutdown pool) @@ fun () ->
  checkb "kill job accepted" true (Worker.submit pool `Die = `Accepted);
  eventually "respawn" (fun () -> Worker.restarts pool = 1);
  check "pool size stable" 2 (Worker.size pool);
  for _ = 1 to 8 do
    ignore (Worker.submit pool `Work)
  done;
  eventually "jobs after respawn" (fun () -> Atomic.get served = 8)

let test_worker_backpressure () =
  let release = Atomic.make false in
  let pool =
    Worker.create ~workers:1 ~max_pending:1 (fun `Job ->
        while not (Atomic.get release) do
          Unix.sleepf 0.005
        done)
  in
  let finish () =
    Atomic.set release true;
    Worker.shutdown pool
  in
  Fun.protect ~finally:finish @@ fun () ->
  checkb "first job accepted" true (Worker.submit pool `Job = `Accepted);
  eventually "worker picked up the job" (fun () -> Worker.pending pool = 0);
  checkb "queue slot accepted" true (Worker.submit pool `Job = `Accepted);
  (match Worker.submit pool `Job with
  | `Busy depth -> check "busy reports depth" 1 depth
  | `Accepted | `Stopping -> Alcotest.fail "third job should be rejected busy")

let test_worker_submit_after_shutdown () =
  let pool = Worker.create ~workers:1 (fun `Job -> ()) in
  Worker.shutdown pool;
  checkb "stopping" true (Worker.submit pool `Job = `Stopping)

(* ---------- deadlines in the kernels ---------- *)

let chain_hg n =
  let buf = Buffer.create (n * 12) in
  for i = 0 to n - 2 do
    Buffer.add_string buf (Printf.sprintf "c%d: v%d v%d\n" i i (i + 1))
  done;
  Buffer.contents buf

let chain n = Hp_hypergraph.Hypergraph_io.of_string (chain_hg n)

let test_kcore_deadline_abort () =
  let h = chain 200 in
  let d = Deadline.after ~stride:1 0.0 in
  (match Hp_hypergraph.Hypergraph_core.k_core ~deadline:d h 2 with
  | _ -> Alcotest.fail "k_core should abort on an expired deadline"
  | exception Deadline.Expired -> ());
  match Hp_hypergraph.Hypergraph_core.decompose ~deadline:d h with
  | _ -> Alcotest.fail "decompose should abort on an expired deadline"
  | exception Deadline.Expired -> ()

let test_diameter_deadline_abort () =
  let h = chain 64 in
  let d = Deadline.after ~stride:1 0.0 in
  (match Hp_hypergraph.Hypergraph_path.diameter_and_average_path ~deadline:d h with
  | _ -> Alcotest.fail "diameter should abort on an expired deadline"
  | exception Deadline.Expired -> ());
  (* Expired must also propagate out of the parallel sweep's domains. *)
  match
    Hp_hypergraph.Hypergraph_path.diameter_and_average_path ~domains:2
      ~deadline:(Deadline.after ~stride:1 0.0)
      h
  with
  | _ -> Alcotest.fail "parallel diameter should abort too"
  | exception Deadline.Expired -> ()

(* ---------- client backoff ---------- *)

let test_backoff_deterministic () =
  let policy =
    { Client.default_policy with base_delay_ms = 100; max_delay_ms = 5000 }
  in
  let schedule seed =
    let prng = Hp_util.Prng.create seed in
    List.init 8 (fun i ->
        Client.retry_delay_ms ~policy ~prng ~attempt:(i + 1) ~hint_ms:None)
  in
  checkb "same seed, same schedule" true (schedule 7 = schedule 7);
  let delays = schedule 7 in
  List.iteri
    (fun i d ->
      let ceiling = min (100 * (1 lsl i)) 5000 in
      checkb
        (Printf.sprintf "attempt %d in [%d, %d], got %d" (i + 1) (ceiling / 2)
           ceiling d)
        true
        (d >= ceiling / 2 && d <= ceiling))
    delays

let test_backoff_honors_hint () =
  let policy = { Client.default_policy with base_delay_ms = 10; max_delay_ms = 50 } in
  let prng = Hp_util.Prng.create 1 in
  let d = Client.retry_delay_ms ~policy ~prng ~attempt:1 ~hint_ms:(Some 777) in
  checkb "server hint is a floor" true (d >= 777)

let test_backoff_hint_keeps_jitter () =
  (* The hint floors the jitter *window*, not the drawn value: a herd
     of rejected clients quoting the same retry_after_ms must still
     spread out.  The old [max hint jittered] collapsed every delay to
     exactly [hint] whenever the hint dominated the backoff step. *)
  let policy =
    { Client.default_policy with base_delay_ms = 100; max_delay_ms = 5000 }
  in
  let hint = 2000 in
  let draws =
    List.init 64 (fun seed ->
        let prng = Hp_util.Prng.create (seed * 31 + 1) in
        Client.retry_delay_ms ~policy ~prng ~attempt:1 ~hint_ms:(Some hint))
  in
  List.iter
    (fun d ->
      checkb
        (Printf.sprintf "delay %d in [hint, hint + max_delay]" d)
        true
        (d >= hint && d <= hint + policy.Client.max_delay_ms))
    draws;
  checkb "jitter survives a dominant hint" true
    (List.length (List.sort_uniq compare draws) > 8)

let test_backoff_busy_schedule () =
  (* The exact busy -> retry schedule: every attempt respects both the
     hint floor and the hint + max_delay ceiling, and without a hint
     the plain equal-jitter window applies. *)
  let policy =
    { Client.default_policy with base_delay_ms = 100; max_delay_ms = 5000 }
  in
  let prng = Hp_util.Prng.create 42 in
  for attempt = 1 to 8 do
    let ceiling = min (100 * (1 lsl (attempt - 1))) 5000 in
    let hinted =
      Client.retry_delay_ms ~policy ~prng ~attempt ~hint_ms:(Some 300)
    in
    checkb
      (Printf.sprintf "attempt %d hinted %d in [%d, %d]" attempt hinted
         (max 300 (ceiling / 2))
         (300 + 5000))
      true
      (hinted >= max 300 (ceiling / 2) && hinted <= 300 + 5000);
    let plain = Client.retry_delay_ms ~policy ~prng ~attempt ~hint_ms:None in
    checkb
      (Printf.sprintf "attempt %d plain %d in [%d, %d]" attempt plain
         (ceiling / 2) ceiling)
      true
      (plain >= ceiling / 2 && plain <= ceiling);
    (* A nonsensical negative hint degrades to the plain window. *)
    let negative =
      Client.retry_delay_ms ~policy ~prng ~attempt ~hint_ms:(Some (-7))
    in
    checkb "negative hint clamped" true
      (negative >= ceiling / 2 && negative <= ceiling)
  done

let test_client_stale_socket () =
  let dir = Filename.temp_dir "hgd" "stale" in
  let path = Filename.concat dir "stale.sock" in
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 1;
  Unix.close fd;
  (* The file is still there, but nobody is listening. *)
  (match Client.connect ~socket_path:path with
  | Ok _ -> Alcotest.fail "connect to a dead socket should fail"
  | Error msg -> checkb ("stale named: " ^ msg) true (contains ~needle:"stale" msg));
  (match Client.connect ~socket_path:(Filename.concat dir "absent.sock") with
  | Ok _ -> Alcotest.fail "connect to a missing socket should fail"
  | Error msg ->
    checkb ("missing named: " ^ msg) true (contains ~needle:"hgd" msg));
  (* A restarting server replaces the stale file and serves again. *)
  let config = { (Server.default_config ~socket_path:path) with workers = 1 } in
  match Server.start config with
  | Error msg -> Alcotest.failf "restart over stale socket failed: %s" msg
  | Ok t ->
    Fun.protect ~finally:(fun () -> Server.stop t) @@ fun () ->
    (match
       Client.with_connection ~socket_path:path (fun c -> Client.request c P.Ping)
     with
    | Ok (P.Ok _) -> ()
    | _ -> Alcotest.fail "restarted server should answer PING")

(* ---------- chaos: in-process server with failpoints ---------- *)

let write_file path content =
  let oc = open_out path in
  output_string oc content;
  close_out oc

let tiny_hg = "# test\nc1: a b c\nc2: b c d\nc3: c d e\n"

let with_server ?(workers = 2) ?(queue_limit = 128) ?(shed_watermark = 0)
    ?(request_timeout = 30.0) ?(max_file_bytes = 0) ?(failpoints = "") f =
  let dir = Filename.temp_dir "hgd" "resilience" in
  let socket_path = Filename.concat dir "hgd.sock" in
  let config =
    {
      (Server.default_config ~socket_path) with
      workers;
      cache_capacity = 16;
      queue_limit;
      shed_watermark;
      request_timeout;
      max_file_bytes;
      failpoints;
    }
  in
  match Server.start config with
  | Error msg -> Alcotest.failf "server start failed: %s" msg
  | Ok t ->
    let finish () =
      Server.stop t;
      (* Failpoints are process-global; never leak into the next test. *)
      Fault.reset ()
    in
    Fun.protect ~finally:finish (fun () -> f dir socket_path)

let expect_ok what = function
  | Ok (P.Ok kvs) -> kvs
  | Ok (P.Err { code; message; _ }) ->
    Alcotest.failf "%s: unexpected ERR %s %s" what (P.error_code_to_string code)
      message
  | Error msg -> Alcotest.failf "%s: transport error %s" what msg

let metric socket_path name =
  let kvs =
    expect_ok ("metrics for " ^ name)
      (Client.with_connection ~socket_path (fun c -> Client.request c (P.Metrics P.Table)))
  in
  match List.assoc_opt name kvs with
  | Some v -> int_of_string v
  | None -> 0

let test_chaos_worker_kill () =
  with_server ~failpoints:"worker.job=kill*1" (fun _dir socket_path ->
      (* The first job kills its worker; that client just loses the
         connection... *)
      (match
         Client.with_connection ~socket_path (fun c -> Client.request c P.Ping)
       with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "first connection should die with its worker");
      (* ...the supervisor respawns the domain, and service continues. *)
      eventually "worker respawn" (fun () ->
          metric socket_path "worker_restarts" >= 1);
      let pong =
        expect_ok "after respawn"
          (Client.with_connection ~socket_path (fun c -> Client.request c P.Ping))
      in
      checks "pong" "hgd" (List.assoc "pong" pong))

let test_chaos_injected_read_error () =
  with_server ~failpoints:"registry.read=err*1" (fun dir socket_path ->
      let data = Filename.concat dir "tiny.hg" in
      write_file data tiny_hg;
      (match
         Client.with_connection ~socket_path (fun c ->
             Client.request c (P.Load data))
       with
      | Ok (P.Err { code = P.Io_error; message; _ }) ->
        checkb ("injected named: " ^ message) true
          (contains ~needle:"injected" message)
      | _ -> Alcotest.fail "injected read should be ERR io_error");
      (* One-shot fault: the retry succeeds and the daemon is healthy. *)
      let loaded =
        expect_ok "load after fault"
          (Client.with_connection ~socket_path (fun c ->
               Client.request c (P.Load data)))
      in
      checks "fresh load" "true" (List.assoc "fresh" loaded))

let test_chaos_deadline_abort () =
  (* Budget 0.5 s; every peel iteration sleeps 20 ms, so the strided
     deadline check (every 32 iterations) trips at ~0.64 s — the reply
     must arrive well inside 2x the budget instead of running the full
     ~4 s of injected delay. *)
  with_server ~request_timeout:0.5 ~failpoints:"core.peel=sleep:20"
    (fun dir socket_path ->
      let data = Filename.concat dir "chain.hg" in
      write_file data (chain_hg 200);
      let digest =
        Client.with_connection ~socket_path (fun c ->
            Client.request c (P.Load data))
        |> expect_ok "load" |> List.assoc "digest"
      in
      let t0 = Unix.gettimeofday () in
      let reply =
        Client.with_connection ~socket_path (fun c ->
            Client.request c
              (P.Analyze { dataset = digest; analysis = P.Kcore (Some 2) }))
      in
      let elapsed = Unix.gettimeofday () -. t0 in
      (match reply with
      | Ok (P.Err { code = P.Timeout; message; _ }) ->
        checkb ("aborted mid-compute: " ^ message) true
          (contains ~needle:"aborted" message)
      | _ -> Alcotest.fail "over-budget kcore should be ERR timeout");
      checkb
        (Printf.sprintf "prompt abort (%.2f s <= 1.0 s)" elapsed)
        true (elapsed <= 1.0);
      checkb "timeouts counted" true (metric socket_path "timeouts" >= 1))

let test_chaos_busy_and_retry () =
  with_server ~workers:1 ~queue_limit:1 (fun _dir socket_path ->
      (* c1 parks on the only worker; c2 takes the one queue slot; c3
         must be turned away at the door with a retry hint. *)
      let c1 =
        match Client.connect ~socket_path with
        | Ok c -> c
        | Error msg -> Alcotest.failf "c1 connect: %s" msg
      in
      ignore (expect_ok "c1 ping" (Client.request c1 P.Ping));
      let c2 =
        match Client.connect ~socket_path with
        | Ok c -> c
        | Error msg -> Alcotest.failf "c2 connect: %s" msg
      in
      Unix.sleepf 0.2;
      (* let the event loop hand c2 to the queue *)
      let c3 =
        match Client.connect ~socket_path with
        | Ok c -> c
        | Error msg -> Alcotest.failf "c3 connect: %s" msg
      in
      (match Client.request c3 P.Ping with
      | Ok (P.Err { code = P.Busy; retry_after_ms = Some ms; _ }) ->
        checkb "positive retry hint" true (ms > 0)
      | Ok (P.Err { code = P.Busy; retry_after_ms = None; _ }) ->
        Alcotest.fail "busy reply must carry retry_after_ms"
      | _ -> Alcotest.fail "over-admission connection should get ERR busy");
      Client.close c3;
      (* Free the pool; a retrying client then gets through. *)
      Client.close c1;
      Client.close c2;
      let policy =
        {
          Client.default_policy with
          retries = 8;
          base_delay_ms = 50;
          timeout = 5.0;
        }
      in
      let pong = expect_ok "retry breaks through" (Client.call ~policy ~socket_path P.Ping) in
      checks "pong after backoff" "hgd" (List.assoc "pong" pong);
      checkb "rejection counted" true
        (metric socket_path "busy_rejections" >= 1))

let test_chaos_shed_cache_only () =
  with_server ~workers:1 ~queue_limit:8 ~shed_watermark:1
    (fun dir socket_path ->
      let data = Filename.concat dir "tiny.hg" in
      write_file data tiny_hg;
      let c1 =
        match Client.connect ~socket_path with
        | Ok c -> c
        | Error msg -> Alcotest.failf "c1 connect: %s" msg
      in
      Fun.protect ~finally:(fun () -> Client.close c1) @@ fun () ->
      let digest =
        expect_ok "load" (Client.request c1 (P.Load data)) |> List.assoc "digest"
      in
      let stats =
        expect_ok "warm the cache"
          (Client.request c1 (P.Analyze { dataset = digest; analysis = P.Stats }))
      in
      checks "computed" "false" (List.assoc "cached" stats);
      (* Park a second connection in the queue to push depth to the
         watermark; c1's worker keeps serving c1. *)
      let c2 =
        match Client.connect ~socket_path with
        | Ok c -> c
        | Error msg -> Alcotest.failf "c2 connect: %s" msg
      in
      Fun.protect ~finally:(fun () -> Client.close c2) @@ fun () ->
      eventually "c2 queued" (fun () ->
          match Client.request c1 (P.Metrics P.Table) with
          | Ok (P.Ok kvs) -> List.assoc_opt "queue_pending" kvs = Some "1"
          | _ -> false);
      (* Cached analysis still served... *)
      let hit =
        expect_ok "cache hit under shedding"
          (Client.request c1 (P.Analyze { dataset = digest; analysis = P.Stats }))
      in
      checks "served from cache" "true" (List.assoc "cached" hit);
      (* ...a cache miss is shed with a hint instead of computed. *)
      (match
         Client.request c1 (P.Analyze { dataset = digest; analysis = P.Kcore None })
       with
      | Ok (P.Err { code = P.Busy; retry_after_ms = Some _; _ }) -> ()
      | _ -> Alcotest.fail "cache miss above watermark should be shed busy");
      let metrics = expect_ok "metrics" (Client.request c1 (P.Metrics P.Table)) in
      checkb "shed counted" true
        (int_of_string (List.assoc "shed_cacheonly" metrics) >= 1))

let test_chaos_truncated_reply () =
  with_server ~failpoints:"server.write.trunc=err*1" (fun _dir socket_path ->
      (match
         Client.with_connection ~socket_path (fun c -> Client.request c P.Ping)
       with
      | Error msg ->
        (* Not just any transport error: the torn tail is reported as
           a typed truncation, distinguishable from a clean close. *)
        checkb ("typed truncation: " ^ msg) true
          (contains ~needle:"truncated reply" msg)
      | Ok _ -> Alcotest.fail "truncated reply should be a client-side error");
      (* The worker survives (the write fault is a captured exception)
         and the next request is served whole. *)
      let pong =
        expect_ok "after truncation"
          (Client.with_connection ~socket_path (fun c -> Client.request c P.Ping))
      in
      checks "pong" "hgd" (List.assoc "pong" pong);
      (* The client observes the torn connection before the worker's
         exception path finishes accounting; poll rather than assert. *)
      eventually "exception captured" (fun () ->
          metric socket_path "worker_exceptions" >= 1))

let test_chaos_epipe_client_gone () =
  (* SIGPIPE/EPIPE regression: the client vanishes between request and
     reply.  The delayed write then hits a dead socket; the worker must
     account it and move on — not die, and certainly not take the
     process down via SIGPIPE. *)
  with_server ~failpoints:"server.write=sleep:150*1" (fun _dir socket_path ->
      (match Client.connect ~socket_path with
      | Error msg -> Alcotest.failf "connect: %s" msg
      | Ok c ->
        Client.send_raw c "PING\n";
        Client.close c);
      eventually "disconnect accounted" (fun () ->
          metric socket_path "client_disconnects" >= 1);
      (* The daemon is intact: same worker pool, next client served. *)
      let pong =
        expect_ok "after epipe"
          (Client.with_connection ~socket_path (fun c -> Client.request c P.Ping))
      in
      checks "pong" "hgd" (List.assoc "pong" pong);
      checkb "no worker lost to the dead client" true
        (metric socket_path "worker_restarts" = 0))

let test_oversized_request_line () =
  with_server (fun _dir socket_path ->
      let giant = String.make (P.max_line_bytes + 100) 'a' in
      (match
         Client.with_connection ~socket_path (fun c ->
             Client.request_line c giant)
       with
      | Ok (P.Err { code = P.Bad_request; message; _ }) ->
        checkb ("names the cap: " ^ message) true
          (contains ~needle:"exceeds" message)
      | Ok _ -> Alcotest.fail "oversized line should be ERR bad-request"
      | Error msg -> Alcotest.failf "oversized line: transport error %s" msg);
      (* The daemon is still healthy afterwards. *)
      ignore
        (expect_ok "after oversized"
           (Client.with_connection ~socket_path (fun c ->
                Client.request c P.Ping))))

let test_dataset_size_cap () =
  (* Unit level... *)
  let dir = Filename.temp_dir "hgd" "cap" in
  let big = Filename.concat dir "big.hg" in
  write_file big (chain_hg 64);
  let r = Registry.create ~max_file_bytes:32 () in
  (match Registry.load r big with
  | Error (Registry.Read_failed msg) ->
    checkb ("names the cap: " ^ msg) true (contains ~needle:"exceeds" msg)
  | _ -> Alcotest.fail "oversized dataset should be Read_failed");
  (* ...and through the wire. *)
  with_server ~max_file_bytes:32 (fun dir socket_path ->
      let data = Filename.concat dir "big.hg" in
      write_file data (chain_hg 64);
      match
        Client.with_connection ~socket_path (fun c ->
            Client.request c (P.Load data))
      with
      | Ok (P.Err { code = P.Io_error; message; _ }) ->
        checkb ("io_error names cap: " ^ message) true
          (contains ~needle:"exceeds" message)
      | _ -> Alcotest.fail "oversized dataset should be ERR io_error")

let () =
  (* The whole chaos suite runs with debug logging on: fault-injected
     crashes, respawns, and busy rejections must survive (and exercise)
     the structured-log path, not just the quiet default. *)
  Hp_util.Log.set_level Hp_util.Log.Debug;
  Alcotest.run "hp_resilience"
    [
      ( "deadline",
        [
          Alcotest.test_case "basics" `Quick test_deadline_basics;
          Alcotest.test_case "cancel" `Quick test_deadline_cancel;
          Alcotest.test_case "stride" `Quick test_deadline_stride;
        ] );
      ( "fault",
        [
          Alcotest.test_case "spec rejects" `Quick test_fault_spec_rejects;
          Alcotest.test_case "count and skip" `Quick test_fault_count_and_skip;
          Alcotest.test_case "prob deterministic" `Quick test_fault_prob_deterministic;
          Alcotest.test_case "sleep and kill" `Quick test_fault_sleep_and_kill;
        ] );
      ( "worker",
        [
          Alcotest.test_case "captures exceptions" `Quick test_worker_captures_exceptions;
          Alcotest.test_case "crash respawn" `Quick test_worker_crash_respawn;
          Alcotest.test_case "backpressure" `Quick test_worker_backpressure;
          Alcotest.test_case "submit after shutdown" `Quick test_worker_submit_after_shutdown;
        ] );
      ( "kernel deadlines",
        [
          Alcotest.test_case "kcore aborts" `Quick test_kcore_deadline_abort;
          Alcotest.test_case "diameter aborts" `Quick test_diameter_deadline_abort;
        ] );
      ( "client",
        [
          Alcotest.test_case "backoff deterministic" `Quick test_backoff_deterministic;
          Alcotest.test_case "backoff honors hint" `Quick test_backoff_honors_hint;
          Alcotest.test_case "hint floors window, jitter survives" `Quick
            test_backoff_hint_keeps_jitter;
          Alcotest.test_case "busy retry schedule bounds" `Quick
            test_backoff_busy_schedule;
          Alcotest.test_case "stale socket" `Quick test_client_stale_socket;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "worker kill and respawn" `Quick test_chaos_worker_kill;
          Alcotest.test_case "injected read error" `Quick test_chaos_injected_read_error;
          Alcotest.test_case "deadline aborts kcore" `Quick test_chaos_deadline_abort;
          Alcotest.test_case "busy and retry" `Quick test_chaos_busy_and_retry;
          Alcotest.test_case "shed cache-only" `Quick test_chaos_shed_cache_only;
          Alcotest.test_case "truncated reply" `Quick test_chaos_truncated_reply;
          Alcotest.test_case "client gone before reply" `Quick
            test_chaos_epipe_client_gone;
          Alcotest.test_case "oversized request" `Quick test_oversized_request_line;
          Alcotest.test_case "dataset size cap" `Quick test_dataset_size_cap;
        ] );
    ]
