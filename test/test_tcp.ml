(* The TCP front end: the epoll/select event loop serving the full
   protocol concurrently, partial-frame robustness (1-byte-at-a-time
   clients), stalled connections not blocking anyone, and the HTTP
   /metrics + /healthz endpoints. *)

module Server = Hp_server.Server
module Client = Hp_server.Client
module Netaddr = Hp_server.Netaddr
module Framer = Hp_server.Framer
module P = Hp_server.Protocol

let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let checki = Alcotest.(check int)

let write_file path content =
  let oc = open_out path in
  output_string oc content;
  close_out oc

let tiny_hg = "# test\nc1: a b c\nc2: b c d\nc3: c d e\n"

let with_tcp_server ?(workers = 2) ?(queue_limit = 256) ?(cache = 128)
    ?(http = false) f =
  let dir = Filename.temp_dir "hgd" "tcp" in
  let socket_path = Filename.concat dir "hgd.sock" in
  let config =
    {
      (Server.default_config ~socket_path) with
      workers;
      queue_limit;
      cache_capacity = cache;
      tcp = Some ("127.0.0.1", 0);
      http = (if http then Some ("127.0.0.1", 0) else None);
    }
  in
  match Server.start config with
  | Error msg -> Alcotest.failf "server start failed: %s" msg
  | Ok t ->
    let port =
      match Server.tcp_port t with
      | Some p -> p
      | None -> Alcotest.fail "no TCP port bound"
    in
    Fun.protect
      ~finally:(fun () -> Server.stop t)
      (fun () -> f ~dir ~socket_path ~t ~port)

let tcp_addr port = Client.Tcp { host = "127.0.0.1"; port }

let expect_ok what = function
  | Ok (P.Ok kvs) -> kvs
  | Ok (P.Err { code; message; _ }) ->
    Alcotest.failf "%s: unexpected ERR %s %s" what (P.error_code_to_string code)
      message
  | Error msg -> Alcotest.failf "%s: transport error %s" what msg

let load_dataset ~via dir =
  let data = Filename.concat dir "tiny.hg" in
  write_file data tiny_hg;
  let loaded =
    expect_ok "load"
      (Client.with_connection_addr via (fun c -> Client.request c (P.Load data)))
  in
  List.assoc "digest" loaded

(* ---------- raw-socket helpers (the adversarial clients) ---------- *)

let raw_tcp port =
  match Netaddr.connect ~host:"127.0.0.1" ~port with
  | Ok fd -> fd
  | Error msg -> Alcotest.failf "raw tcp connect: %s" msg

let raw_unix socket_path =
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket_path);
  fd

(* One byte per write(2): every request crosses the server's framing
   in as many fragments as it has bytes. *)
let send_slow fd s =
  String.iter
    (fun ch ->
      let b = Bytes.make 1 ch in
      if Unix.write fd b 0 1 <> 1 then Alcotest.fail "short 1-byte write")
    s

let read_byte fd =
  let b = Bytes.create 1 in
  match Unix.read fd b 0 1 with 0 -> None | _ -> Some (Bytes.get b 0)

(* One byte per read(2), too. *)
let read_line_slow fd =
  let buf = Buffer.create 64 in
  let rec go () =
    match read_byte fd with
    | None -> None
    | Some '\n' -> Some (Buffer.contents buf)
    | Some ch ->
      Buffer.add_char buf ch;
      go ()
  in
  go ()

(* A full framed reply, reassembled with its newlines so transports
   can be compared byte-for-byte. *)
let read_reply_slow fd =
  match read_line_slow fd with
  | None -> Alcotest.fail "eof before reply header"
  | Some header ->
    let n =
      if String.length header >= 3 && String.sub header 0 3 = "OK " then
        match int_of_string_opt (String.sub header 3 (String.length header - 3)) with
        | Some n -> n
        | None -> Alcotest.failf "bad OK header %S" header
      else 0
    in
    let body =
      List.init n (fun i ->
          match read_line_slow fd with
          | Some l -> l
          | None -> Alcotest.failf "eof at reply line %d/%d" i n)
    in
    String.concat "\n" ((header :: body) @ [ "" ])

let recv_all fd =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents buf
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      go ()
  in
  go ()

let http_get fd request =
  send_slow fd request;
  recv_all fd

let status_of response =
  match String.index_opt response ' ' with
  | Some sp when String.length response >= sp + 4 ->
    String.sub response (sp + 1) 3
  | _ -> Alcotest.failf "unparsable HTTP response %S" response

let body_of response =
  let rec find i =
    if i + 3 < String.length response then
      if String.sub response i 4 = "\r\n\r\n" then
        String.sub response (i + 4) (String.length response - i - 4)
      else find (i + 1)
    else Alcotest.failf "no header/body separator in %S" response
  in
  find 0

(* ---------- full protocol over TCP ---------- *)

let test_end_to_end () =
  with_tcp_server ~http:false (fun ~dir ~socket_path ~t:_ ~port ->
      let addr = tcp_addr port in
      let digest = load_dataset ~via:addr dir in
      Client.with_connection_addr addr (fun c ->
          (* Analyses compute, then cache. *)
          let stats1 =
            expect_ok "stats over tcp"
              (Client.request c (P.Analyze { dataset = digest; analysis = P.Stats }))
          in
          checks "computed" "false" (List.assoc "cached" stats1);
          let stats2 =
            expect_ok "stats cached"
              (Client.request c (P.Analyze { dataset = digest; analysis = P.Stats }))
          in
          checks "cached" "true" (List.assoc "cached" stats2);
          (* Mutations land too: the full verb set rides TCP. *)
          let added =
            expect_ok "addvertex over tcp"
              (Client.request c (P.Add_vertex { dataset = digest; name = "zz" }))
          in
          checkb "epoch advanced" true (List.mem_assoc "epoch" added);
          (* A malformed line is an ERR, and the connection survives it
             (the Unix path closes only on oversized/transport faults). *)
          (match Client.request_line c "FROBNICATE all the things" with
          | Ok (P.Err { code = P.Bad_request; _ }) -> ()
          | other ->
            Alcotest.failf "garbage verb: expected ERR bad-request, got %s"
              (match other with
              | Ok _ -> "OK/other"
              | Error m -> "transport " ^ m));
          let pong = expect_ok "ping after err" (Client.request c P.Ping) in
          checks "pong" "hgd" (List.assoc "pong" pong);
          (* Pipelined BATCH over the event loop. *)
          (match
             Client.batch c
               [
                 P.Ping;
                 P.Analyze { dataset = digest; analysis = P.Kcore (Some 2) };
                 P.Datasets;
               ]
           with
          | Ok (Client.Items [ i1; i2; i3 ]) ->
            List.iter
              (fun (what, item) ->
                match item with
                | Ok (P.Ok _) -> ()
                | Ok (P.Err { message; _ }) ->
                  Alcotest.failf "batch %s: ERR %s" what message
                | Error m -> Alcotest.failf "batch %s: transport %s" what m)
              [ ("ping", i1); ("kcore", i2); ("datasets", i3) ]
          | Ok _ -> Alcotest.fail "batch: wrong shape"
          | Error m -> Alcotest.failf "batch: %s" m);
          Ok ())
      |> Result.get_ok;
      (* The Unix path still works, and its metrics saw the TCP side. *)
      let metrics =
        expect_ok "metrics over unix"
          (Client.with_connection ~socket_path (fun c ->
               Client.request c (P.Metrics P.Table)))
      in
      checkb "tcp connections counted" true
        (int_of_string (List.assoc "tcp_connections" metrics) >= 1))

(* ---------- partial frames: byte-at-a-time over both transports ---------- *)

let test_partial_frames_identical () =
  with_tcp_server (fun ~dir ~socket_path ~t:_ ~port ->
      let digest = load_dataset ~via:(Client.Unix_path socket_path) dir in
      let req = "KCORE " ^ digest ^ "\n" in
      (* Warm the cache so both transports serve the same stored
         reply (PING would differ: its uptime field moves). *)
      ignore
        (expect_ok "warm kcore"
           (Client.with_connection ~socket_path (fun c ->
                Client.request_line c ("KCORE " ^ digest))));
      let via_unix =
        let fd = raw_unix socket_path in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            send_slow fd req;
            read_reply_slow fd)
      in
      let via_tcp =
        let fd = raw_tcp port in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            send_slow fd req;
            read_reply_slow fd)
      in
      checkb "reply non-trivial" true (String.length via_unix > 8);
      checks "bit-identical across transports" via_unix via_tcp;
      (* Two requests dribbled down one TCP connection still frame
         correctly (the second arrives while the first's reply may be
         in flight). *)
      let fd = raw_tcp port in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          send_slow fd req;
          let first = read_reply_slow fd in
          send_slow fd req;
          let second = read_reply_slow fd in
          checks "pipelined replies identical" first second;
          checks "same as unix" via_unix first))

(* ---------- concurrency: 64 clients, none starved ---------- *)

let test_concurrent_64_clients () =
  with_tcp_server ~workers:2 ~queue_limit:512 (fun ~dir ~socket_path:_ ~t:_ ~port ->
      let addr = tcp_addr port in
      let digest = load_dataset ~via:addr dir in
      ignore
        (expect_ok "warm"
           (Client.with_connection_addr addr (fun c ->
                Client.request c
                  (P.Analyze { dataset = digest; analysis = P.Kcore (Some 2) }))));
      let failures = Atomic.make 0 in
      let incr_failures () = ignore (Atomic.fetch_and_add failures 1) in
      let worker _i =
        match Client.connect_addr addr with
        | Error _ -> Atomic.fetch_and_add failures 10 |> ignore
        | Ok c ->
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              Client.set_timeout c 30.0;
              for _ = 1 to 5 do
                match
                  Client.request c
                    (P.Analyze { dataset = digest; analysis = P.Kcore (Some 2) })
                with
                | Ok (P.Ok _) -> ()
                | _ -> incr_failures ()
              done)
      in
      let threads = List.init 64 (fun i -> Thread.create worker i) in
      List.iter Thread.join threads;
      checki "no failed requests across 64 concurrent clients" 0
        (Atomic.get failures))

(* ---------- a stalled client must not block anyone ---------- *)

let test_stalled_client_no_blocking () =
  with_tcp_server (fun ~dir ~socket_path:_ ~t:_ ~port ->
      let addr = tcp_addr port in
      let digest = load_dataset ~via:addr dir in
      ignore
        (expect_ok "warm"
           (Client.with_connection_addr addr (fun c ->
                Client.request c
                  (P.Analyze { dataset = digest; analysis = P.Kcore (Some 2) }))));
      (* Two flavours of stall: half a request line, and a batch header
         whose items never arrive.  Both hold server-side buffers. *)
      let stalled_line = raw_tcp port in
      send_slow stalled_line "KCORE deadbee";
      let stalled_batch = raw_tcp port in
      send_slow stalled_batch "BATCH 3\nPING\n";
      Fun.protect
        ~finally:(fun () ->
          Unix.close stalled_line;
          Unix.close stalled_batch)
        (fun () ->
          (* Other connections make normal progress the whole time. *)
          let t0 = Unix.gettimeofday () in
          for _ = 1 to 5 do
            ignore
              (expect_ok "request beside stalled clients"
                 (Client.with_connection_addr addr (fun c ->
                      Client.set_timeout c 10.0;
                      Client.request c
                        (P.Analyze { dataset = digest; analysis = P.Kcore (Some 2) }))))
          done;
          let elapsed = Unix.gettimeofday () -. t0 in
          checkb
            (Printf.sprintf "progress beside stalls took %.1fs" elapsed)
            true (elapsed < 10.0);
          (* The stalled line eventually completes and gets its answer:
             the buffered half-request was preserved intact. *)
          send_slow stalled_line "f\n";
          match read_line_slow stalled_line with
          | Some header ->
            checkb ("stalled completion answered: " ^ header) true
              (String.length header >= 3
              && (String.sub header 0 3 = "OK " || String.sub header 0 3 = "ERR"))
          | None -> Alcotest.fail "stalled connection lost its buffered bytes"))

(* ---------- HTTP endpoints ---------- *)

let prom_line_ok l =
  l = ""
  || String.length l >= 1
     && (l.[0] = '#'
        || String.length l > 4
           && String.sub l 0 4 = "hgd_"
           && String.contains l ' ')

let test_http_endpoints () =
  with_tcp_server ~http:true (fun ~dir ~socket_path:_ ~t ~port ->
      let hport =
        match Server.http_port t with
        | Some p -> p
        | None -> Alcotest.fail "no HTTP port bound"
      in
      let addr = tcp_addr port in
      ignore (load_dataset ~via:addr dir);
      let get ~port req =
        let fd = raw_tcp port in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () -> http_get fd req)
      in
      (* Health and metrics on the dedicated port. *)
      let health = get ~port:hport "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n" in
      checks "healthz status" "200" (status_of health);
      checks "healthz body" "ok\n" (body_of health);
      let metrics = get ~port:hport "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n" in
      checks "metrics status" "200" (status_of metrics);
      checkb "prometheus content type" true
        (let n = "text/plain; version=0.0.4" in
         let rec find i =
           i + String.length n <= String.length metrics
           && (String.sub metrics i (String.length n) = n || find (i + 1))
         in
         find 0);
      let mbody = body_of metrics in
      checkb "metrics carry requests_total" true
        (let n = "hgd_requests_total" in
         let rec find i =
           i + String.length n <= String.length mbody
           && (String.sub mbody i (String.length n) = n || find (i + 1))
         in
         find 0);
      List.iter
        (fun l -> checkb ("prom line: " ^ l) true (prom_line_ok l))
        (String.split_on_char '\n' mbody);
      (* Same endpoints answer on the protocol port by sniffing. *)
      let sniffed = get ~port "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n" in
      checks "sniffed healthz status" "200" (status_of sniffed);
      (* Errors: unknown path, bad method, non-HTTP garbage. *)
      checks "404" "404" (status_of (get ~port:hport "GET /nope HTTP/1.1\r\n\r\n"));
      checks "405" "405"
        (status_of (get ~port:hport "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n"));
      checks "400" "400" (status_of (get ~port:hport "how about no\r\n\r\n")))

(* ---------- the portable select backend serves the same traffic ---------- *)

let test_select_backend () =
  Unix.putenv "HGD_EVENT_BACKEND" "select";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "HGD_EVENT_BACKEND" "")
    (fun () ->
      with_tcp_server (fun ~dir ~socket_path:_ ~t:_ ~port ->
          let addr = tcp_addr port in
          let digest = load_dataset ~via:addr dir in
          let kcore =
            expect_ok "kcore on select backend"
              (Client.with_connection_addr addr (fun c ->
                   Client.request c
                     (P.Analyze { dataset = digest; analysis = P.Kcore (Some 2) })))
          in
          checkb "k parses" true (List.mem_assoc "k" kcore);
          (* Byte-at-a-time and HTTP survive the fallback too. *)
          let fd = raw_tcp port in
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () ->
              send_slow fd ("KCORE " ^ digest ^ "\n");
              checkb "slow reply on select backend" true
                (String.length (read_reply_slow fd) > 8));
          let fd = raw_tcp port in
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () ->
              checks "healthz on select backend" "200"
                (status_of (http_get fd "GET /healthz HTTP/1.1\r\n\r\n")))))

(* ---------- batched mutations: one repair per burst ---------- *)

(* A BATCH whose items include a run of mutations on one dataset is
   applied through a single Registry.mutate_batch, on either
   transport: per-item replies must match what each op alone would
   have been answered (sequential epochs, assigned ids, counts after
   each op), an invalid item is rejected without poisoning the rest of
   the burst, and the dataset keeps serving correct analyses
   afterwards. *)
let test_batched_mutations transport () =
  with_tcp_server (fun ~dir ~socket_path ~t:_ ~port ->
      let via =
        match transport with
        | `Tcp -> tcp_addr port
        | `Unix -> Client.Unix_path socket_path
      in
      let digest = load_dataset ~via dir in
      let items =
        Client.with_connection_addr via (fun c ->
            Client.batch c
              [
                P.Add_vertex { dataset = digest; name = "z1" };
                P.Add_edge { dataset = digest; name = "zc"; members = [ 0; 1; 5 ] };
                P.Del_edge { dataset = digest; edge = 99 };
                P.Add_edge { dataset = digest; name = "zd"; members = [ 2; 3 ] };
                P.Ping;
                P.Add_vertex { dataset = digest; name = "z2" };
              ])
        |> Result.get_ok
      in
      let items =
        match items with
        | Client.Items l -> Array.of_list l
        | _ -> Alcotest.fail "batch: wrong reply shape"
      in
      checki "six sub-replies" 6 (Array.length items);
      let ok i =
        match items.(i) with
        | Ok (P.Ok kvs) -> kvs
        | Ok (P.Err { message; _ }) -> Alcotest.failf "item %d: ERR %s" i message
        | Error m -> Alcotest.failf "item %d: transport %s" i m
      in
      let kv i key = List.assoc key (ok i) in
      (* The run's per-item replies carry sequential epochs and the
         same assigned ids the per-op path would have handed out. *)
      checks "item0 epoch" "1" (kv 0 "epoch");
      checks "item0 assigned" "5" (kv 0 "assigned");
      checks "item0 vertices" "6" (kv 0 "vertices");
      checks "item1 epoch" "2" (kv 1 "epoch");
      checks "item1 assigned" "3" (kv 1 "assigned");
      checks "item1 hyperedges" "4" (kv 1 "hyperedges");
      (* The doomed DELEDGE is rejected alone; the burst continues. *)
      (match items.(2) with
      | Ok (P.Err { code = P.Bad_request; _ }) -> ()
      | _ -> Alcotest.fail "item2: expected ERR bad-request");
      checks "item3 epoch" "3" (kv 3 "epoch");
      checkb "item4 pong" true (List.mem_assoc "pong" (ok 4));
      (* The lone ADDVERTEX after PING is a run of its own and sees the
         first run's state. *)
      checks "item5 epoch" "4" (kv 5 "epoch");
      checks "item5 assigned" "6" (kv 5 "assigned");
      checks "item5 vertices" "7" (kv 5 "vertices");
      (* The maintained decomposition absorbed the burst: analyses keep
         working and INFO accounts the repairs. *)
      let kcore =
        expect_ok "kcore after batch"
          (Client.with_connection ~socket_path (fun c ->
               Client.request_line c ("KCORE " ^ digest)))
      in
      checkb "kcore answers" true (List.mem_assoc "k" kcore);
      let info =
        expect_ok "info"
          (Client.with_connection ~socket_path (fun c -> Client.request c P.Info))
      in
      checks "budget reported" "4096" (List.assoc "kcore_budget" info);
      checkb "no budget fallbacks" true
        (List.assoc "kcore_budget_fallbacks" info = "0");
      let repairs =
        int_of_string (List.assoc "kcore_cascade_repairs" info)
        + int_of_string (List.assoc "kcore_full_repeels" info)
      in
      (* 4 applied ops, but the first run's 3 cost one repair: at most
         2 repairs total (that run's plus the lone ADDVERTEX's). *)
      checkb "burst amortized into one repair" true (repairs <= 2 && repairs >= 1);
      (* INFO counts every re-peel under exactly one reason. *)
      Alcotest.(check int) "re-peels by reason sum to the re-peels"
        (int_of_string (List.assoc "kcore_full_repeels" info))
        (List.fold_left
           (fun acc r ->
             acc
             + int_of_string
                 (List.assoc
                    ("kcore_repeels_"
                    ^ Hp_hypergraph.Hypergraph_maintain.reason_name r)
                    info))
           0 Hp_hypergraph.Hypergraph_maintain.reasons))

(* ---------- SHUTDOWN over TCP stops the daemon cleanly ---------- *)

let test_tcp_shutdown () =
  let dir = Filename.temp_dir "hgd" "tcpshut" in
  let socket_path = Filename.concat dir "hgd.sock" in
  let config =
    {
      (Server.default_config ~socket_path) with
      workers = 2;
      tcp = Some ("127.0.0.1", 0);
    }
  in
  match Server.start config with
  | Error msg -> Alcotest.failf "server start failed: %s" msg
  | Ok t ->
    let port =
      match Server.tcp_port t with Some p -> p | None -> Alcotest.fail "no port"
    in
    let reply =
      expect_ok "shutdown over tcp"
        (Client.with_connection_addr (tcp_addr port) (fun c ->
             Client.request c P.Shutdown))
    in
    checks "acknowledged" "true" (List.assoc "shutting_down" reply);
    (* The reply was written before the loop died, and wait returns. *)
    Server.wait t;
    checkb "socket removed" false (Sys.file_exists socket_path);
    match Client.connect_addr (tcp_addr port) with
    | Ok c ->
      Client.close c;
      Alcotest.fail "TCP port should be closed after shutdown"
    | Error _ -> ()

(* ---------- one BATCH behaviour on both transports ---------- *)

(* Send [pieces] with [pause] seconds between them, end the write
   side, and collect every reply byte until the server closes. *)
let exchange ?(pause = 0.0) fd pieces =
  List.iteri
    (fun i piece ->
      if i > 0 then Unix.sleepf pause;
      ignore (Unix.write_substring fd piece 0 (String.length piece)))
    pieces;
  (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  recv_all fd

(* [f] over a fresh Unix connection, then over a fresh TCP one. *)
let over_both ~socket_path ~port f =
  let on fd = Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> f fd) in
  let via_unix = on (raw_unix socket_path) in
  (via_unix, on (raw_tcp port))

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Both transports frame a BATCH whole before answering item 0, so
   the cases where the run never completes, or an item is refused,
   read the same bytes on either.  The cache is off, so every KCORE
   reply is byte-identical. *)
let test_batch_same_bytes () =
  with_tcp_server ~cache:0 (fun ~dir ~socket_path ~t:_ ~port ->
      let digest = load_dataset ~via:(tcp_addr port) dir in
      let kcore = "KCORE " ^ digest in
      let oversized =
        P.encode_reply
          (P.err P.Bad_request
             (Printf.sprintf "request line exceeds %d bytes" P.max_line_bytes))
      in
      let items r =
        List.length
          (List.filter (starts_with ~prefix:"ITEM ") (String.split_on_char '\n' r))
      in
      let run_case (name, input, expect) =
        let via_unix, via_tcp =
          over_both ~socket_path ~port (fun fd -> exchange fd [ input ])
        in
        checks (name ^ ": same bytes on unix and tcp") via_unix via_tcp;
        expect via_unix
      in
      (* Both transports account the refusal alike: one oversized
         request and one error reply each. *)
      let counters () =
        let m =
          expect_ok "metrics"
            (Client.with_connection ~socket_path (fun c ->
                 Client.request c (P.Metrics P.Table)))
        in
        let get k = Option.fold ~none:0 ~some:int_of_string (List.assoc_opt k m) in
        (get "oversized_requests", get "responses_err")
      in
      let oversized0, errs0 = counters () in
      run_case
        ( "oversized item line",
          "BATCH 2\n" ^ kcore ^ "\n" ^ String.make (P.max_line_bytes + 1) 'x',
          fun r -> checks "one plain ERR, then close" oversized r );
      let oversized1, errs1 = counters () in
      checki "oversized_requests moved by 2" 2 (oversized1 - oversized0);
      checki "responses_err moved by 2" 2 (errs1 - errs0);
      let cases =
        [
          ( "EOF after 1 of 3 items",
            "BATCH 3\n" ^ kcore ^ "\n",
            fun r -> checks "no item answered" "" r );
          ( "unterminated last item",
            "BATCH 2\n" ^ kcore ^ "\n" ^ kcore,
            fun r -> checks "no item answered" "" r );
          ( "SHUTDOWN and nested BATCH items",
            "BATCH 3\nSHUTDOWN\nBATCH 2\n" ^ kcore ^ "\n",
            fun r ->
              checki "three items" 3 (items r);
              checkb "refusals first" true
                (starts_with ~prefix:"ITEM 0\nERR bad-request SHUTDOWN" r) );
        ]
      in
      List.iter run_case cases;
      ignore
        (expect_ok "daemon still serving"
           (Client.with_connection ~socket_path (fun c -> Client.request c P.Ping))))

(* ---------- one loop read buffer, many connections ---------- *)

(* The event loop reads every connection into one buffer, so the
   framer must own its copy of each read.  Eight connections each send
   two distinct BATCH frames of more than 16 KiB (one loop read),
   whose items echo long connection-specific names back in their
   errors, cut into pieces interleaved across the connections.  Each
   must read exactly the bytes it reads alone. *)
let test_shared_read_buffer () =
  with_tcp_server ~cache:0 (fun ~dir ~socket_path:_ ~t:_ ~port ->
      let digest = load_dataset ~via:(tcp_addr port) dir in
      let rng = Random.State.make [| 2004 |] in
      let name () =
        String.init 1400 (fun _ ->
            "abcdefghijklmnopqrstuvwxyz0123456789".[Random.State.int rng 36])
      in
      let batch () =
        let items =
          List.init 16 (fun i ->
              if i mod 4 = 0 then Printf.sprintf "KCORE %s %d" digest (i mod 3)
              else "KCORE " ^ name ())
        in
        let frame =
          String.concat "\n" (Printf.sprintf "BATCH %d" (List.length items) :: items) ^ "\n"
        in
        checkb "frame past one read" true (String.length frame > 16384);
        frame
      in
      let streams = Array.init 8 (fun _ -> batch () ^ batch ()) in
      let pieces s =
        let rec go from acc =
          if from >= String.length s then List.rev acc
          else
            let n = min (String.length s - from) (1 + Random.State.int rng 6000) in
            go (from + n) (String.sub s from n :: acc)
        in
        go 0 []
      in
      let alone =
        Array.map
          (fun s ->
            let fd = raw_tcp port in
            Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> exchange fd [ s ]))
          streams
      in
      let fds = Array.init 8 (fun _ -> raw_tcp port) in
      Fun.protect
        ~finally:(fun () -> Array.iter Unix.close fds)
        (fun () ->
          let queues = Array.map pieces streams in
          let rec interleave () =
            let sent = ref false in
            Array.iteri
              (fun i q ->
                match q with
                | [] -> ()
                | p :: rest ->
                  sent := true;
                  Netaddr.write_all fds.(i) p;
                  queues.(i) <- rest)
              queues;
            if !sent then begin
              Unix.sleepf 0.0005;
              interleave ()
            end
          in
          interleave ();
          Array.iter (fun fd -> Unix.shutdown fd Unix.SHUTDOWN_SEND) fds;
          let together = Array.map recv_all fds in
          Array.iteri
            (fun i reply ->
              checki (Printf.sprintf "conn %d: 32 items answered" i) 32
                (List.length
                   (List.filter (starts_with ~prefix:"ITEM ")
                      (String.split_on_char '\n' reply)));
              checks (Printf.sprintf "conn %d: same bytes as alone" i) reply together.(i))
            alone))

(* ---------- framer fuzz: a split stream frames like the whole one ---------- *)

(* Requests whose replies do not move between runs (no clock, no
   mutation, no cache with the cache off), malformed lines included. *)
let fuzz_stream digest =
  let open QCheck.Gen in
  let request =
    oneofl
      [
        "KCORE " ^ digest;
        "KCORE " ^ digest ^ " 2";
        "STATS " ^ digest;
        "COVER " ^ digest ^ " degree 2";
        "STORAGE " ^ digest;
        "POWERLAW " ^ digest;
        "DATASETS";
        "KCORE feedface";
        "FROB x";
        "BATCH 0";
      ]
  in
  let item = frequency [ (8, request); (1, oneofl [ "SHUTDOWN"; "BATCH 2"; "" ]) ] in
  let line g = map2 ( ^ ) g (oneofl [ "\n"; "\r\n" ]) in
  let batch =
    int_range 1 4 >>= fun n ->
    map2
      (fun header items -> String.concat "" (header :: items))
      (line (return (Printf.sprintf "BATCH %d" n)))
      (list_repeat n (line item))
  in
  map2
    (fun first rest -> String.concat "" (first :: rest))
    (line request)
    (list_size (int_range 0 7)
       (frequency [ (4, line request); (1, line (return "")); (3, batch) ]))

(* [stream] cut at [offsets] (taken modulo its length + 1). *)
let cut stream offsets =
  let len = String.length stream in
  let offsets = List.sort_uniq compare (List.map (fun o -> o mod (len + 1)) offsets) in
  let pieces, last =
    List.fold_left
      (fun (acc, from) o -> (String.sub stream from (o - from) :: acc, o))
      ([], 0) offsets
  in
  List.rev (String.sub stream last (len - last) :: pieces)

let print_cut (s, offsets) =
  Printf.sprintf "%S cut at %s" s (String.concat "," (List.map string_of_int offsets))

let test_framer_fuzz () =
  with_tcp_server ~cache:0 (fun ~dir ~socket_path ~t:_ ~port ->
      let digest = load_dataset ~via:(tcp_addr port) dir in
      let prop (stream, offsets) =
        let whole_unix, whole_tcp =
          over_both ~socket_path ~port (fun fd -> exchange fd [ stream ])
        in
        let split_unix, split_tcp =
          over_both ~socket_path ~port (fun fd ->
              exchange ~pause:0.002 fd (cut stream offsets))
        in
        whole_unix <> "" && whole_unix = whole_tcp && split_unix = whole_unix
        && split_tcp = whole_tcp
      in
      let arb =
        QCheck.make ~print:print_cut
          QCheck.Gen.(pair (fuzz_stream digest) (list_size (int_range 1 6) nat))
      in
      QCheck.Test.check_exn ~rand:(Random.State.make [| 2004 |])
        (QCheck.Test.make ~name:"split stream = whole stream" ~count:30 arb prop))

(* ---------- the framer alone, no sockets ---------- *)

let feed_string fr s = Framer.feed fr (Bytes.of_string s) (String.length s)

(* What [fr] yields until it needs more input (or, at EOF, until
   [`End]); a refusal ends the connection, so it ends the list. *)
let drain fr =
  let rec go acc =
    match Framer.frame fr with
    | `Await -> List.rev acc
    | (`End | `Oversized) as r -> List.rev (r :: acc)
    | `Frame _ as f -> go (f :: acc)
  in
  go []

(* Feed [pieces] in turn, draining after each, then EOF; a refusal
   stops the feed. *)
let frames_of pieces =
  let fr = Framer.create () in
  let rec go acc = function
    | _ when List.mem `Oversized acc -> acc
    | [] ->
      Framer.feed_eof fr;
      acc @ drain fr
    | piece :: rest ->
      feed_string fr piece;
      go (acc @ drain fr) rest
  in
  go [] pieces

let test_framer_split_whole =
  QCheck.Test.make ~name:"framer: split stream = whole stream" ~count:500
    (QCheck.make ~print:print_cut
       QCheck.Gen.(pair (fuzz_stream "feedface") (list_size (int_range 1 12) nat)))
    (fun (stream, offsets) ->
      let whole = frames_of [ stream ] in
      List.length whole > 1 && frames_of (cut stream offsets) = whole)

(* Frame lengths, so a failing 1 MiB case prints legibly. *)
let shape =
  List.map (function
    | `Frame (Framer.Single l) -> Printf.sprintf "single %d" (String.length l)
    | `Frame (Framer.Batch { n; items; _ }) ->
      Printf.sprintf "batch %d [%s]" n
        (String.concat " " (List.map (fun l -> string_of_int (String.length l)) items))
    | `Oversized -> "oversized"
    | `End -> "end")

let test_framer_eof_rules () =
  let case name input expect =
    Alcotest.(check (list string)) name expect (shape (frames_of [ input ]))
  in
  case "unterminated last line is served" "PING\nKCORE ab" [ "single 4"; "single 8"; "end" ];
  case "unterminated CRLF tail" "PING\r" [ "single 4"; "end" ];
  case "blank lines skipped" "\n\r\n  \nPING\n\n" [ "single 4"; "end" ];
  case "blank tail skipped" "PING\n  " [ "single 4"; "end" ];
  case "complete run" "BATCH 2\nPING\n\n" [ "batch 2 [4 0]"; "end" ];
  case "unterminated header drops the run" "BATCH 2" [ "end" ];
  case "EOF inside the run drops it" "BATCH 3\nPING\nPING\n" [ "end" ];
  case "unterminated last item drops the run" "BATCH 2\nPING\nPING" [ "end" ];
  case "frames before the run are served" "PING\nBATCH 2\nPING" [ "single 4"; "end" ]

let test_framer_cap () =
  let max = P.max_line_bytes in
  let line n = String.make n 'x' in
  let case name input expect =
    Alcotest.(check (list string)) name expect (shape (frames_of [ input ]))
  in
  case "line of exactly the cap" (line max ^ "\n") [ Printf.sprintf "single %d" max; "end" ];
  case "one byte more" (line (max + 1) ^ "\n") [ "oversized" ];
  case "unterminated, exactly the cap" (line max) [ Printf.sprintf "single %d" max; "end" ];
  case "unterminated, one byte more" (line (max + 1)) [ "oversized" ];
  case "item of exactly the cap"
    ("BATCH 1\n" ^ line max ^ "\n")
    [ Printf.sprintf "batch 1 [%d]" max; "end" ];
  case "item one byte more" ("BATCH 1\n" ^ line (max + 1) ^ "\n") [ "oversized" ];
  (* Before EOF, a full cap with no newline waits; one byte more is
     refused without waiting for the newline. *)
  let fr = Framer.create () in
  feed_string fr (line max);
  checkb "cap buffered, no newline: await" true (Framer.frame fr = `Await);
  feed_string fr "x";
  checkb "past the cap: refused" true (Framer.frame fr = `Oversized)

(* A line of exactly the cap fed in 4 KiB pieces (the Unix worker's
   and the client's read size) frames once, and feeding it costs
   allocation linear in its length. *)
let test_framer_long_line () =
  let max = P.max_line_bytes in
  let piece = Bytes.make 4096 'x' in
  let newline = Bytes.make 1 '\n' in
  let fr = Framer.create () in
  let before = Gc.allocated_bytes () in
  let rec feed left =
    if left > 0 then begin
      let n = min left (Bytes.length piece) in
      Framer.feed fr piece n;
      if Framer.frame fr <> `Await then Alcotest.fail "framed before the newline";
      feed (left - n)
    end
  in
  feed max;
  Framer.feed fr newline 1;
  let got = Framer.frame fr in
  let ratio = (Gc.allocated_bytes () -. before) /. float_of_int max in
  (match got with
  | `Frame (Framer.Single l) -> checki "one frame, the whole line" max (String.length l)
  | _ -> Alcotest.fail "expected one frame");
  checkb "nothing after it" true (Framer.frame fr = `Await);
  checkb (Printf.sprintf "allocated %.1fx the line, under 8x" ratio) true (ratio < 8.0)

(* ---------- HTTP sniff: a request line cut anywhere ---------- *)

let test_http_sniff_cuts () =
  with_tcp_server (fun ~dir:_ ~socket_path:_ ~t:_ ~port ->
      let req = "GET /healthz HTTP/1.0\r\n\r\n" in
      let get pieces =
        let fd = raw_tcp port in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            List.iteri
              (fun i piece ->
                if i > 0 then Unix.sleepf 0.002;
                ignore (Unix.write_substring fd piece 0 (String.length piece)))
              pieces;
            recv_all fd)
      in
      let whole = get [ req ] in
      checks "whole request: 200" "200" (status_of whole);
      for k = 1 to String.length req - 1 do
        checks
          (Printf.sprintf "cut at byte %d" k)
          whole
          (get [ String.sub req 0 k; String.sub req k (String.length req - k) ])
      done)

(* ---------- start/stop race: a frame dispatched early is answered ---------- *)

(* A client retries connect + PING on one fixed port while the daemon
   starts and stops under it 50 times, so frames land on the loop the
   moment it is created.  Each must be answered (or closed by a
   stopping daemon) within 1 s; none may be left in flight. *)
let test_start_stop_race () =
  let port =
    match Netaddr.bind_listen ~host:"127.0.0.1" ~port:0 ~backlog:1 with
    | Ok (fd, port) ->
      Unix.close fd;
      port
    | Error msg -> Alcotest.failf "probe bind: %s" msg
  in
  let dir = Filename.temp_dir "hgd" "race" in
  let socket_path = Filename.concat dir "hgd.sock" in
  let config =
    {
      (Server.default_config ~socket_path) with
      workers = 2;
      tcp = Some ("127.0.0.1", port);
    }
  in
  let stop = Atomic.make false in
  let answered = Atomic.make 0 and hung = Atomic.make 0 in
  let ping fd =
    Unix.setsockopt_float fd SO_RCVTIMEO 1.0;
    ignore (Unix.write_substring fd "PING\n" 0 5);
    let b = Bytes.create 64 in
    match Unix.read fd b 0 64 with
    | n when n > 0 && Bytes.sub_string b 0 (min n 2) = "OK" -> Atomic.incr answered
    | _ -> ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> Atomic.incr hung
  in
  let client () =
    while not (Atomic.get stop) do
      match Netaddr.connect ~host:"127.0.0.1" ~port with
      | Error _ -> Unix.sleepf 0.0005
      | Ok fd ->
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () -> try ping fd with Unix.Unix_error _ -> ())
    done
  in
  let level = Hp_util.Log.current_level () in
  Hp_util.Log.set_level Hp_util.Log.Error;
  let d = Domain.spawn client in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join d;
      Hp_util.Log.set_level level)
    (fun () ->
      for cycle = 1 to 50 do
        match Server.start config with
        | Error msg -> Alcotest.failf "cycle %d: start failed: %s" cycle msg
        | Ok t ->
          Unix.sleepf 0.005;
          Server.stop t
      done);
  checki "PINGs left unanswered past 1 s" 0 (Atomic.get hung);
  checkb "PINGs answered" true (Atomic.get answered > 0)

let () =
  Alcotest.run "hp_tcp"
    [
      ( "tcp",
        [
          Alcotest.test_case "full protocol end to end" `Quick test_end_to_end;
          Alcotest.test_case "partial frames, identical replies" `Quick
            test_partial_frames_identical;
          Alcotest.test_case "64 concurrent clients" `Quick
            test_concurrent_64_clients;
          Alcotest.test_case "stalled client blocks nobody" `Quick
            test_stalled_client_no_blocking;
          Alcotest.test_case "batched mutations, one repair per burst" `Quick
            (test_batched_mutations `Tcp);
          Alcotest.test_case "shutdown verb over tcp" `Quick test_tcp_shutdown;
          Alcotest.test_case "unix batch: one repair per burst" `Quick
            (test_batched_mutations `Unix);
          Alcotest.test_case "BATCH framing, same bytes" `Quick
            test_batch_same_bytes;
          Alcotest.test_case "framer fuzz: split = whole" `Quick
            test_framer_fuzz;
          Alcotest.test_case "start/stop race, pings answered" `Quick
            test_start_stop_race;
          Alcotest.test_case "one read buffer, interleaved BATCH frames" `Quick
            test_shared_read_buffer;
        ] );
      ( "framer",
        [
          QCheck_alcotest.to_alcotest test_framer_split_whole;
          Alcotest.test_case "EOF rules" `Quick test_framer_eof_rules;
          Alcotest.test_case "line cap" `Quick test_framer_cap;
          Alcotest.test_case "long line in 4 KiB pieces" `Quick test_framer_long_line;
        ] );
      ( "http",
        [
          Alcotest.test_case "metrics and healthz" `Quick test_http_endpoints;
          Alcotest.test_case "sniff: every cut gets the same 200" `Quick
            test_http_sniff_cuts;
        ] );
      ( "select-backend",
        [ Alcotest.test_case "fallback serves traffic" `Quick test_select_backend ]
      );
    ]
