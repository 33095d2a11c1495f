(* The durability centerpiece: a live hgd server is SIGKILLed in the
   middle of a randomized mutation burst, over and over, and every
   recovered state must be bit-identical — structure, names, and the
   decompose / max-core kernel outputs — to a single-process oracle
   that replays the first [epoch] acknowledged ops over the same base.

   Each schedule forks a child that runs a real server (one worker, a
   cycling --wal-sync policy, sometimes auto-checkpointing), drives it
   over the Unix socket, then kills it after a random 0-8 ms delay, so
   the kill lands anywhere: before the burst, between append and
   apply, inside a checkpoint's rename pair, mid-frame on the WAL.
   Whatever is on disk afterwards, recovery must produce a clean
   prefix of the schedule — torn tails truncate, skew heals, and no
   shape of crash may surface as an exception or a wrong answer. *)

module W = Hp_wal.Wal
module L = Hp_wal.Live
module H = Hp_hypergraph.Hypergraph
module HIO = Hp_hypergraph.Hypergraph_io
module HC = Hp_hypergraph.Hypergraph_core
module P = Hp_server.Protocol
module Server = Hp_server.Server
module Client = Hp_server.Client
module Registry = Hp_server.Registry
module HM = Hp_hypergraph.Hypergraph_maintain
module Prng = Hp_util.Prng

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let base_text = "# crash base\nc1: a b c\nc2: b c d\nc3: c d e\n"

let write_file path content =
  let oc = open_out path in
  output_string oc content;
  close_out oc

(* A schedule of ops that is valid by construction: vertex ids only
   grow, edge membership stays in range, deletes track the live edge
   count.  Any prefix of the schedule is therefore also valid — the
   property the oracle depends on. *)
let gen_ops rng ~nv0 ~ne0 n =
  let nv = ref nv0 and ne = ref ne0 in
  List.init n (fun i ->
      let pick = Prng.int rng 10 in
      if pick < 4 then begin
        incr nv;
        W.Add_vertex { name = Printf.sprintf "v%d" i }
      end
      else if pick < 8 || !ne = 0 then begin
        let k = 1 + Prng.int rng 4 in
        let members = Array.init k (fun _ -> Prng.int rng !nv) in
        incr ne;
        W.Add_edge { name = Printf.sprintf "e%d" i; members }
      end
      else begin
        decr ne;
        W.Del_edge { edge = Prng.int rng (!ne + 1) }
      end)

let op_line digest = function
  | W.Add_vertex { name } -> Printf.sprintf "ADDVERTEX %s %s" digest name
  | W.Add_edge { name; members } ->
    Printf.sprintf "ADDEDGE %s %s%s" digest name
      (Array.fold_left (fun acc m -> acc ^ " " ^ string_of_int m) "" members)
  | W.Del_edge { edge } -> Printf.sprintf "DELEDGE %s %d" digest edge

let write_fully fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then
      match Unix.write fd b off (Bytes.length b - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (EINTR, _, _) -> go off
  in
  go 0

(* Fork a child that becomes the daemon.  The child never returns to
   the test runner: _exit only, so alcotest state is not replayed. *)
let spawn_server config =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    Hp_util.Log.set_level Hp_util.Log.Error;
    (match Server.start config with
    | Ok t ->
      Server.wait t;
      Unix._exit 0
    | Error _ -> Unix._exit 127)
  | pid -> pid

let wait_for_socket ~pid socket_path =
  let rec poll n =
    if Sys.file_exists socket_path then ()
    else if n = 0 then Alcotest.fail "server socket never appeared"
    else begin
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> Alcotest.fail "server died before binding its socket");
      Unix.sleepf 0.005;
      poll (n - 1)
    end
  in
  poll 2000

let oracle ops n =
  let live = L.of_hypergraph (HIO.of_string base_text) in
  List.iteri
    (fun i op ->
      if i < n then
        match L.apply live op with
        | Ok _ -> ()
        | Error m -> Alcotest.failf "oracle op %d: %s" i m)
    ops;
  L.to_hypergraph live

let assert_bit_identical name a b =
  checkb (name ^ ": structure") true (H.equal_structure a b);
  checkb (name ^ ": names") true
    (Array.init (H.n_vertices a) (H.vertex_name a)
     = Array.init (H.n_vertices b) (H.vertex_name b)
    && Array.init (H.n_edges a) (H.edge_name a)
       = Array.init (H.n_edges b) (H.edge_name b));
  let d = HC.decompose ~domains:1 a and d' = HC.decompose ~domains:1 b in
  check (name ^ ": max core") d.HC.max_core d'.HC.max_core;
  checkb (name ^ ": vertex cores") true (d.HC.vertex_core = d'.HC.vertex_core);
  checkb (name ^ ": edge cores") true (d.HC.edge_core = d'.HC.edge_core);
  let k, r = HC.max_core ~domains:1 a and k', r' = HC.max_core ~domains:1 b in
  check (name ^ ": k-core index") k k';
  checkb (name ^ ": k-core members") true
    (r.HC.vertex_ids = r'.HC.vertex_ids && r.HC.edge_ids = r'.HC.edge_ids)

let run_schedule i =
  let rng = Prng.create (0x5EED + i) in
  let dir = Filename.temp_dir "hgcrash" (string_of_int i) in
  let socket_path = Filename.concat dir "hgd.sock" in
  let path = Filename.concat dir "data.hg" in
  write_file path base_text;
  let config =
    {
      (Server.default_config ~socket_path) with
      workers = 1;
      cache_capacity = 4;
      wal_sync =
        (match i mod 3 with 0 -> W.Always | 1 -> W.Batch | _ -> W.Never);
      wal_checkpoint_every = (if i mod 4 = 0 then 8 else 0);
    }
  in
  let n_ops = 16 + Prng.int rng 17 in
  let ops = gen_ops rng ~nv0:5 ~ne0:3 n_ops in
  let pid = spawn_server config in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()))
    (fun () ->
      wait_for_socket ~pid socket_path;
      (* The socket file appears at bind; retry the first connect over
         the bind-to-listen window. *)
      let rec connect_retry n =
        match Client.connect ~socket_path with
        | Ok c -> Ok c
        | Error m when n > 0 ->
          Unix.sleepf 0.01;
          ignore m;
          connect_retry (n - 1)
        | Error m -> Error m
      in
      (* LOAD on its own connection; the reply carries the handle. *)
      let digest =
        match connect_retry 50 with
        | Error m -> Alcotest.failf "schedule %d: connect: %s" i m
        | Ok c ->
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              match Client.request c (P.Load path) with
              | Ok (P.Ok kvs) -> List.assoc "digest" kvs
              | Ok (P.Err { message; _ }) ->
                Alcotest.failf "schedule %d: LOAD: %s" i message
              | Error m -> Alcotest.failf "schedule %d: LOAD: %s" i m)
      in
      (* The whole burst in one write, then a kill at a random point:
         sometimes nothing has run, sometimes everything has. *)
      let lines =
        List.concat_map
          (fun (j, op) ->
            let line = op_line digest op in
            if i mod 5 = 2 && j mod 10 = 9 then
              [ line; "CHECKPOINT " ^ digest ]
            else [ line ])
          (List.mapi (fun j op -> (j, op)) ops)
      in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX socket_path);
          write_fully fd (String.concat "" (List.map (fun l -> l ^ "\n") lines));
          Unix.sleepf (float_of_int (Prng.int rng 9) /. 1000.0);
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid)));
  (* Recovery in this process, straight off the dead server's disk. *)
  let reg = Registry.create () in
  match Registry.load reg path with
  | Error (Registry.Read_failed m | Registry.Parse_failed m) ->
    Alcotest.failf "schedule %d: recovery failed: %s" i m
  | Ok (entry, _) ->
    let st = entry.Registry.state in
    let epoch = st.Registry.epoch in
    checkb
      (Printf.sprintf "schedule %d: epoch %d within the burst" i epoch)
      true
      (epoch >= 0 && epoch <= n_ops);
    assert_bit_identical
      (Printf.sprintf "schedule %d (epoch %d/%d)" i epoch n_ops)
      (oracle ops epoch) st.Registry.hypergraph;
    (* Recovery absorbed the log as one batch: the maintained cores
       and the overlap graph the next re-peel starts from must be
       those of the recovered hypergraph. *)
    (match (entry.Registry.maint, st.Registry.cores) with
    | Some m, Some cores ->
      let d = HC.decompose ~domains:1 st.Registry.hypergraph in
      checkb
        (Printf.sprintf "schedule %d: recovered cores" i)
        true
        (cores.HC.vertex_core = d.HC.vertex_core
        && cores.HC.edge_core = d.HC.edge_core);
      checkb
        (Printf.sprintf "schedule %d: recovered overlap graph" i)
        true
        (HC.equal_overlap (HM.overlap m)
           (HC.overlap_graph st.Registry.hypergraph))
    | _ -> ());
    ignore (Registry.evict reg entry.Registry.digest);
    (epoch, n_ops)

let test_sigkill_schedules () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let partial = ref 0 and complete = ref 0 and untouched = ref 0 in
  for i = 0 to 99 do
    let epoch, n_ops = run_schedule i in
    if epoch = 0 then incr untouched
    else if epoch = n_ops then incr complete
    else incr partial
  done;
  (* The kill delay is tuned so the three crash shapes all occur; a
     skew here means the schedules stopped exercising mid-burst
     recovery and the sleep range needs retuning. *)
  Printf.printf
    "crash schedules: %d mid-burst, %d complete, %d before any op\n%!"
    !partial !complete !untouched;
  checkb "some kill landed mid-burst" true (!partial > 0)

let () =
  Alcotest.run "hp_wal_crash"
    [
      ( "crash recovery",
        [
          Alcotest.test_case "100 randomized SIGKILL schedules" `Slow
            test_sigkill_schedules;
        ] );
    ]
