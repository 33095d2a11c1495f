(* The durable mutation layer: WAL codec round trips, torn-tail
   truncation at every byte of the final record, mid-log corruption as
   typed errors (checksum, epoch gap, bad op, header damage), the
   injected torn-append failpoint, Live op semantics, registry
   recovery (replay, checkpoint compaction, skew heal, base-skew
   rejection, load precedence), epoch-aware cache keys, and bit-flip
   fuzz over both WAL files and the persisted result cache — none of
   which may ever raise. *)

module W = Hp_wal.Wal
module L = Hp_wal.Live
module H = Hp_hypergraph.Hypergraph
module HIO = Hp_hypergraph.Hypergraph_io
module HC = Hp_hypergraph.Hypergraph_core
module B = Hp_util.Binary
module Fault = Hp_util.Fault
module Snap = Hp_snapshot.Snapshot
module Registry = Hp_server.Registry
module Result_cache = Hp_server.Result_cache
module Metrics = Hp_server.Metrics
module P = Hp_server.Protocol

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let tmp_dir () = Filename.temp_dir "hgwal" "test"

let read_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_bytes path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let flip path at =
  let b = Bytes.of_string (read_bytes path) in
  Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0x20));
  write_bytes path (Bytes.to_string b)

let expect_writer what = function
  | Ok w -> w
  | Error e -> Alcotest.failf "%s: %s" what (W.error_to_string e)

let expect_log what = function
  | Ok (log : W.log) -> log
  | Error e -> Alcotest.failf "%s: %s" what (W.error_to_string e)

let expect_append what w r =
  match W.append w r with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: append: %s" what (W.error_to_string e)

(* A fixed op mix covering every constructor, duplicate members, and
   an empty member list. *)
let sample_ops =
  [
    W.Add_vertex { name = "f" };
    W.Add_edge { name = "c4"; members = [| 0; 5; 2; 2 |] };
    W.Del_edge { edge = 1 };
    W.Add_edge { name = "empty"; members = [||] };
  ]

let write_log path ~handle ~base_identity ~base_epoch ops =
  let w =
    expect_writer "create"
      (W.create ~path ~handle ~base_identity ~base_epoch ~sync:W.Never)
  in
  List.iteri
    (fun i op -> expect_append "write_log" w { W.epoch = base_epoch + i + 1; op })
    ops;
  W.close w

(* ---------- codec ---------- *)

let test_round_trip () =
  let dir = tmp_dir () in
  let path = Filename.concat dir "log.hgwal" in
  write_log path ~handle:"deadbeef" ~base_identity:"feedface" ~base_epoch:7
    sample_ops;
  let log = expect_log "read" (W.read path) in
  checks "handle" "deadbeef" log.W.handle;
  checks "base identity" "feedface" log.W.base_identity;
  check "base epoch" 7 log.W.base_epoch;
  check "record count" (List.length sample_ops) (Array.length log.W.records);
  check "clean tail" 0 log.W.torn_bytes;
  List.iteri
    (fun i op ->
      checkb (Printf.sprintf "record %d op" i) true (log.W.records.(i).W.op = op);
      check (Printf.sprintf "record %d epoch" i) (7 + i + 1)
        log.W.records.(i).W.epoch)
    sample_ops;
  (* Reopen for append and extend the chain. *)
  let w =
    expect_writer "reopen"
      (W.open_append ~path ~valid_bytes:log.W.valid_bytes ~sync:W.Always)
  in
  checks "writer path" path (W.writer_path w);
  expect_append "extend" w
    { W.epoch = 12; op = W.Add_vertex { name = "late" } };
  W.close w;
  W.close w (* close is idempotent *);
  let log = expect_log "reread" (W.read path) in
  check "extended count" 5 (Array.length log.W.records);
  check "extended epoch" 12 log.W.records.(4).W.epoch

let test_sync_policies () =
  List.iter
    (fun p ->
      match W.sync_policy_of_string (W.sync_policy_to_string p) with
      | Ok p' -> checkb (W.sync_policy_to_string p) true (p = p')
      | Error m -> Alcotest.fail m)
    [ W.Always; W.Batch; W.Never ];
  (match W.sync_policy_of_string "sometimes" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus sync policy accepted");
  (* Every policy produces the same readable file. *)
  let dir = tmp_dir () in
  List.iter
    (fun sync ->
      let path =
        Filename.concat dir (W.sync_policy_to_string sync ^ ".hgwal")
      in
      let w =
        expect_writer "create"
          (W.create ~path ~handle:"h" ~base_identity:"b" ~base_epoch:0 ~sync)
      in
      for i = 1 to 2 * W.batch_every + 1 do
        expect_append "append" w
          { W.epoch = i; op = W.Add_vertex { name = string_of_int i } }
      done;
      W.flush w;
      W.close w;
      let log = expect_log "read" (W.read path) in
      check "all records" ((2 * W.batch_every) + 1) (Array.length log.W.records))
    [ W.Always; W.Batch; W.Never ]

let test_sibling_path () =
  checks ".hg" "data/x.hgwal" (W.sibling_path "data/x.hg");
  checks ".mtx" "data/x.hgwal" (W.sibling_path "data/x.mtx");
  checks ".hgsnap" "data/x.hgwal" (W.sibling_path "data/x.hgsnap")

(* Record boundaries, byte-exact: grow the log one record at a time
   and note valid_bytes after each step. *)
let log_boundaries dir ops =
  let path = Filename.concat dir "bounded.hgwal" in
  write_log path ~handle:"h" ~base_identity:"b" ~base_epoch:0 [];
  let boundaries = ref [ (expect_log "empty" (W.read path)).W.valid_bytes ] in
  List.iteri
    (fun i op ->
      let prev = List.hd !boundaries in
      let w =
        expect_writer "grow" (W.open_append ~path ~valid_bytes:prev ~sync:W.Never)
      in
      expect_append "grow" w { W.epoch = i + 1; op };
      W.close w;
      boundaries := (expect_log "grow" (W.read path)).W.valid_bytes :: !boundaries)
    ops;
  (path, List.rev !boundaries)

(* Truncation at *every* byte: below the header it is a typed error;
   past it, the longest whole-record prefix survives and the remainder
   is reported as a torn tail.  Never an exception. *)
let test_torn_tail_matrix () =
  let dir = tmp_dir () in
  let path, boundaries = log_boundaries dir sample_ops in
  let header_len = List.hd boundaries in
  let full = read_bytes path in
  let target = Filename.concat dir "torn.hgwal" in
  for keep = 0 to String.length full - 1 do
    write_bytes target (String.sub full 0 keep);
    match W.read target with
    | Error _ when keep < header_len -> ()
    | Error e ->
      Alcotest.failf "keep=%d: unexpected error %s" keep (W.error_to_string e)
    | Ok _ when keep < header_len ->
      Alcotest.failf "keep=%d: truncated header accepted" keep
    | Ok log ->
      let expect_valid =
        List.fold_left (fun acc b -> if b <= keep then max acc b else acc) 0
          boundaries
      in
      let expect_records =
        List.length (List.filter (fun b -> b <= keep) boundaries) - 1
      in
      check (Printf.sprintf "keep=%d records" keep) expect_records
        (Array.length log.W.records);
      check (Printf.sprintf "keep=%d valid bytes" keep) expect_valid
        log.W.valid_bytes;
      check (Printf.sprintf "keep=%d torn bytes" keep) (keep - expect_valid)
        log.W.torn_bytes
  done;
  (* Recovery over a torn tail: truncate to the valid prefix, then the
     epoch chain continues from the surviving records. *)
  let keep = List.nth boundaries 2 + 5 in
  write_bytes target (String.sub full 0 keep);
  let log = expect_log "torn" (W.read target) in
  check "two records survive" 2 (Array.length log.W.records);
  checkb "tail reported" true (log.W.torn_bytes > 0);
  let w =
    expect_writer "recover"
      (W.open_append ~path:target ~valid_bytes:log.W.valid_bytes ~sync:W.Never)
  in
  expect_append "recover" w { W.epoch = 3; op = W.Add_vertex { name = "re" } };
  W.close w;
  let log = expect_log "recovered" (W.read target) in
  check "recovered count" 3 (Array.length log.W.records);
  check "recovered tail clean" 0 log.W.torn_bytes

(* Mid-log damage is corruption, not a torn tail: a complete frame
   that fails its checksum, epoch chain, or op decoding rejects the
   log with a typed error naming the record. *)
let test_midlog_corruption () =
  let dir = tmp_dir () in
  let path, boundaries = log_boundaries dir sample_ops in
  let header_len = List.hd boundaries in
  let full = read_bytes path in
  let target = Filename.concat dir "damaged.hgwal" in
  (* Payload byte of record 0. *)
  write_bytes target full;
  flip target (header_len + 17);
  (match W.read target with
  | Error (W.Bad_checksum { index = 0 }) -> ()
  | Error e -> Alcotest.failf "payload flip: %s" (W.error_to_string e)
  | Ok _ -> Alcotest.fail "payload flip accepted");
  (* Checksum word of record 1. *)
  write_bytes target full;
  flip target (List.nth boundaries 1 + 8);
  (match W.read target with
  | Error (W.Bad_checksum { index = 1 }) -> ()
  | Error e -> Alcotest.failf "checksum flip: %s" (W.error_to_string e)
  | Ok _ -> Alcotest.fail "checksum flip accepted");
  (* Epoch gap: the writer stamps what it is told, the reader insists
     on base+1, base+2, ... *)
  let gap = Filename.concat dir "gap.hgwal" in
  let w =
    expect_writer "gap"
      (W.create ~path:gap ~handle:"h" ~base_identity:"b" ~base_epoch:0
         ~sync:W.Never)
  in
  expect_append "gap" w { W.epoch = 1; op = W.Add_vertex { name = "a" } };
  expect_append "gap" w { W.epoch = 3; op = W.Add_vertex { name = "b" } };
  W.close w;
  (match W.read gap with
  | Error (W.Epoch_gap { index = 1; expected = 2; got = 3 }) -> ()
  | Error e -> Alcotest.failf "epoch gap: %s" (W.error_to_string e)
  | Ok _ -> Alcotest.fail "epoch gap accepted");
  (* A frame with a valid checksum over an undecodable payload: frame
     it by hand with an unknown op tag. *)
  let bogus = Filename.concat dir "bogus.hgwal" in
  write_log bogus ~handle:"h" ~base_identity:"b" ~base_epoch:0 [];
  let payload =
    let b = Bytes.make 9 '\009' in
    B.set_int_le b ~pos:0 1;
    Bytes.to_string b
  in
  let frame =
    let n = String.length payload in
    let b = Bytes.create (16 + n) in
    B.set_int_le b ~pos:0 n;
    Bytes.blit_string payload 0 b 16 n;
    B.set_int_le b ~pos:8 (B.hash64 B.hash64_seed b ~pos:16 ~len:n land max_int);
    Bytes.to_string b
  in
  write_bytes bogus (read_bytes bogus ^ frame);
  (match W.read bogus with
  | Error (W.Bad_record { index = 0; what }) ->
    checkb "names the tag" true
      (String.length what > 0 && String.lowercase_ascii what <> "")
  | Error e -> Alcotest.failf "bogus tag: %s" (W.error_to_string e)
  | Ok _ -> Alcotest.fail "bogus tag accepted");
  (* Header damage: magic, version, checksum-covered fields. *)
  write_bytes target full;
  flip target 0;
  (match W.read target with
  | Error W.Bad_magic -> ()
  | Error e -> Alcotest.failf "magic flip: %s" (W.error_to_string e)
  | Ok _ -> Alcotest.fail "magic flip accepted");
  write_bytes target full;
  (let b = Bytes.of_string full in
   Bytes.set b 8 '\002';
   write_bytes target (Bytes.to_string b));
  (match W.read target with
  | Error (W.Version_skew { found = 2 }) -> ()
  | Error e -> Alcotest.failf "version bump: %s" (W.error_to_string e)
  | Ok _ -> Alcotest.fail "version bump accepted");
  write_bytes target full;
  flip target 30 (* inside the handle *);
  (match W.read target with
  | Error (W.Bad_header _) -> ()
  | Error e -> Alcotest.failf "handle flip: %s" (W.error_to_string e)
  | Ok _ -> Alcotest.fail "handle flip accepted");
  (* Missing file is Io. *)
  match W.read (Filename.concat dir "absent.hgwal") with
  | Error (W.Io _) -> ()
  | Error e -> Alcotest.failf "missing file: %s" (W.error_to_string e)
  | Ok _ -> Alcotest.fail "missing file accepted"

let test_error_rendering () =
  List.iter
    (fun e ->
      let s = W.error_to_string e in
      checkb "non-empty" true (String.length s > 0);
      checkb "single line" false (String.contains s '\n'))
    [
      W.Io "boom";
      W.Bad_magic;
      W.Version_skew { found = 9 };
      W.Bad_header "truncated magic";
      W.Bad_checksum { index = 3 };
      W.Bad_record { index = 1; what = "unknown op tag 9" };
      W.Epoch_gap { index = 2; expected = 3; got = 7 };
      W.Base_skew { base = "abc"; tried = [ "snapshot def"; "text ghi" ] };
      W.Base_skew { base = "abc"; tried = [] };
    ]

(* The injected mid-write crash: half a frame reaches the file, the
   append reports failure, and recovery truncates the tail. *)
let test_torn_append_failpoint () =
  let dir = tmp_dir () in
  let path = Filename.concat dir "fp.hgwal" in
  let w =
    expect_writer "create"
      (W.create ~path ~handle:"h" ~base_identity:"b" ~base_epoch:0 ~sync:W.Never)
  in
  expect_append "pre" w { W.epoch = 1; op = W.Add_vertex { name = "a" } };
  Fault.arm ~count:1 "wal.append.torn" Fault.Err;
  Fun.protect ~finally:Fault.reset @@ fun () ->
  (match W.append w { W.epoch = 2; op = W.Add_vertex { name = "lost" } } with
  | Error (W.Io _) -> ()
  | Error e -> Alcotest.failf "torn append: %s" (W.error_to_string e)
  | Ok () -> Alcotest.fail "torn append reported success");
  W.close w;
  let log = expect_log "after torn append" (W.read path) in
  check "only the acknowledged record" 1 (Array.length log.W.records);
  checkb "half frame on disk" true (log.W.torn_bytes > 0);
  let w =
    expect_writer "recover"
      (W.open_append ~path ~valid_bytes:log.W.valid_bytes ~sync:W.Never)
  in
  expect_append "recover" w { W.epoch = 2; op = W.Add_vertex { name = "b" } };
  W.close w;
  let log = expect_log "recovered" (W.read path) in
  check "chain continues" 2 (Array.length log.W.records);
  check "clean" 0 log.W.torn_bytes

(* 200 random single-byte flips over a multi-record log: [read] must
   answer Ok or a typed error, never raise. *)
let test_bitflip_fuzz () =
  let dir = tmp_dir () in
  let path = Filename.concat dir "fuzz.hgwal" in
  write_log path ~handle:"0123456789abcdef" ~base_identity:"fedcba9876543210"
    ~base_epoch:0
    (sample_ops @ sample_ops |> List.mapi (fun i -> function
       | W.Del_edge _ -> W.Del_edge { edge = i }
       | op -> op));
  let bytes = read_bytes path in
  let rng = Hp_util.Prng.create 42 in
  let target = Filename.concat dir "fuzzed.hgwal" in
  for _ = 1 to 200 do
    let b = Bytes.of_string bytes in
    let at = Hp_util.Prng.int rng (Bytes.length b) in
    Bytes.set b at (Char.chr (Hp_util.Prng.int rng 256));
    write_bytes target (Bytes.to_string b);
    match W.read target with
    | Ok _ | Error _ -> ()
  done

(* ---------- live state ---------- *)

let tiny_hg = "# test\nc1: a b c\nc2: b c d\nc3: c d e\n"

let test_live_semantics () =
  let base = HIO.of_string tiny_hg in
  let live = L.of_hypergraph base in
  check "vertices" 5 (L.n_vertices live);
  check "edges" 3 (L.n_edges live);
  (* Round trip with no ops is the identity. *)
  checkb "identity round trip" true
    (H.equal_structure base (L.to_hypergraph live));
  (* Adds take the next dense id; duplicate members collapse. *)
  (match L.apply live (W.Add_vertex { name = "f" }) with
  | Ok (Some 5) -> ()
  | _ -> Alcotest.fail "vertex id should be 5");
  (match L.apply live (W.Add_edge { name = "c4"; members = [| 5; 0; 5; 0 |] }) with
  | Ok (Some 3) -> ()
  | _ -> Alcotest.fail "edge id should be 3");
  let h = L.to_hypergraph live in
  checkb "duplicates collapse" true (H.edge_members h 3 = [| 0; 5 |]);
  checks "vertex name" "f" (H.vertex_name h 5);
  checks "edge name" "c4" (H.edge_name h 3);
  (* Deleting an edge shifts every later edge down by one. *)
  (match L.apply live (W.Del_edge { edge = 0 }) with
  | Ok None -> ()
  | _ -> Alcotest.fail "delete returns no id");
  let h = L.to_hypergraph live in
  check "one fewer edge" 3 (H.n_edges h);
  checks "edges shifted" "c2" (H.edge_name h 0);
  checks "last edge shifted" "c4" (H.edge_name h 2);
  (* Validation: out-of-range members and edge ids are client errors. *)
  (match L.validate live (W.Add_edge { name = "bad"; members = [| 99 |] }) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "out-of-range member accepted");
  (match L.validate live (W.Del_edge { edge = 99 }) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "out-of-range edge accepted");
  match L.validate live (W.Del_edge { edge = -1 }) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "negative edge accepted"

(* Both incidence directions and both name arrays, compared exactly. *)
let same_hypergraph a b =
  let all n = List.init n Fun.id in
  H.n_vertices a = H.n_vertices b
  && H.n_edges a = H.n_edges b
  && H.vertex_names_opt a = H.vertex_names_opt b
  && H.edge_names_opt a = H.edge_names_opt b
  && List.for_all
       (fun e -> H.edge_members a e = H.edge_members b e)
       (all (H.n_edges a))
  && List.for_all
       (fun v -> H.vertex_edges a v = H.vertex_edges b v)
       (all (H.n_vertices a))

(* Random bursts of ADDVERTEX/ADDEDGE/DELEDGE through Live, published
   after each burst: every publish must equal [of_arrays] over the
   same rows and names, and every earlier publish must still equal the
   rebuild taken when it was published — publishing shares rows
   between epochs, so a mutated row would show up there.  Deletes
   strike the first id, the last id and ids the same burst added;
   members repeat; hyperedges can be empty; some bursts only add
   vertices and some are empty. *)
let prop_delta_publish =
  QCheck.Test.make ~name:"live: delta publish = rebuild, earlier epochs intact"
    ~count:300 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Hp_util.Prng.create seed in
      let nv0 = Hp_util.Prng.int rng 6 in
      let members () =
        List.init (Hp_util.Prng.int rng 5) (fun _ -> Hp_util.Prng.int rng (max nv0 1))
      in
      let ne0 = Hp_util.Prng.int rng 6 in
      let base_members = List.init ne0 (fun _ -> if nv0 = 0 then [] else members ()) in
      let named = Hp_util.Prng.int rng 2 = 0 in
      let base =
        H.create
          ?vertex_names:
            (if named then Some (Array.init nv0 (Printf.sprintf "p%d")) else None)
          ?edge_names:
            (if named then Some (Array.init ne0 (Printf.sprintf "x%d")) else None)
          ~n_vertices:nv0 base_members
      in
      let live = L.of_hypergraph base in
      let vnames = ref (List.init nv0 (H.vertex_name base)) in
      let edges =
        ref (List.init ne0 (fun e -> (H.edge_name base e, H.edge_members base e)))
      in
      let rebuild () =
        let es = Array.of_list !edges in
        H.of_arrays
          ~vertex_names:(Array.of_list !vnames)
          ~edge_names:(Array.map fst es)
          ~n_vertices:(List.length !vnames) (Array.map snd es)
      in
      let history = ref [] in
      let ok = ref true in
      for b = 0 to Hp_util.Prng.int rng 8 do
        let vertex_only = Hp_util.Prng.int rng 5 = 0 in
        let fresh = ref [] in  (* ids this burst added, kept through shifts *)
        for i = 0 to Hp_util.Prng.int rng 5 - 1 do
          let nv = List.length !vnames and ne = List.length !edges in
          let pick = if vertex_only then 0 else Hp_util.Prng.int rng 10 in
          let op =
            if pick < 3 || (pick >= 7 && ne = 0) then
              W.Add_vertex { name = Printf.sprintf "n%d.%d" b i }
            else if pick < 7 then
              W.Add_edge
                {
                  name = Printf.sprintf "y%d.%d" b i;
                  members =
                    Array.init
                      (if nv = 0 then 0 else Hp_util.Prng.int rng 5)
                      (fun _ -> Hp_util.Prng.int rng nv);
                }
            else
              let edge =
                match Hp_util.Prng.int rng 4, !fresh with
                | 0, _ -> 0
                | 1, _ -> ne - 1
                | 2, (_ :: _ as f) -> List.nth f (Hp_util.Prng.int rng (List.length f))
                | _ -> Hp_util.Prng.int rng ne
              in
              W.Del_edge { edge }
          in
          (match L.apply live op with
          | Ok _ -> ()
          | Error m -> Alcotest.failf "seed %d: %s" seed m);
          match op with
          | W.Add_vertex { name } -> vnames := !vnames @ [ name ]
          | W.Add_edge { name; members } ->
            fresh := List.length !edges :: !fresh;
            edges := !edges @ [ (name, members) ]
          | W.Del_edge { edge } ->
            fresh :=
              List.filter_map
                (fun j -> if j = edge then None else Some (if j > edge then j - 1 else j))
                !fresh;
            edges := List.filteri (fun j _ -> j <> edge) !edges
        done;
        let published = L.to_hypergraph live in
        history := (published, rebuild ()) :: !history;
        ok :=
          !ok && List.for_all (fun (h, r) -> same_hypergraph h r) !history
      done;
      !ok)

(* ---------- registry recovery ---------- *)

let write_file path content =
  let oc = open_out path in
  output_string oc content;
  close_out oc

let expect_entry what = function
  | Ok ((e : Registry.entry), fresh) -> (e, fresh)
  | Error (Registry.Read_failed m | Registry.Parse_failed m) ->
    Alcotest.failf "%s: %s" what m

let expect_mutate what r key op =
  match Registry.mutate r key op with
  | Ok (a : Registry.applied) -> a
  | Error `Missing -> Alcotest.failf "%s: missing" what
  | Error `Ambiguous -> Alcotest.failf "%s: ambiguous" what
  | Error (`Invalid m) -> Alcotest.failf "%s: invalid: %s" what m
  | Error (`Io m) -> Alcotest.failf "%s: io: %s" what m

let apply_oracle base ops =
  let live = L.of_hypergraph base in
  List.iter
    (fun op ->
      match L.apply live op with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "oracle: %s" m)
    ops;
  L.to_hypergraph live

(* Bit-identity: structure, names, and the decompose / max-core kernel
   outputs the ISSUE pins recovery to. *)
let assert_bit_identical name a b =
  checkb (name ^ ": structure") true (H.equal_structure a b);
  checkb (name ^ ": names") true
    (Array.init (H.n_vertices a) (H.vertex_name a)
     = Array.init (H.n_vertices b) (H.vertex_name b)
    && Array.init (H.n_edges a) (H.edge_name a)
       = Array.init (H.n_edges b) (H.edge_name b));
  List.iter
    (fun domains ->
      let d = HC.decompose ~domains a and d' = HC.decompose ~domains b in
      check
        (Printf.sprintf "%s: max core at %d domains" name domains)
        d.HC.max_core d'.HC.max_core;
      checkb
        (Printf.sprintf "%s: vertex cores at %d domains" name domains)
        true (d.HC.vertex_core = d'.HC.vertex_core);
      checkb
        (Printf.sprintf "%s: edge cores at %d domains" name domains)
        true (d.HC.edge_core = d'.HC.edge_core);
      let k, r = HC.max_core ~domains a and k', r' = HC.max_core ~domains b in
      check (Printf.sprintf "%s: k-core index" name) k k';
      checkb (Printf.sprintf "%s: k-core members" name) true
        (r.HC.vertex_ids = r'.HC.vertex_ids && r.HC.edge_ids = r'.HC.edge_ids))
    [ 1; 2 ]

let mutation_ops =
  [
    W.Add_vertex { name = "f" };
    W.Add_edge { name = "c4"; members = [| 0; 5; 2 |] };
    W.Del_edge { edge = 0 };
  ]

let test_mutate_and_recover () =
  let dir = tmp_dir () in
  let path = Filename.concat dir "data.hg" in
  write_file path tiny_hg;
  let r = Registry.create () in
  let e, _ = expect_entry "load" (Registry.load r path) in
  let handle = e.Registry.digest in
  let a = expect_mutate "addvertex" r handle (List.nth mutation_ops 0) in
  check "epoch 1" 1 a.Registry.epoch;
  checkb "vertex id" true (a.Registry.assigned = Some 5);
  check "vertex count" 6 a.Registry.n_vertices;
  let a = expect_mutate "addedge" r handle (List.nth mutation_ops 1) in
  check "epoch 2" 2 a.Registry.epoch;
  checkb "edge id" true (a.Registry.assigned = Some 3);
  check "edge count" 4 a.Registry.n_edges;
  let a = expect_mutate "deledge" r handle (List.nth mutation_ops 2) in
  check "epoch 3" 3 a.Registry.epoch;
  checkb "delete assigns nothing" true (a.Registry.assigned = None);
  checkb "no auto checkpoint" false a.Registry.checkpointed;
  (* Rejected ops are not applied, not logged, and do not advance the
     epoch. *)
  (match Registry.mutate r handle (W.Add_edge { name = "x"; members = [| 99 |] })
   with
  | Error (`Invalid _) -> ()
  | _ -> Alcotest.fail "out-of-range member should be `Invalid");
  (match Registry.mutate r handle (W.Del_edge { edge = 99 }) with
  | Error (`Invalid _) -> ()
  | _ -> Alcotest.fail "out-of-range edge should be `Invalid");
  (match Registry.mutate r "feedfacedeadbeef" (List.nth mutation_ops 0) with
  | Error `Missing -> ()
  | _ -> Alcotest.fail "unknown dataset should be `Missing");
  let st = e.Registry.state in
  check "epoch unmoved by rejects" 3 st.Registry.epoch;
  let oracle = apply_oracle (HIO.of_string tiny_hg) mutation_ops in
  assert_bit_identical "in-process state" oracle st.Registry.hypergraph;
  (* The handle survives; the sibling WAL names it. *)
  let log = expect_log "wal on disk" (W.read (W.sibling_path path)) in
  checks "wal handle" handle log.W.handle;
  checks "wal base is the text digest" handle log.W.base_identity;
  check "wal records" 3 (Array.length log.W.records);
  ignore (Registry.evict r handle);
  (* A fresh process folds the log over the text base. *)
  let r2 = Registry.create () in
  let e2, fresh = expect_entry "recover" (Registry.load r2 path) in
  checkb "fresh load" true fresh;
  checks "handle survives recovery" handle e2.Registry.digest;
  check "epoch recovered" 3 e2.Registry.state.Registry.epoch;
  checkb "recovered from text base" true (e2.Registry.source = Registry.Text);
  (match e2.Registry.recovery with
  | Some { Registry.replayed = 3; torn_bytes = 0; healed_skew = false } -> ()
  | Some rv ->
    Alcotest.failf "recovery {replayed=%d; torn=%d; healed=%b}"
      rv.Registry.replayed rv.Registry.torn_bytes rv.Registry.healed_skew
  | None -> Alcotest.fail "no recovery info");
  assert_bit_identical "recovered state" oracle
    e2.Registry.state.Registry.hypergraph;
  (* Recovery absorbed the log as one batch; the next re-peel must
     start from the recovered hypergraph's overlap graph. *)
  (match e2.Registry.maint with
  | Some m ->
    checkb "recovered overlap graph" true
      (HC.equal_overlap
         (Hp_hypergraph.Hypergraph_maintain.overlap m)
         (HC.overlap_graph e2.Registry.state.Registry.hypergraph))
  | None -> Alcotest.fail "recovery built no maintainer");
  (* Mutation continues the same epoch chain after recovery. *)
  let a = expect_mutate "post-recovery" r2 handle (W.Add_vertex { name = "g" }) in
  check "epoch continues" 4 a.Registry.epoch;
  ignore (Registry.evict r2 handle)

let test_checkpoint_compaction () =
  let dir = tmp_dir () in
  let path = Filename.concat dir "data.hg" in
  write_file path tiny_hg;
  let r = Registry.create () in
  let e, _ = expect_entry "load" (Registry.load r path) in
  let handle = e.Registry.digest in
  List.iter (fun op -> ignore (expect_mutate "mutate" r handle op)) mutation_ops;
  let info =
    match Registry.checkpoint r handle with
    | Ok (i : Registry.checkpoint_info) -> i
    | Error `Missing | Error `Ambiguous -> Alcotest.fail "checkpoint: resolve"
    | Error (`Io m) -> Alcotest.failf "checkpoint: %s" m
  in
  check "checkpoint epoch" 3 info.Registry.at_epoch;
  check "records folded" 3 info.Registry.records_folded;
  checks "snapshot path" (Snap.sibling_path path) info.Registry.snapshot_path;
  checkb "snapshot on disk" true (Sys.file_exists info.Registry.snapshot_path);
  (* The log was reset over the snapshot; the epoch was not. *)
  let log = expect_log "reset log" (W.read (W.sibling_path path)) in
  checks "log base is the snapshot" info.Registry.snapshot_identity
    log.W.base_identity;
  check "log base epoch" 3 log.W.base_epoch;
  check "log emptied" 0 (Array.length log.W.records);
  (* More writes land in the fresh log; recovery folds only those. *)
  ignore (expect_mutate "post" r handle (W.Add_vertex { name = "g" }));
  ignore
    (expect_mutate "post" r handle
       (W.Add_edge { name = "c5"; members = [| 6; 1 |] }));
  ignore (Registry.evict r handle);
  let r2 = Registry.create () in
  let e2, _ = expect_entry "recover" (Registry.load r2 path) in
  checks "handle survives checkpoint" handle e2.Registry.digest;
  check "epoch across checkpoint" 5 e2.Registry.state.Registry.epoch;
  checkb "recovered from the checkpoint" true
    (e2.Registry.source = Registry.Snapshot_file info.Registry.snapshot_path);
  (match e2.Registry.recovery with
  | Some rv -> check "bounded replay" 2 rv.Registry.replayed
  | None -> Alcotest.fail "no recovery info");
  let oracle =
    apply_oracle (HIO.of_string tiny_hg)
      (mutation_ops
      @ [
          W.Add_vertex { name = "g" };
          W.Add_edge { name = "c5"; members = [| 6; 1 |] };
        ])
  in
  assert_bit_identical "checkpoint recovery" oracle
    e2.Registry.state.Registry.hypergraph;
  ignore (Registry.evict r2 handle)

let test_auto_checkpoint () =
  let dir = tmp_dir () in
  let path = Filename.concat dir "data.hg" in
  write_file path tiny_hg;
  let r = Registry.create ~checkpoint_every:2 () in
  let e, _ = expect_entry "load" (Registry.load r path) in
  let handle = e.Registry.digest in
  let a = expect_mutate "first" r handle (W.Add_vertex { name = "f" }) in
  checkb "no checkpoint yet" false a.Registry.checkpointed;
  let a = expect_mutate "second" r handle (W.Add_vertex { name = "g" }) in
  checkb "auto checkpoint fired" true a.Registry.checkpointed;
  checkb "snapshot packed" true (Sys.file_exists (Snap.sibling_path path));
  let log = expect_log "reset" (W.read (W.sibling_path path)) in
  check "log emptied by auto checkpoint" 0 (Array.length log.W.records);
  check "log base epoch" 2 log.W.base_epoch;
  let a = expect_mutate "third" r handle (W.Add_vertex { name = "h" }) in
  checkb "counter restarted" false a.Registry.checkpointed;
  ignore (Registry.evict r handle);
  let r2 = Registry.create () in
  let e2, _ = expect_entry "recover" (Registry.load r2 path) in
  check "epoch" 3 e2.Registry.state.Registry.epoch;
  (match e2.Registry.recovery with
  | Some rv -> check "only the post-checkpoint record replays" 1 rv.Registry.replayed
  | None -> Alcotest.fail "no recovery info");
  ignore (Registry.evict r2 handle)

(* Checkpoint/log skew: the snapshot renamed but the log not reset —
   the crash window between the checkpoint's two atomic steps.  The
   recovered entry adopts the snapshot (which already contains every
   logged record) and retires the log. *)
let test_skew_heal () =
  let dir = tmp_dir () in
  let path = Filename.concat dir "data.hg" in
  write_file path tiny_hg;
  let r = Registry.create () in
  let e, _ = expect_entry "load" (Registry.load r path) in
  let handle = e.Registry.digest in
  (* A first checkpoint pins the log to snapshot S1 — a base that only
     exists as that file. *)
  List.iter (fun op -> ignore (expect_mutate "mutate" r handle op))
    [ List.nth mutation_ops 0; List.nth mutation_ops 1 ];
  (match Registry.checkpoint r handle with
  | Ok _ -> ()
  | _ -> Alcotest.fail "first checkpoint");
  ignore (expect_mutate "post" r handle (List.nth mutation_ops 2));
  (* Simulate the crash between a second checkpoint's two renames:
     pack the current state over S1 ourselves, leaving the log naming
     a snapshot identity that is no longer on disk. *)
  ignore
    (Snap.pack e.Registry.state.Registry.hypergraph (Snap.sibling_path path));
  ignore (Registry.evict r handle);
  let r2 = Registry.create () in
  let e2, _ = expect_entry "heal" (Registry.load r2 path) in
  checks "handle survives the heal" handle e2.Registry.digest;
  check "epoch = base + log length" 3 e2.Registry.state.Registry.epoch;
  (match e2.Registry.recovery with
  | Some { Registry.replayed = 0; healed_skew = true; _ } -> ()
  | Some rv ->
    Alcotest.failf "heal {replayed=%d; healed=%b}" rv.Registry.replayed
      rv.Registry.healed_skew
  | None -> Alcotest.fail "no recovery info");
  let oracle = apply_oracle (HIO.of_string tiny_hg) mutation_ops in
  assert_bit_identical "healed state" oracle
    e2.Registry.state.Registry.hypergraph;
  (* The log was retired: fresh, empty, based on the snapshot. *)
  let log = expect_log "retired log" (W.read (W.sibling_path path)) in
  check "retired log empty" 0 (Array.length log.W.records);
  check "retired log epoch" 3 log.W.base_epoch;
  ignore (Registry.evict r2 handle)

(* The same skew produced the intended way: the [wal.swap] failpoint
   fails the checkpoint between its two renames.  The entry must stay
   writable (the next mutation folds over the already-renamed
   snapshot) and a restart must heal. *)
let test_swap_failpoint () =
  let dir = tmp_dir () in
  let path = Filename.concat dir "data.hg" in
  write_file path tiny_hg;
  let r = Registry.create () in
  let e, _ = expect_entry "load" (Registry.load r path) in
  let handle = e.Registry.digest in
  List.iter (fun op -> ignore (expect_mutate "mutate" r handle op)) mutation_ops;
  Fault.arm ~count:1 "wal.swap" Fault.Err;
  Fun.protect ~finally:Fault.reset @@ fun () ->
  (match Registry.checkpoint r handle with
  | Error (`Io msg) -> checkb "names the failpoint" true
      (String.length msg > 0)
  | Ok _ -> Alcotest.fail "checkpoint should fail at wal.swap"
  | Error `Missing | Error `Ambiguous -> Alcotest.fail "resolve");
  (* The snapshot is on disk but the old log still names the text
     base; writing again must create a sound log over the snapshot. *)
  let a = expect_mutate "after failed swap" r handle (W.Add_vertex { name = "g" }) in
  check "epoch continues" 4 a.Registry.epoch;
  let log = expect_log "fresh log" (W.read (W.sibling_path path)) in
  check "fresh log base epoch" 3 log.W.base_epoch;
  check "one record since the snapshot" 1 (Array.length log.W.records);
  ignore (Registry.evict r handle);
  let r2 = Registry.create () in
  let e2, _ = expect_entry "recover" (Registry.load r2 path) in
  check "epoch recovered" 4 e2.Registry.state.Registry.epoch;
  let oracle =
    apply_oracle (HIO.of_string tiny_hg)
      (mutation_ops @ [ W.Add_vertex { name = "g" } ])
  in
  assert_bit_identical "post-swap-failure recovery" oracle
    e2.Registry.state.Registry.hypergraph;
  ignore (Registry.evict r2 handle)

(* No loadable base matches the log: a typed error, not a guess.  A
   torn tail, by contrast, is the expected crash shape and recovers. *)
let test_base_skew_and_torn_tail () =
  let dir = tmp_dir () in
  let path = Filename.concat dir "data.hg" in
  write_file path tiny_hg;
  let r = Registry.create () in
  let e, _ = expect_entry "load" (Registry.load r path) in
  let handle = e.Registry.digest in
  List.iter (fun op -> ignore (expect_mutate "mutate" r handle op)) mutation_ops;
  ignore (Registry.evict r handle);
  let wal_path = W.sibling_path path in
  let wal_bytes = read_bytes wal_path in
  (* Torn tail: cut into the last record; recovery drops it. *)
  write_bytes wal_path (String.sub wal_bytes 0 (String.length wal_bytes - 5));
  let r2 = Registry.create () in
  let e2, _ = expect_entry "torn recovery" (Registry.load r2 path) in
  check "last record dropped" 2 e2.Registry.state.Registry.epoch;
  (match e2.Registry.recovery with
  | Some rv ->
    check "replayed prefix" 2 rv.Registry.replayed;
    checkb "torn bytes reported" true (rv.Registry.torn_bytes > 0)
  | None -> Alcotest.fail "no recovery info");
  let oracle =
    apply_oracle (HIO.of_string tiny_hg)
      [ List.nth mutation_ops 0; List.nth mutation_ops 1 ]
  in
  assert_bit_identical "torn recovery" oracle
    e2.Registry.state.Registry.hypergraph;
  (* Recovery truncated the tail on disk: a re-read is clean. *)
  let log = expect_log "truncated on disk" (W.read wal_path) in
  check "clean after recovery" 0 log.W.torn_bytes;
  ignore (Registry.evict r2 handle);
  (* Base skew: rewrite the text file under the log, no snapshot. *)
  write_bytes wal_path wal_bytes;
  write_file path "# other\nz1: p q\n";
  (match Registry.load (Registry.create ()) path with
  | Error (Registry.Parse_failed msg) ->
    checkb "skew message names the wal" true
      (String.length msg >= String.length wal_path
      && String.sub msg 0 (String.length wal_path) = wal_path)
  | Ok _ -> Alcotest.fail "base skew accepted"
  | Error (Registry.Read_failed m) -> Alcotest.failf "base skew as Io: %s" m);
  (* A corrupt mid-log WAL is also a typed load error. *)
  write_file path tiny_hg;
  let b = Bytes.of_string wal_bytes in
  let mid = Bytes.length b - 10 in
  Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0x10));
  write_bytes wal_path (Bytes.to_string b);
  match Registry.load (Registry.create ()) path with
  | Error (Registry.Parse_failed _) -> ()
  | Ok _ -> Alcotest.fail "corrupt wal accepted"
  | Error (Registry.Read_failed m) -> Alcotest.failf "corrupt wal as Io: %s" m

(* Satellite 4: provenance precedence with all three artifacts on
   disk — checkpoint+WAL beats a fresh snapshot beats the text parse. *)
let test_load_precedence () =
  let dir = tmp_dir () in
  let path = Filename.concat dir "data.hg" in
  write_file path tiny_hg;
  let r = Registry.create () in
  let e, _ = expect_entry "load" (Registry.load r path) in
  let handle = e.Registry.digest in
  ignore (expect_mutate "m1" r handle (W.Add_vertex { name = "f" }));
  ignore (expect_mutate "m2" r handle (W.Add_vertex { name = "g" }));
  (match Registry.checkpoint r handle with
  | Ok _ -> ()
  | _ -> Alcotest.fail "checkpoint");
  ignore (expect_mutate "m3" r handle (W.Add_vertex { name = "h" }));
  ignore (Registry.evict r handle);
  let snap_path = Snap.sibling_path path in
  let wal_path = W.sibling_path path in
  (* 1. checkpoint + WAL: full durable state, handle preserved. *)
  let e1, _ = expect_entry "wal wins" (Registry.load (Registry.create ()) path) in
  checks "handle under wal" handle e1.Registry.digest;
  check "epoch under wal" 3 e1.Registry.state.Registry.epoch;
  checkb "checkpoint is the base" true
    (e1.Registry.source = Registry.Snapshot_file snap_path);
  checkb "recovery recorded" true (e1.Registry.recovery <> None);
  (* 2. snapshot without WAL: a plain snapshot load — snapshot
     identity, epoch 0, no recovery. *)
  Sys.remove wal_path;
  let e2, _ = expect_entry "snapshot next" (Registry.load (Registry.create ()) path) in
  checkb "snapshot source" true (e2.Registry.source = Registry.Snapshot_file snap_path);
  checkb "snapshot identity, not the handle" true (e2.Registry.digest <> handle);
  check "epoch 0" 0 e2.Registry.state.Registry.epoch;
  checkb "no recovery" true (e2.Registry.recovery = None);
  (* 3. text alone: parse, digest is the handle again. *)
  Sys.remove snap_path;
  let e3, _ = expect_entry "text last" (Registry.load (Registry.create ()) path) in
  checkb "text source" true (e3.Registry.source = Registry.Text);
  checks "text digest" handle e3.Registry.digest;
  check "epoch 0" 0 e3.Registry.state.Registry.epoch

(* ---------- epoch-aware cache keys ---------- *)

let test_epoch_cache_keys () =
  let digest = "0123456789abcdef" in
  let k0 = Result_cache.key ~digest ~epoch:0 ~analysis:P.Stats in
  let k1 = Result_cache.key ~digest ~epoch:1 ~analysis:P.Stats in
  checkb "epoch distinguishes keys" true (k0 <> k1);
  checks "key shape" (digest ^ "@0 stats") k0;
  let c = Result_cache.create ~capacity:8 ~metrics:(Metrics.create ()) () in
  Result_cache.add c k0 [ ("vertices", "5") ];
  Result_cache.add c k1 [ ("vertices", "6") ];
  checkb "both epochs resident" true
    (Result_cache.find c k0 = Some [ ("vertices", "5") ]
    && Result_cache.find c k1 = Some [ ("vertices", "6") ]);
  (* Eviction by dataset drops every epoch. *)
  check "drop all epochs" 2 (Result_cache.drop_dataset c ~digest);
  checkb "gone" true
    (Result_cache.find c k0 = None && Result_cache.find c k1 = None)

(* Satellite 1: a truncated or bit-flipped cache file must answer
   [Error] (cold start), never raise. *)
let test_cache_restore_never_raises () =
  let dir = tmp_dir () in
  let file = Filename.concat dir "cache.bin" in
  let fresh () = Result_cache.create ~capacity:8 ~metrics:(Metrics.create ()) () in
  let c = fresh () in
  for i = 1 to 6 do
    Result_cache.add c
      (Result_cache.key ~digest:(Printf.sprintf "digest%d" i) ~epoch:i
         ~analysis:P.Stats)
      [ ("k", string_of_int i); ("raw", "tab\there \xff") ]
  done;
  (match Result_cache.save c file with
  | Ok 6 -> ()
  | Ok n -> Alcotest.failf "saved %d" n
  | Error m -> Alcotest.failf "save: %s" m);
  let bytes = read_bytes file in
  let rng = Hp_util.Prng.create 42 in
  for _ = 1 to 200 do
    let b = Bytes.of_string bytes in
    let at = Hp_util.Prng.int rng (Bytes.length b) in
    Bytes.set b at (Char.chr (Hp_util.Prng.int rng 256));
    write_bytes file (Bytes.to_string b);
    let c = fresh () in
    match Result_cache.restore c file with
    | Ok _ -> ()
    | Error _ -> check "failed restore leaves the cache cold" 0 (Result_cache.length c)
  done;
  for _ = 1 to 50 do
    let keep = Hp_util.Prng.int rng (String.length bytes) in
    write_bytes file (String.sub bytes 0 keep);
    match Result_cache.restore (fresh ()) file with
    | Ok _ | Error _ -> ()
  done;
  (* An unreadable file (a directory, say) is an error, not a crash. *)
  match Result_cache.restore (fresh ()) dir with
  | Error _ -> ()
  | Ok n -> Alcotest.failf "restored %d entries from a directory" n

let () =
  Alcotest.run "hp_wal"
    [
      ( "codec",
        [
          Alcotest.test_case "round trip" `Quick test_round_trip;
          Alcotest.test_case "sync policies" `Quick test_sync_policies;
          Alcotest.test_case "sibling path" `Quick test_sibling_path;
          Alcotest.test_case "torn tail at every byte" `Quick test_torn_tail_matrix;
          Alcotest.test_case "mid-log corruption" `Quick test_midlog_corruption;
          Alcotest.test_case "error rendering" `Quick test_error_rendering;
          Alcotest.test_case "torn append failpoint" `Quick
            test_torn_append_failpoint;
          Alcotest.test_case "bit-flip fuzz never raises" `Quick test_bitflip_fuzz;
        ] );
      ( "live",
        [
          Alcotest.test_case "op semantics" `Quick test_live_semantics;
          QCheck_alcotest.to_alcotest prop_delta_publish;
        ] );
      ( "registry",
        [
          Alcotest.test_case "mutate, evict, recover" `Quick
            test_mutate_and_recover;
          Alcotest.test_case "checkpoint compaction" `Quick
            test_checkpoint_compaction;
          Alcotest.test_case "auto checkpoint" `Quick test_auto_checkpoint;
          Alcotest.test_case "skew heal" `Quick test_skew_heal;
          Alcotest.test_case "wal.swap failpoint" `Quick test_swap_failpoint;
          Alcotest.test_case "base skew and torn tail" `Quick
            test_base_skew_and_torn_tail;
          Alcotest.test_case "load precedence" `Quick test_load_precedence;
        ] );
      ( "cache",
        [
          Alcotest.test_case "epoch-aware keys" `Quick test_epoch_cache_keys;
          Alcotest.test_case "restore never raises" `Quick
            test_cache_restore_never_raises;
        ] );
    ]
