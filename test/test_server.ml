(* The hgd server stack: protocol encode/decode, registry identity,
   metrics, and a socket-level integration pass against an in-process
   server (LOAD + STATS + KCORE, repeated query served from cache,
   malformed requests answered with structured errors). *)

module P = Hp_server.Protocol
module Server = Hp_server.Server
module Client = Hp_server.Client
module Registry = Hp_server.Registry
module Metrics = Hp_server.Metrics
module Result_cache = Hp_server.Result_cache
module Snap = Hp_snapshot.Snapshot
module HIO = Hp_hypergraph.Hypergraph_io

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* ---------- protocol ---------- *)

let test_parse_requests () =
  let ok line req =
    match P.parse_request line with
    | Ok got -> checkb line true (got = req)
    | Error msg -> Alcotest.failf "%s: unexpected parse error %s" line msg
  in
  ok "LOAD data/x.hg" (P.Load "data/x.hg");
  ok "load data/x.hg" (P.Load "data/x.hg");
  ok "STATS abcd1234" (P.Analyze { dataset = "abcd1234"; analysis = P.Stats });
  ok "KCORE abcd1234" (P.Analyze { dataset = "abcd1234"; analysis = P.Kcore None });
  ok "KCORE abcd1234 3"
    (P.Analyze { dataset = "abcd1234"; analysis = P.Kcore (Some 3) });
  ok "COVER abcd1234"
    (P.Analyze
       { dataset = "abcd1234"; analysis = P.Cover { weighting = P.Uniform; r = 1 } });
  ok "COVER abcd1234 degree2 2"
    (P.Analyze
       {
         dataset = "abcd1234";
         analysis = P.Cover { weighting = P.Degree_squared; r = 2 };
       });
  ok "  METRICS  " (P.Metrics P.Table);
  ok "METRICS table" (P.Metrics P.Table);
  ok "METRICS prom" (P.Metrics P.Prometheus);
  ok "metrics PROMETHEUS" (P.Metrics P.Prometheus);
  ok "TRACE" (P.Trace None);
  ok "TRACE 5" (P.Trace (Some 5));
  ok "EVICT" (P.Evict None);
  ok "EVICT abcd" (P.Evict (Some "abcd"));
  ok "PING" P.Ping;
  ok "SHUTDOWN" P.Shutdown;
  ok "BATCH 1" (P.Batch 1);
  ok "batch 1024" (P.Batch P.max_batch_items);
  ok "ADDVERTEX abcd1234 p53"
    (P.Add_vertex { dataset = "abcd1234"; name = "p53" });
  ok "addvertex abcd1234 p53"
    (P.Add_vertex { dataset = "abcd1234"; name = "p53" });
  ok "ADDEDGE abcd1234 cplx 0 5 2"
    (P.Add_edge { dataset = "abcd1234"; name = "cplx"; members = [ 0; 5; 2 ] });
  ok "ADDEDGE abcd1234 lonely"
    (P.Add_edge { dataset = "abcd1234"; name = "lonely"; members = [] });
  ok "DELEDGE abcd1234 3" (P.Del_edge { dataset = "abcd1234"; edge = 3 });
  ok "CHECKPOINT abcd1234" (P.Checkpoint "abcd1234")

let test_parse_rejects () =
  let bad line =
    match P.parse_request line with
    | Ok _ -> Alcotest.failf "%S should not parse" line
    | Error _ -> ()
  in
  bad "";
  bad "   ";
  bad "FROB x";
  bad "LOAD";
  bad "LOAD a b";
  bad "STATS";
  bad "KCORE ds notanint";
  bad "KCORE ds -1";
  bad "COVER ds upside-down";
  bad "COVER ds degree 0";
  bad "METRICS json";
  bad "METRICS prom extra";
  bad "TRACE 0";
  bad "TRACE -3";
  bad "TRACE notanint";
  bad "TRACE 1 2";
  bad "PING extra";
  bad "SHUTDOWN now";
  bad "BATCH";
  bad "BATCH 0";
  bad "BATCH -2";
  bad "BATCH notanint";
  bad ("BATCH " ^ string_of_int (P.max_batch_items + 1));
  bad "BATCH 1 2";
  bad "ADDVERTEX";
  bad "ADDVERTEX ds";
  bad "ADDVERTEX ds a b";
  bad "ADDEDGE";
  bad "ADDEDGE ds";
  bad "ADDEDGE ds name notanint";
  bad "ADDEDGE ds name -1";
  bad "DELEDGE ds";
  bad "DELEDGE ds -1";
  bad "DELEDGE ds notanint";
  bad "DELEDGE ds 1 2";
  bad "CHECKPOINT";
  bad "CHECKPOINT a b"

let request_gen =
  QCheck.Gen.(
    let dataset = string_size ~gen:(oneofl [ 'a'; 'b'; '0'; '9'; 'f' ]) (return 8) in
    let weighting = oneofl [ P.Uniform; P.Degree; P.Degree_squared ] in
    let analysis =
      oneof
        [
          return P.Stats;
          map (fun k -> P.Kcore k) (opt (int_range 0 20));
          map2 (fun w r -> P.Cover { weighting = w; r }) weighting (int_range 1 5);
          return P.Storage;
          return P.Powerlaw;
        ]
    in
    oneof
      [
        map (fun ds -> P.Load ("data/" ^ ds ^ ".hg")) dataset;
        map2 (fun ds a -> P.Analyze { dataset = ds; analysis = a }) dataset analysis;
        return P.Datasets;
        map (fun f -> P.Metrics f) (oneofl [ P.Table; P.Prometheus ]);
        map (fun n -> P.Trace n) (opt (int_range 1 50));
        map (fun ds -> P.Evict ds) (opt dataset);
        return P.Ping;
        return P.Shutdown;
        map (fun n -> P.Batch n) (int_range 1 P.max_batch_items);
        map2
          (fun ds n -> P.Add_vertex { dataset = ds; name = "v" ^ string_of_int n })
          dataset (int_range 0 99);
        map3
          (fun ds n members ->
            P.Add_edge { dataset = ds; name = "e" ^ string_of_int n; members })
          dataset (int_range 0 99)
          (list_size (int_range 0 4) (int_range 0 50));
        map2 (fun ds e -> P.Del_edge { dataset = ds; edge = e }) dataset
          (int_range 0 99);
        map (fun ds -> P.Checkpoint ds) dataset;
      ])

let request_print r = P.request_line r

let prop_request_roundtrip =
  QCheck.Test.make ~name:"protocol: request_line round-trips" ~count:500
    (QCheck.make ~print:request_print request_gen)
    (fun req -> P.parse_request (P.request_line req) = Ok req)

let payload_gen =
  QCheck.Gen.(
    let token =
      string_size ~gen:(oneofl [ 'a'; 'z'; '0'; '.'; '-'; ' ' ]) (int_range 1 12)
    in
    let key = string_size ~gen:(oneofl [ 'a'; 'z'; '_' ]) (int_range 1 8) in
    list_size (int_range 0 10) (pair key token))

let reply_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun kvs -> P.Ok kvs) payload_gen;
        map3
          (fun code retry_after_ms message ->
            P.Err { code; message; retry_after_ms })
          (oneofl
             [ P.Bad_request; P.Unknown_dataset; P.Parse_error; P.Io_error;
               P.Timeout; P.Busy; P.Internal ])
          (opt (int_range 0 60_000))
          (string_size ~gen:(oneofl [ 'x'; ' '; '1' ]) (int_range 0 20));
      ])

let prop_reply_roundtrip =
  QCheck.Test.make ~name:"protocol: reply encode/decode round-trips" ~count:500
    (QCheck.make ~print:P.encode_reply reply_gen)
    (fun reply -> P.decode_reply (P.encode_reply reply) = Ok reply)

(* The one-allocation encoder against the Buffer encoder it replaced,
   kept here as the reference: [encode_reply ~prefix r] is [prefix]
   followed by the reference bytes.  Keys, values and messages carry
   tabs, newlines and CRs; replies include an empty [Ok []] and
   errors with and without a retry hint. *)
let reference_encode =
  let sanitize = String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) in
  function
  | P.Ok kvs ->
    let buf = Buffer.create 256 in
    Buffer.add_string buf (Printf.sprintf "OK %d\n" (List.length kvs));
    List.iter
      (fun (k, v) ->
        Buffer.add_string buf (sanitize k);
        Buffer.add_char buf '\t';
        Buffer.add_string buf (sanitize v);
        Buffer.add_char buf '\n')
      kvs;
    Buffer.contents buf
  | P.Err { code; message; retry_after_ms } ->
    let hint =
      match retry_after_ms with
      | None -> ""
      | Some ms -> Printf.sprintf "retry_after_ms=%d " ms
    in
    Printf.sprintf "ERR %s %s%s\n" (P.error_code_to_string code) hint
      (sanitize message)

let hostile_reply_gen =
  QCheck.Gen.(
    let text =
      string_size ~gen:(oneofl [ 'a'; 'Z'; '7'; ' '; '='; '\t'; '\n'; '\r' ]) (int_range 0 40)
    in
    oneof
      [
        return (P.Ok []);
        map (fun kvs -> P.Ok kvs) (list_size (int_range 1 12) (pair text text));
        (* Long values: the cached KCORE member list is 2.4 KB. *)
        map (fun kvs -> P.Ok kvs)
          (list_size (int_range 1 3)
             (pair text (string_size ~gen:(oneofl [ 'x'; ' '; '\t' ]) (int_range 0 3000))));
        map3
          (fun code retry_after_ms message -> P.Err { code; message; retry_after_ms })
          (oneofl
             [ P.Bad_request; P.Unknown_dataset; P.Parse_error; P.Io_error;
               P.Timeout; P.Busy; P.Internal ])
          (oneof [ return None; map Option.some (int_range 0 1_000_000) ])
          text;
      ])

let prop_encode_matches_reference =
  QCheck.Test.make ~name:"protocol: encode_reply ~prefix = prefix ^ reference"
    ~count:1000
    (QCheck.make
       ~print:(fun (prefix, r) ->
         match r with
         | P.Ok kvs ->
           Printf.sprintf "%S Ok [%s]" prefix
             (String.concat "; " (List.map (fun (k, v) -> Printf.sprintf "%S, %S" k v) kvs))
         | P.Err { message; _ } -> Printf.sprintf "%S Err %S" prefix message)
       QCheck.Gen.(pair (oneofl [ ""; "ITEM 0\n"; "ITEM 1023\n" ]) hostile_reply_gen))
    (fun (prefix, r) ->
      P.encode_reply ~prefix r = prefix ^ reference_encode r
      && P.encode_reply r = reference_encode r)

(* The framer's cheap BATCH check agrees with the full parser: verbs
   in any case, repeated, leading and trailing spaces, tabs and CRs,
   edge counts, non-integers and extra tokens. *)
let batch_line_gen =
  QCheck.Gen.(
    let pad = oneofl [ ""; " "; "   "; "\t"; "\r"; " \r"; "\t " ] in
    let verb =
      oneofl [ "BATCH"; "batch"; "Batch"; "bAtCh"; "BATCHX"; "BATC"; "XBATCH"; "PING"; "" ]
    in
    let sep = oneofl [ ""; " "; "  "; "\t"; " \t"; "\r"; " \r " ] in
    let count =
      oneofl [ "0"; "1"; "2"; "1024"; "1025"; "-1"; "x"; "1.5"; "3x"; "0x10"; "" ]
    in
    let extra = oneofl [ ""; ""; " x"; " 2"; "\t7"; " 1 1" ] in
    map (String.concat "") (flatten_l [ pad; verb; sep; count; extra; pad ]))

let prop_batch_header =
  QCheck.Test.make ~name:"protocol: batch_header agrees with parse_request"
    ~count:1000
    (QCheck.make ~print:(Printf.sprintf "%S") batch_line_gen)
    (fun line ->
      P.batch_header line
      = match P.parse_request line with Ok (P.Batch n) -> Some n | _ -> None)

let test_reply_sanitization () =
  (* Tabs and newlines in payloads must not break framing. *)
  let encoded = P.encode_reply (P.Ok [ ("key", "a\tb\nc") ]) in
  match P.decode_reply encoded with
  | Ok (P.Ok [ ("key", v) ]) ->
    checks "sanitized" "a b c" v
  | _ -> Alcotest.fail "sanitized reply should decode to one binding"

let test_analysis_key_defaults () =
  checks "kcore max" "kcore k=max" (P.analysis_key (P.Kcore None));
  checks "kcore 3" "kcore k=3" (P.analysis_key (P.Kcore (Some 3)));
  checks "cover" "cover w=degree2 r=2"
    (P.analysis_key (P.Cover { weighting = P.Degree_squared; r = 2 }))

(* ---------- registry ---------- *)

let write_file path content =
  let oc = open_out path in
  output_string oc content;
  close_out oc

let tiny_hg = "# test\nc1: a b c\nc2: b c d\nc3: c d e\n"

let test_registry_identity () =
  let dir = Filename.temp_dir "hgd" "registry" in
  let p1 = Filename.concat dir "one.hg" in
  let p2 = Filename.concat dir "two.hg" in
  write_file p1 tiny_hg;
  write_file p2 tiny_hg;
  let r = Registry.create () in
  (match (Registry.load r p1, Registry.load r p1, Registry.load r p2) with
  | Ok (e1, fresh1), Ok (e2, fresh2), Ok (e3, fresh3) ->
    checkb "first load is fresh" true fresh1;
    checkb "reload is resident" false fresh2;
    checkb "same bytes, same dataset" false fresh3;
    checks "stable digest" e1.digest e2.digest;
    checks "content-addressed" e1.digest e3.digest;
    check "one resident dataset" 1 (List.length (Registry.list r));
    (match Registry.find r (String.sub e1.digest 0 8) with
    | `Found e -> checks "prefix lookup" e1.digest e.digest
    | _ -> Alcotest.fail "digest prefix should resolve");
    checkb "short prefix missing" true (Registry.find r "ab" = `Missing);
    checkb "evict" true (Registry.evict r e1.digest <> None);
    check "empty after evict" 0 (List.length (Registry.list r))
  | _ -> Alcotest.fail "loads should succeed");
  (match Registry.load r (Filename.concat dir "absent.hg") with
  | Error (Registry.Read_failed _) -> ()
  | _ -> Alcotest.fail "missing file should be Read_failed");
  let bad = Filename.concat dir "bad.hg" in
  write_file bad "c1: a b\nbroken line here\n";
  match Registry.load r bad with
  | Error (Registry.Parse_failed msg) ->
    checkb "names the file" true
      (String.length msg >= String.length bad
      && String.sub msg 0 (String.length bad) = bad)
  | _ -> Alcotest.fail "malformed file should be Parse_failed"

(* A text path with a valid sibling snapshot loads from the snapshot; a
   corrupt sibling is rejected and falls back to the text parse; a
   stale sibling (text edited after the pack) is ignored outright. *)
let test_registry_snapshot_preference () =
  let dir = Filename.temp_dir "hgd" "regsnap" in
  let path = Filename.concat dir "data.hg" in
  write_file path tiny_hg;
  let expect_load r p =
    match Registry.load r p with
    | Ok (e, fresh) ->
      checkb "load is fresh" true fresh;
      e
    | Error (Registry.Read_failed m | Registry.Parse_failed m) ->
      Alcotest.failf "load %s: %s" p m
  in
  (* No sibling yet: plain text load. *)
  let e = expect_load (Registry.create ()) path in
  checkb "text source" true (e.Registry.source = Registry.Text);
  checkb "no fallback" false e.Registry.fallback;
  let text_digest = e.Registry.digest in
  (* Pack the sibling (mtime >= the text file's): now preferred. *)
  let snap = Snap.sibling_path path in
  let info = Snap.pack (HIO.of_string tiny_hg) snap in
  let e = expect_load (Registry.create ()) path in
  checkb "snapshot source" true (e.Registry.source = Registry.Snapshot_file snap);
  checks "snapshot identity as digest" info.Snap.identity e.Registry.digest;
  checkb "identity differs from text digest" true
    (e.Registry.digest <> text_digest);
  checkb "no fallback" false e.Registry.fallback;
  (* Stale sibling: make the text file strictly newer; it wins. *)
  let future = Unix.gettimeofday () +. 3600.0 in
  Unix.utimes path future future;
  let e = expect_load (Registry.create ()) path in
  checkb "stale sibling ignored" true (e.Registry.source = Registry.Text);
  checkb "stale sibling is not a fallback" false e.Registry.fallback;
  Unix.utimes snap (future +. 1.0) (future +. 1.0);
  (* Corrupt sibling: degrade to the text parse, marked as fallback. *)
  let bytes =
    let ic = open_in_bin snap in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  in
  let corrupt = Bytes.of_string bytes in
  let mid = Bytes.length corrupt / 2 in
  Bytes.set corrupt mid (Char.chr (Char.code (Bytes.get corrupt mid) lxor 0x40));
  write_file snap (Bytes.to_string corrupt);
  (* Rewriting reset the sibling's mtime; keep it ahead of the text
     file so it is still the preferred load. *)
  Unix.utimes snap (future +. 1.0) (future +. 1.0);
  let e = expect_load (Registry.create ()) path in
  checkb "fallback to text" true (e.Registry.source = Registry.Text);
  checkb "fallback recorded" true e.Registry.fallback;
  checks "text digest on fallback" text_digest e.Registry.digest;
  (* Corruption on a direct .hgsnap load is an error, not a fallback. *)
  (match Registry.load (Registry.create ()) snap with
  | Error (Registry.Parse_failed msg) ->
    checkb "names the snapshot" true
      (String.length msg >= String.length snap
      && String.sub msg 0 (String.length snap) = snap)
  | _ -> Alcotest.fail "corrupt direct snapshot load should be Parse_failed");
  (* A healthy direct .hgsnap load works. *)
  write_file snap bytes;
  let e = expect_load (Registry.create ()) snap in
  checkb "direct snapshot source" true
    (e.Registry.source = Registry.Snapshot_file snap)

(* ---------- result cache persistence ---------- *)

let test_cache_persistence () =
  let dir = Filename.temp_dir "hgd" "cache" in
  let file = Filename.concat dir "cache.bin" in
  let fresh capacity = Result_cache.create ~capacity ~metrics:(Metrics.create ()) () in
  let payload i =
    [ ("k", string_of_int i); ("weird", "tab\there newline\nthere \xff") ]
  in
  (* Missing file: a cold start, not an error. *)
  (match Result_cache.restore (fresh 8) file with
  | Ok 0 -> ()
  | Ok n -> Alcotest.failf "restore of missing file returned %d entries" n
  | Error msg -> Alcotest.failf "restore of missing file: %s" msg);
  let c = fresh 4 in
  for i = 1 to 5 do
    Result_cache.add c (Printf.sprintf "digest%d stats" i) (payload i)
  done;
  (* Capacity 4: entry 1 was evicted before the save. *)
  (match Result_cache.save c file with
  | Ok 4 -> ()
  | Ok n -> Alcotest.failf "saved %d entries, expected 4" n
  | Error msg -> Alcotest.failf "save: %s" msg);
  let c2 = fresh 8 in
  (match Result_cache.restore c2 file with
  | Ok 4 -> ()
  | Ok n -> Alcotest.failf "restored %d entries, expected 4" n
  | Error msg -> Alcotest.failf "restore: %s" msg);
  for i = 2 to 5 do
    checkb
      (Printf.sprintf "entry %d survives the round trip" i)
      true
      (Result_cache.find c2 (Printf.sprintf "digest%d stats" i) = Some (payload i))
  done;
  (* Restoring into a smaller cache keeps the most recently used. *)
  let c3 = fresh 2 in
  (match Result_cache.restore c3 file with
  | Ok 2 -> ()
  | Ok n -> Alcotest.failf "restored %d entries into capacity 2" n
  | Error msg -> Alcotest.failf "restore small: %s" msg);
  checkb "most recent kept" true
    (Result_cache.find c3 "digest5 stats" = Some (payload 5));
  checkb "second most recent kept" true
    (Result_cache.find c3 "digest4 stats" = Some (payload 4));
  checkb "older dropped" true (Result_cache.find c3 "digest3 stats" = None);
  (* Any corruption fails the checksum and leaves the cache untouched. *)
  let bytes =
    let ic = open_in_bin file in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  in
  List.iter
    (fun pos ->
      let corrupt = Bytes.of_string bytes in
      Bytes.set corrupt pos (Char.chr (Char.code (Bytes.get corrupt pos) lxor 1));
      write_file file (Bytes.to_string corrupt);
      let c = fresh 8 in
      (match Result_cache.restore c file with
      | Error _ -> ()
      | Ok n -> Alcotest.failf "corrupt restore (byte %d) returned Ok %d" pos n);
      check "corrupt restore leaves cache empty" 0 (Result_cache.length c))
    [ 0; 9; 20; String.length bytes / 2; String.length bytes - 1 ];
  List.iter
    (fun keep ->
      write_file file (String.sub bytes 0 keep);
      match Result_cache.restore (fresh 8) file with
      | Error _ -> ()
      | Ok n -> Alcotest.failf "truncated restore (%d bytes) returned Ok %d" keep n)
    [ 5; 8; 31; String.length bytes - 1 ];
  (* An empty cache round-trips too. *)
  (match Result_cache.save (fresh 4) file with
  | Ok 0 -> ()
  | Ok n -> Alcotest.failf "empty save wrote %d entries" n
  | Error msg -> Alcotest.failf "empty save: %s" msg);
  match Result_cache.restore (fresh 4) file with
  | Ok 0 -> ()
  | Ok n -> Alcotest.failf "empty restore returned %d entries" n
  | Error msg -> Alcotest.failf "empty restore: %s" msg

(* ---------- metrics ---------- *)

let test_metrics_counters () =
  let m = Metrics.create () in
  check "unset counter" 0 (Metrics.get m "nope");
  Metrics.incr m "requests_total";
  Metrics.incr m ~by:4 "requests_total";
  check "incremented" 5 (Metrics.get m "requests_total");
  Metrics.observe_latency m 0.001;
  Metrics.observe_latency m 0.004;
  Metrics.observe_latency m 0.1;
  let snap = Metrics.snapshot m in
  checks "latency count" "3" (List.assoc "latency_count" snap);
  checkb "p50 present" true (List.mem_assoc "latency_p50_us" snap);
  checkb "max is 100ms" true
    (int_of_string (List.assoc "latency_max_us" snap) >= 100_000)

(* The percentile scan must agree with the retired implementation,
   which expanded every bucket count into individual observations and
   indexed the resulting sorted list (the O(total) behaviour the
   rewrite removed).  The expansion is the oracle here. *)
let test_percentiles_from_buckets () =
  let n = Metrics.n_buckets in
  let oracle buckets total max_us p =
    if total <= 0 then 0
    else begin
      let values = ref [] in
      for i = n - 1 downto 0 do
        for _ = 1 to buckets.(i) do
          values := (1 lsl i) :: !values
        done
      done;
      let arr = Array.of_list !values in
      let need =
        max 1 (min total (int_of_float (ceil (p /. 100.0 *. float_of_int total))))
      in
      if need - 1 < Array.length arr then arr.(need - 1) else max_us
    end
  in
  let case name buckets =
    let full = Array.make n 0 in
    List.iter (fun (i, c) -> full.(i) <- c) buckets;
    let total = Array.fold_left ( + ) 0 full in
    let max_us =
      let m = ref 0 in
      Array.iteri (fun i c -> if c > 0 then m := (1 lsl (i + 1)) - 1) full;
      !m
    in
    List.iter
      (fun p ->
        check
          (Printf.sprintf "%s p%g" name p)
          (oracle full total max_us p)
          (Metrics.percentile_of_buckets ~buckets:full ~total ~max_us p))
      [ 0.0; 1.0; 50.0; 90.0; 99.0; 99.9; 100.0 ]
  in
  case "empty" [];
  case "one observation" [ (5, 1) ];
  case "one bucket" [ (3, 100) ];
  case "two buckets" [ (0, 7); (10, 3) ];
  case "spread" [ (1, 5); (2, 40); (5, 30); (9, 20); (20, 5) ];
  case "heavy tail" [ (0, 990); (30, 10) ];
  case "last bucket" [ (n - 1, 4) ]

(* Regression for the expansion bug: a snapshot's cost must depend on
   the bucket count, not on how many observations the daemon has
   absorbed.  400x the observations must not cost anywhere near 400x
   the snapshot time. *)
let test_snapshot_cost_independent () =
  let m = Metrics.create () in
  let snapshots k =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to k do
      ignore (Metrics.snapshot m)
    done;
    Unix.gettimeofday () -. t0
  in
  for i = 1 to 1_000 do
    Metrics.observe_latency m (float_of_int (i mod 97) *. 1e-5)
  done;
  let small = snapshots 300 in
  for i = 1 to 400_000 do
    Metrics.observe_latency m (float_of_int (i mod 97) *. 1e-5)
  done;
  let large = snapshots 300 in
  (* The old expansion would make [large] ~400x [small]; allow a wide
     noise margin while still catching any O(total) regression. *)
  checkb
    (Printf.sprintf "snapshot cost grew %.1fx (small %.4fs, large %.4fs)"
       (large /. small) small large)
    true
    (large < (small *. 20.0) +. 0.05)

(* ---------- Prometheus exposition ---------- *)

let is_prom_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = ':'

(* Structural validity of one exposition line: a TYPE comment with a
   known kind, or "name[{labels}] value" with a parseable float. *)
let check_prom_line line =
  checkb ("no newline in: " ^ line) false (String.contains line '\n');
  if String.length line >= 7 && String.sub line 0 7 = "# TYPE " then
    match String.split_on_char ' ' line with
    | [ "#"; "TYPE"; name; kind ] ->
      checkb ("namespaced: " ^ name) true
        (String.length name > 4 && String.sub name 0 4 = "hgd_");
      checkb ("known kind: " ^ kind) true
        (List.mem kind [ "counter"; "gauge"; "histogram" ])
    | _ -> Alcotest.failf "malformed TYPE line: %s" line
  else
    match String.index_opt line ' ' with
    | None -> Alcotest.failf "no value separator: %s" line
    | Some sp ->
      let name_part = String.sub line 0 sp in
      let value_part = String.sub line (sp + 1) (String.length line - sp - 1) in
      checkb ("value parses in: " ^ line) true
        (float_of_string_opt value_part <> None);
      let base =
        match String.index_opt name_part '{' with
        | Some i -> String.sub name_part 0 i
        | None -> name_part
      in
      checkb ("name charset: " ^ base) true
        (base <> "" && String.for_all is_prom_name_char base)

let prom_value lines name =
  let prefix = name ^ " " in
  let n = String.length prefix in
  match
    List.find_opt
      (fun l -> String.length l > n && String.sub l 0 n = prefix)
      lines
  with
  | Some l -> float_of_string (String.sub l n (String.length l - n))
  | None -> Alcotest.failf "missing exposition line: %s" name

let test_prometheus_format () =
  let m = Metrics.create () in
  Metrics.incr m "requests_total";
  Metrics.incr m ~by:3 "cache_hits";
  Metrics.incr m "weird name-with.chars";
  Metrics.observe_latency m 0.001;
  Metrics.observe_latency m 0.02;
  Metrics.observe m "queue_wait" 0.0001;
  let lines =
    Metrics.prometheus
      ~gauges:[ ("uptime_seconds", 12.5) ]
      ~extra_counters:[ ("worker_restarts", 1) ]
      (Metrics.freeze m)
  in
  checkb "non-empty exposition" true (lines <> []);
  List.iter check_prom_line lines;
  checkb "counter surfaced" true (prom_value lines "hgd_requests_total" = 1.0);
  checkb "extra counter surfaced" true
    (prom_value lines "hgd_worker_restarts" = 1.0);
  checkb "gauge surfaced" true (prom_value lines "hgd_uptime_seconds" = 12.5);
  checkb "hostile name sanitized" true
    (List.exists
       (fun l ->
         String.length l >= 26 && String.sub l 0 26 = "hgd_weird_name_with_chars ")
       lines);
  (* Histogram invariants: cumulative buckets never decrease and the
     +Inf bucket equals _count. *)
  let count = prom_value lines "hgd_latency_seconds_count" in
  checkb "histogram count" true (count = 2.0);
  let bucket_values =
    List.filter_map
      (fun l ->
        let p = "hgd_latency_seconds_bucket{le=" in
        let n = String.length p in
        if String.length l > n && String.sub l 0 n = p then
          match String.index_opt l ' ' with
          | Some sp ->
            Some (float_of_string (String.sub l (sp + 1) (String.length l - sp - 1)))
          | None -> None
        else None)
      lines
  in
  checkb "has buckets" true (bucket_values <> []);
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  checkb "buckets cumulative" true (monotone bucket_values);
  checkb "+Inf equals count" true
    (List.nth bucket_values (List.length bucket_values - 1) = count)

(* ---------- socket integration ---------- *)

let with_server ?(cache_capacity = 16) f =
  let dir = Filename.temp_dir "hgd" "server" in
  let socket_path = Filename.concat dir "hgd.sock" in
  let config =
    { (Server.default_config ~socket_path) with workers = 2; cache_capacity }
  in
  match Server.start config with
  | Error msg -> Alcotest.failf "server start failed: %s" msg
  | Ok t ->
    Fun.protect ~finally:(fun () -> Server.stop t) (fun () -> f dir socket_path)

let expect_ok what = function
  | Ok (P.Ok kvs) -> kvs
  | Ok (P.Err { code; message; _ }) ->
    Alcotest.failf "%s: unexpected ERR %s %s" what (P.error_code_to_string code)
      message
  | Error msg -> Alcotest.failf "%s: transport error %s" what msg

let expect_err what code = function
  | Ok (P.Err { code = got; _ }) ->
    checks (what ^ ": code") (P.error_code_to_string code)
      (P.error_code_to_string got)
  | Ok (P.Ok _) -> Alcotest.failf "%s: expected ERR, got OK" what
  | Error msg -> Alcotest.failf "%s: transport error %s" what msg

let connect socket_path =
  match Client.connect ~socket_path with
  | Ok c -> c
  | Error msg -> Alcotest.failf "connect: %s" msg

let test_integration () =
  with_server (fun dir socket_path ->
      let data = Filename.concat dir "tiny.hg" in
      write_file data tiny_hg;
      let c = connect socket_path in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      (* LOAD, then the digest addresses the dataset. *)
      let loaded = expect_ok "load" (Client.request c (P.Load data)) in
      let digest = List.assoc "digest" loaded in
      checks "vertices" "5" (List.assoc "vertices" loaded);
      checks "hyperedges" "3" (List.assoc "hyperedges" loaded);
      checks "fresh" "true" (List.assoc "fresh" loaded);
      (* First STATS computes, second is a cache hit. *)
      let stats1 =
        expect_ok "stats"
          (Client.request c (P.Analyze { dataset = digest; analysis = P.Stats }))
      in
      checks "cold query computed" "false" (List.assoc "cached" stats1);
      checks "stats vertices" "5" (List.assoc "vertices" stats1);
      let stats2 =
        expect_ok "stats again"
          (Client.request c (P.Analyze { dataset = digest; analysis = P.Stats }))
      in
      checks "repeat served from cache" "true" (List.assoc "cached" stats2);
      checkb "same payload modulo cache line" true
        (List.remove_assoc "cached" stats1 = List.remove_assoc "cached" stats2);
      (* KCORE, by digest prefix. *)
      let kcore =
        expect_ok "kcore"
          (Client.request c
             (P.Analyze { dataset = String.sub digest 0 8; analysis = P.Kcore None }))
      in
      checkb "kcore k parses" true (int_of_string_opt (List.assoc "k" kcore) <> None);
      (* METRICS must report the cache hit. *)
      let metrics = expect_ok "metrics" (Client.request c (P.Metrics P.Table)) in
      checkb "at least one cache hit" true
        (int_of_string (List.assoc "cache_hits" metrics) >= 1);
      checkb "requests counted" true
        (int_of_string (List.assoc "requests_total" metrics) >= 4);
      checkb "queue wait observed" true
        (int_of_string (List.assoc "queue_wait_count" metrics) >= 1);
      (* One computed STATS swept each of the 5 vertices once; the
         cached repeat swept nothing. *)
      checks "kernel sources counted" "5" (List.assoc "kernel_bfs_sources" metrics);
      checkb "kernel peel rounds counted" true
        (List.mem_assoc "kernel_peel_rounds" metrics);
      (* METRICS prom carries the same state as Prometheus exposition
         lines, keyed by line index. *)
      let prom = expect_ok "metrics prom" (Client.request c (P.Metrics P.Prometheus)) in
      let prom_lines = List.map snd prom in
      checkb "prom non-empty" true (prom_lines <> []);
      List.iter check_prom_line prom_lines;
      checkb "prom requests_total at least table's" true
        (prom_value prom_lines "hgd_requests_total"
        >= float_of_string (List.assoc "requests_total" metrics));
      checkb "prom gauge workers" true (prom_value prom_lines "hgd_workers" = 2.0);
      (* TRACE shows finished requests with per-stage spans. *)
      let trace = expect_ok "trace" (Client.request c (P.Trace (Some 5))) in
      let traced = int_of_string (List.assoc "count" trace) in
      checkb "trace retains requests" true (traced >= 1 && traced <= 5);
      List.iter
        (fun key ->
          checkb ("trace has 0." ^ key) true (List.mem_assoc ("0." ^ key) trace))
        [ "trace"; "status"; "cached"; "total_us"; "queue_us"; "parse_us";
          "cache_us"; "compute_us"; "write_us"; "request" ];
      (* The slowest request did real work: its stages sum below the
         total (the total also covers dispatch overhead). *)
      let stage_sum =
        List.fold_left
          (fun acc k -> acc + int_of_string (List.assoc ("0." ^ k) trace))
          0
          [ "queue_us"; "parse_us"; "cache_us"; "compute_us"; "write_us" ]
      in
      checkb "stage spans bounded by total" true
        (stage_sum <= int_of_string (List.assoc "0.total_us" trace));
      checkb "slowest computed something" true
        (int_of_string (List.assoc "0.compute_us" trace) >= 0);
      (* Structured errors, and the daemon survives all of them. *)
      expect_err "malformed verb" P.Bad_request (Client.request_line c "FROB x");
      expect_err "empty-ish garbage" P.Bad_request (Client.request_line c "LOAD a b c");
      expect_err "unknown dataset" P.Unknown_dataset
        (Client.request c (P.Analyze { dataset = "feedfacedeadbeef"; analysis = P.Stats }));
      expect_err "missing file" P.Io_error
        (Client.request c (P.Load (Filename.concat dir "absent.hg")));
      let bad = Filename.concat dir "bad.hg" in
      write_file bad "c1: a b\nbroken line here\n";
      expect_err "malformed dataset file" P.Parse_error (Client.request c (P.Load bad));
      let pong = expect_ok "still alive" (Client.request c P.Ping) in
      checks "pong" "hgd" (List.assoc "pong" pong);
      (* EVICT drops the dataset and its cached results. *)
      let evicted = expect_ok "evict" (Client.request c (P.Evict (Some digest))) in
      checkb "dropped cached results" true
        (int_of_string (List.assoc "dropped_results" evicted) >= 1);
      expect_err "gone after evict" P.Unknown_dataset
        (Client.request c (P.Analyze { dataset = digest; analysis = P.Stats })))

let test_batch () =
  with_server (fun dir socket_path ->
      let data = Filename.concat dir "tiny.hg" in
      write_file data tiny_hg;
      let c = connect socket_path in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let digest =
        expect_ok "load" (Client.request c (P.Load data)) |> List.assoc "digest"
      in
      let stats = P.Analyze { dataset = digest; analysis = P.Stats } in
      (* One pipelined run: the repeated STATS must be a cache hit even
         though both items travel on the same connection. *)
      (match Client.batch c [ P.Ping; stats; stats ] with
      | Ok (Client.Items [ r1; r2; r3 ]) ->
        checks "batch pong" "hgd" (List.assoc "pong" (expect_ok "batch ping" r1));
        let cold = expect_ok "batch stats cold" r2 in
        checks "computed inside batch" "false" (List.assoc "cached" cold);
        let hot = expect_ok "batch stats hot" r3 in
        checks "cache hit inside batch" "true" (List.assoc "cached" hot);
        checkb "same payload modulo cache line" true
          (List.remove_assoc "cached" cold = List.remove_assoc "cached" hot)
      | Ok (Client.Items items) ->
        Alcotest.failf "batch: expected 3 items, got %d" (List.length items)
      | Ok (Client.Refused r) ->
        Alcotest.failf "batch refused: %s" (P.encode_reply r)
      | Error msg -> Alcotest.failf "batch transport: %s" msg);
      (* Per-item rejection: garbage, SHUTDOWN and nested BATCH inside
         the run each get their own tagged ERR, neighbours unharmed. *)
      (match
         Client.batch_lines c [ "PING"; "FROB x"; "SHUTDOWN"; "BATCH 2"; "PING" ]
       with
      | Ok (Client.Items [ ok1; bad; shut; nested; ok2 ]) ->
        ignore (expect_ok "item before rejects" ok1);
        expect_err "garbage item" P.Bad_request bad;
        expect_err "shutdown inside batch" P.Bad_request shut;
        expect_err "nested batch" P.Bad_request nested;
        checks "item after rejects still served" "hgd"
          (List.assoc "pong" (expect_ok "item after rejects" ok2))
      | Ok (Client.Items items) ->
        Alcotest.failf "batch: expected 5 items, got %d" (List.length items)
      | Ok (Client.Refused r) ->
        Alcotest.failf "batch refused: %s" (P.encode_reply r)
      | Error msg -> Alcotest.failf "batch transport: %s" msg);
      (* The connection is still usable for plain requests afterwards,
         and a malformed BATCH header is an ordinary one-line error. *)
      expect_err "batch header out of range" P.Bad_request
        (Client.request_line c "BATCH 0");
      ignore (expect_ok "plain request after batches" (Client.request c P.Ping));
      (* Metrics count the run and its items; traces record each item
         individually. *)
      let metrics = expect_ok "metrics" (Client.request c (P.Metrics P.Table)) in
      checkb "batch runs counted" true
        (int_of_string (List.assoc "batch_requests" metrics) >= 2);
      checkb "batch items counted" true
        (int_of_string (List.assoc "batch_items" metrics) >= 8);
      let trace = expect_ok "trace" (Client.request c (P.Trace (Some 20))) in
      let requests =
        List.filter_map
          (fun (k, v) ->
            if String.length k > 8 && String.sub k (String.length k - 8) 8 = ".request"
            then Some v
            else None)
          trace
      in
      checkb "batched items traced individually" true
        (List.length (List.filter (( = ) "PING") requests) >= 2);
      checkb "batch headers traced" true
        (List.exists (fun r -> r = "BATCH 3") requests))

let test_concurrent_clients () =
  with_server (fun dir socket_path ->
      let data = Filename.concat dir "tiny.hg" in
      write_file data tiny_hg;
      let digest =
        Client.with_connection ~socket_path (fun c -> Client.request c (P.Load data))
        |> expect_ok "load"
        |> List.assoc "digest"
      in
      let hammer () =
        Client.with_connection ~socket_path (fun c ->
            let rec go i acc =
              if i = 0 then Ok acc
              else
                match
                  Client.request c (P.Analyze { dataset = digest; analysis = P.Stats })
                with
                | Ok (P.Ok _) -> go (i - 1) (acc + 1)
                | Ok (P.Err { message; _ }) -> Error message
                | Error msg -> Error msg
            in
            go 10 0)
      in
      let domains = Array.init 4 (fun _ -> Domain.spawn hammer) in
      let results = Array.map Domain.join domains in
      Array.iter
        (function
          | Ok n -> check "all queries answered" 10 n
          | Error msg -> Alcotest.failf "concurrent client failed: %s" msg)
        results)

let test_shutdown_verb () =
  with_server (fun dir socket_path ->
      let _ = dir in
      let reply =
        Client.with_connection ~socket_path (fun c -> Client.request c P.Shutdown)
      in
      let kvs = expect_ok "shutdown" reply in
      checks "acknowledged" "true" (List.assoc "shutting_down" kvs);
      (* The socket disappears once the server drains. *)
      let rec poll n =
        if not (Sys.file_exists socket_path) then ()
        else if n = 0 then Alcotest.fail "socket file not removed after SHUTDOWN"
        else begin
          Unix.sleepf 0.1;
          poll (n - 1)
        end
      in
      poll 50)

(* Full warm-restart cycle: life 1 computes and saves the cache on
   shutdown; life 2 restores it and answers the same query cached on
   its very first request; life 3 starts from a truncated cache file
   and must come up cold but healthy. *)
let test_warm_restart () =
  let dir = Filename.temp_dir "hgd" "warm" in
  let socket_path = Filename.concat dir "hgd.sock" in
  let cache_file = Filename.concat dir "cache.bin" in
  let config =
    {
      (Server.default_config ~socket_path) with
      workers = 2;
      cache_capacity = 16;
      cache_file = Some cache_file;
    }
  in
  let data = Filename.concat dir "tiny.hg" in
  write_file data tiny_hg;
  ignore (Snap.pack (HIO.of_string tiny_hg) (Snap.sibling_path data));
  let life f =
    match Server.start config with
    | Error msg -> Alcotest.failf "server start failed: %s" msg
    | Ok t ->
      Fun.protect
        ~finally:(fun () -> Server.stop t)
        (fun () ->
          let c = connect socket_path in
          Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c))
  in
  let digest = ref "" in
  life (fun c ->
      let loaded = expect_ok "load" (Client.request c (P.Load data)) in
      checks "sibling snapshot used" "snapshot" (List.assoc "source" loaded);
      digest := List.assoc "digest" loaded;
      let stats =
        expect_ok "first stats"
          (Client.request c (P.Analyze { dataset = !digest; analysis = P.Stats }))
      in
      checks "cold in first life" "false" (List.assoc "cached" stats));
  checkb "cache file written on shutdown" true (Sys.file_exists cache_file);
  life (fun c ->
      let loaded = expect_ok "reload" (Client.request c (P.Load data)) in
      checks "same digest across restarts" !digest (List.assoc "digest" loaded);
      let stats =
        expect_ok "first stats after restart"
          (Client.request c (P.Analyze { dataset = !digest; analysis = P.Stats }))
      in
      checks "warm after restart" "true" (List.assoc "cached" stats);
      let metrics = expect_ok "metrics" (Client.request c (P.Metrics P.Table)) in
      checkb "restored entries counted" true
        (int_of_string (List.assoc "cache_restored" metrics) >= 1);
      checkb "snapshot loads counted" true
        (int_of_string (List.assoc "snapshot_loads" metrics) >= 1));
  (* Truncate the cache file: the daemon must start cold, not fail. *)
  let full =
    let ic = open_in_bin cache_file in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  in
  write_file cache_file (String.sub full 0 (String.length full / 2));
  life (fun c ->
      ignore (expect_ok "load after corrupt cache" (Client.request c (P.Load data)));
      let stats =
        expect_ok "stats after corrupt cache"
          (Client.request c (P.Analyze { dataset = !digest; analysis = P.Stats }))
      in
      checks "cold after corrupt cache file" "false" (List.assoc "cached" stats))

(* Live mutation end to end, across restarts: epochs in replies and
   metrics, epoch-keyed cache invalidation, WAL recovery counters
   moving over mutate -> restart -> recover, and CHECKPOINT bounding
   the next recovery's replay. *)
let test_mutation_durability () =
  let dir = Filename.temp_dir "hgd" "mutate" in
  let socket_path = Filename.concat dir "hgd.sock" in
  let config =
    { (Server.default_config ~socket_path) with workers = 2; cache_capacity = 16 }
  in
  let data = Filename.concat dir "tiny.hg" in
  write_file data tiny_hg;
  let life f =
    match Server.start config with
    | Error msg -> Alcotest.failf "server start failed: %s" msg
    | Ok t ->
      Fun.protect
        ~finally:(fun () -> Server.stop t)
        (fun () ->
          let c = connect socket_path in
          Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c))
  in
  let digest = ref "" in
  let epoch_key () = "dataset_epoch_" ^ String.sub !digest 0 12 in
  let stats c what =
    expect_ok what
      (Client.request c (P.Analyze { dataset = !digest; analysis = P.Stats }))
  in
  life (fun c ->
      let loaded = expect_ok "load" (Client.request c (P.Load data)) in
      digest := List.assoc "digest" loaded;
      checks "epoch starts at zero" "0" (List.assoc "epoch" loaded);
      (* Cache a result at epoch 0, then mutate: the epoch-qualified
         key makes the stale entry unreachable without any flush. *)
      checks "cold at epoch 0" "false" (List.assoc "cached" (stats c "stats"));
      checks "warm at epoch 0" "true" (List.assoc "cached" (stats c "stats"));
      let mv =
        expect_ok "addvertex"
          (Client.request c (P.Add_vertex { dataset = !digest; name = "p53" }))
      in
      checks "mutation epoch" "1" (List.assoc "epoch" mv);
      checks "assigned dense id" "5" (List.assoc "assigned" mv);
      checks "vertex count" "6" (List.assoc "vertices" mv);
      checks "not checkpointed" "false" (List.assoc "checkpointed" mv);
      let me =
        expect_ok "addedge"
          (Client.request c
             (P.Add_edge { dataset = !digest; name = "c4"; members = [ 0; 5 ] }))
      in
      checks "second epoch" "2" (List.assoc "epoch" me);
      checks "edge count" "4" (List.assoc "hyperedges" me);
      let fresh = stats c "stats after mutation" in
      checks "mutation invalidates by epoch" "false" (List.assoc "cached" fresh);
      checks "sees the new vertex" "6" (List.assoc "vertices" fresh);
      (* Invalid ops are client errors that move nothing. *)
      expect_err "member out of range" P.Bad_request
        (Client.request c
           (P.Add_edge { dataset = !digest; name = "x"; members = [ 99 ] }));
      expect_err "edge out of range" P.Bad_request
        (Client.request c (P.Del_edge { dataset = !digest; edge = 99 }));
      expect_err "unknown dataset" P.Unknown_dataset
        (Client.request c
           (P.Add_vertex { dataset = "feedfacedeadbeef"; name = "x" }));
      let m = expect_ok "metrics" (Client.request c (P.Metrics P.Table)) in
      (* Each lone mutation moves the mutation, WAL and repair counters
         once, and none of them is a batch item. *)
      let count k = Option.fold ~none:0 ~some:int_of_string (List.assoc_opt k m) in
      check "appends counted" 2 (count "wal_records_appended");
      check "mutations counted" 2 (count "mutations_total");
      check "rejects counted" 2 (count "mutation_rejects");
      check "one repair per mutation" 2
        (count "kcore_cascade_repairs" + count "kcore_full_repeels");
      check "no batch items" 0 (count "batch_items");
      checks "per-dataset epoch gauge" "2" (List.assoc (epoch_key ()) m);
      let prom =
        expect_ok "metrics prom" (Client.request c (P.Metrics P.Prometheus))
      in
      let prom_lines = List.map snd prom in
      List.iter check_prom_line prom_lines;
      checkb "labeled epoch gauge" true
        (List.mem
           (Printf.sprintf "hgd_dataset_epoch{dataset=%S} 2" !digest)
           prom_lines));
  (* Life 2: the acknowledged mutations survived the restart. *)
  life (fun c ->
      let loaded = expect_ok "reload" (Client.request c (P.Load data)) in
      checks "handle survives recovery" !digest (List.assoc "digest" loaded);
      checks "epoch recovered" "2" (List.assoc "epoch" loaded);
      checks "replay counted in reply" "2" (List.assoc "wal_replayed" loaded);
      checks "clean tail" "0" (List.assoc "wal_torn_bytes" loaded);
      let s = stats c "stats after recovery" in
      checks "recovered state answers" "6" (List.assoc "vertices" s);
      let m = expect_ok "metrics" (Client.request c (P.Metrics P.Table)) in
      checkb "recovery counted" true
        (int_of_string (List.assoc "wal_recoveries" m) >= 1);
      checkb "replayed records counted" true
        (int_of_string (List.assoc "wal_replayed_total" m) >= 2);
      checks "epoch gauge after recovery" "2" (List.assoc (epoch_key ()) m);
      (* CHECKPOINT compacts; the epoch does not move. *)
      let cp =
        expect_ok "checkpoint" (Client.request c (P.Checkpoint !digest))
      in
      checks "checkpoint epoch" "2" (List.assoc "epoch" cp);
      checks "records folded" "2" (List.assoc "records_folded" cp);
      checkb "snapshot on disk" true (Sys.file_exists (List.assoc "snapshot" cp));
      let m = expect_ok "metrics" (Client.request c (P.Metrics P.Table)) in
      checkb "checkpoint counted" true
        (int_of_string (List.assoc "wal_checkpoints" m) >= 1));
  (* Life 3: recovery now folds over the checkpoint, replaying
     nothing. *)
  life (fun c ->
      let loaded = expect_ok "reload" (Client.request c (P.Load data)) in
      checks "handle survives the checkpoint" !digest (List.assoc "digest" loaded);
      checks "epoch preserved" "2" (List.assoc "epoch" loaded);
      checks "bounded replay" "0" (List.assoc "wal_replayed" loaded);
      checks "checkpoint is the base" "snapshot" (List.assoc "source" loaded);
      ignore
        (expect_ok "still mutable"
           (Client.request c (P.Add_vertex { dataset = !digest; name = "brca1" })));
      let m = expect_ok "metrics" (Client.request c (P.Metrics P.Table)) in
      checks "epoch gauge keeps counting" "3" (List.assoc (epoch_key ()) m))

(* The runtime's GC figures ride on METRICS in both formats.  The
   server runs in this process, so a collection forced here must show
   in the next scrape, and the collection counts never fall between
   two scrapes with requests between them.  (OCaml 5 sums the heap
   figures over domains' sampled statistics, so even the top-heap
   figure may dip; those are only checked to be there.) *)
let test_gc_gauges () =
  with_server (fun dir socket_path ->
      let data = Filename.concat dir "tiny.hg" in
      write_file data tiny_hg;
      let c = connect socket_path in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let digest = List.assoc "digest" (expect_ok "load" (Client.request c (P.Load data))) in
      let names =
        [ "gc_minor_collections"; "gc_major_collections"; "gc_heap_words"; "gc_top_heap_words" ]
      in
      let scrape () =
        let table = expect_ok "metrics" (Client.request c (P.Metrics P.Table)) in
        let prom =
          List.map snd (expect_ok "metrics prom" (Client.request c (P.Metrics P.Prometheus)))
        in
        List.map
          (fun name ->
            let t =
              match List.assoc_opt name table with
              | Some v -> int_of_string v
              | None -> Alcotest.failf "table lacks %s" name
            in
            let metric = "hgd_" ^ name in
            checkb (metric ^ " typed gauge") true
              (List.mem ("# TYPE " ^ metric ^ " gauge") prom);
            let p =
              match
                List.find_map
                  (fun l ->
                    match String.split_on_char ' ' l with
                    | [ m; v ] when m = metric -> Some (int_of_string v)
                    | _ -> None)
                  prom
              with
              | Some v -> v
              | None -> Alcotest.failf "prom lacks %s" metric
            in
            (name, t, p))
          names
      in
      let before = scrape () in
      for k = 0 to 99 do
        ignore
          (expect_ok "kcore"
             (Client.request c
                (P.Analyze { dataset = digest; analysis = P.Kcore (Some (k mod 3)) })))
      done;
      Gc.full_major ();
      let after = scrape () in
      (* Scrape order: table, prom, requests and a full major, table,
         prom. *)
      List.iter2
        (fun (name, t0, p0) (_, t1, p1) ->
          match name with
          | "gc_heap_words" | "gc_top_heap_words" -> checkb (name ^ " positive") true (t1 > 0)
          | _ ->
            checkb (name ^ " never falls") true (t0 <= p0 && p0 <= t1 && t1 <= p1);
            checkb (name ^ ": the forced collection shows") true (p0 < t1))
        before after)

let () =
  Alcotest.run "hp_server"
    [
      ( "protocol",
        [
          Alcotest.test_case "parse accepts" `Quick test_parse_requests;
          Alcotest.test_case "parse rejects" `Quick test_parse_rejects;
          Alcotest.test_case "sanitization" `Quick test_reply_sanitization;
          Alcotest.test_case "analysis keys" `Quick test_analysis_key_defaults;
          Th.prop prop_request_roundtrip;
          Th.prop prop_reply_roundtrip;
          Th.prop prop_batch_header;
          Th.prop prop_encode_matches_reference;
        ] );
      ( "registry",
        [
          Alcotest.test_case "content identity" `Quick test_registry_identity;
          Alcotest.test_case "snapshot preference and fallback" `Quick
            test_registry_snapshot_preference;
        ] );
      ( "result cache",
        [ Alcotest.test_case "save and restore" `Quick test_cache_persistence ] );
      ( "metrics",
        [
          Alcotest.test_case "counters and latency" `Quick test_metrics_counters;
          Alcotest.test_case "bucket percentiles vs expansion oracle" `Quick
            test_percentiles_from_buckets;
          Alcotest.test_case "snapshot cost independent of volume" `Slow
            test_snapshot_cost_independent;
          Alcotest.test_case "prometheus exposition" `Quick test_prometheus_format;
        ] );
      ( "server",
        [
          Alcotest.test_case "end to end" `Quick test_integration;
          Alcotest.test_case "batched pipelined queries" `Quick test_batch;
          Alcotest.test_case "concurrent clients" `Quick test_concurrent_clients;
          Alcotest.test_case "shutdown verb" `Quick test_shutdown_verb;
          Alcotest.test_case "warm restart from cache file" `Quick
            test_warm_restart;
          Alcotest.test_case "mutation durability across restarts" `Quick
            test_mutation_durability;
          Alcotest.test_case "gc gauges in both metrics formats" `Quick test_gc_gauges;
        ] );
    ]
