(* Tests for the benchmark's own logic: tail selection, /proc and GC
   report parsing, span self time, the writer mirror, reply checks. *)

module M = Hgb.Measure
module O = Hgb.Oracle
module Mirror = Hgb.Mirror
module P = Hp_server.Protocol
module H = Hp_hypergraph.Hypergraph
module Wal = Hp_wal.Wal

(* ---------- percentiles ---------- *)

(* Oracle: sort, then take 1-based rank ceil(p/100 * n) with exact
   integer arithmetic (p given in tenths of a percent). *)
let oracle_rank ~p10 n = max 1 ((p10 * n + 999) / 1000)

let test_percentile_oracle () =
  let rng = Random.State.make [| 7 |] in
  List.iter
    (fun n ->
      let a = Array.init n (fun _ -> Random.State.float rng 100.0) in
      let sorted = Array.copy a in
      Array.sort compare sorted;
      List.iter
        (fun p10 ->
          let p = float_of_int p10 /. 10.0 in
          let r = oracle_rank ~p10 n in
          Alcotest.(check (float 0.0))
            (Printf.sprintf "p%g of %d" p n)
            sorted.(r - 1) (M.percentile ~p a);
          Alcotest.(check int) (Printf.sprintf "beyond p%g of %d" p n) (n - r) (M.beyond ~p n))
        [ 500; 850; 900; 950; 990; 999 ])
    [ 1; 2; 10; 99; 100; 101; 1000; 1234; 10000 ]

let test_beyond_rule () =
  (* 100 samples: p90 leaves exactly 10 beyond, p91 only 9. *)
  Alcotest.(check bool) "p90 of 100" true (M.supported ~p:90.0 100);
  Alcotest.(check bool) "p91 of 100" false (M.supported ~p:91.0 100);
  Alcotest.(check bool) "p90 of 99" false (M.supported ~p:90.0 99);
  Alcotest.(check bool) "p99.9 of 10000" true (M.supported ~p:99.9 10000);
  Alcotest.(check bool) "p99.9 of 9999" false (M.supported ~p:99.9 9999);
  (* The fixed tails at the sample counts they were chosen for. *)
  Alcotest.(check bool) "probe p90 of 900" true (M.supported ~p:90.0 900);
  Alcotest.(check bool) "cold p90 of 240" true (M.supported ~p:90.0 240);
  Alcotest.(check bool) "no samples" false (M.supported ~p:50.0 0)

let test_windowed () =
  let a = Array.init 4000 (fun i -> float_of_int ((i * 7919) mod 4000)) in
  (match M.windowed ~p:99.0 ~windows:4 a with
  | Ok v ->
    let per w =
      let s = Array.sub a (w * 1000) 1000 in
      Array.sort compare s;
      s.(oracle_rank ~p10:990 1000 - 1)
    in
    let ws = Array.init 4 per in
    Array.sort compare ws;
    (* median of four = the 2nd by nearest rank *)
    Alcotest.(check (float 0.0)) "median of window p99s" ws.(1) v
  | Error e -> Alcotest.fail e);
  match M.windowed ~p:99.5 ~windows:4 a with
  | Ok _ -> Alcotest.fail "1000-sample windows cannot support p99.5"
  | Error _ -> ()

(* Completions at known times: 10 s cut into 5 slices of 2 s holding
   4, 4, 0, 6 and 8 completions (the one at exactly 10 s counts in the
   last slice). *)
let test_slice_rates () =
  let stamps =
    [| 100.1; 100.5; 101.0; 101.9; 102.0; 102.2; 103.0; 103.99;
       106.0; 106.1; 106.2; 106.3; 107.0; 107.5;
       108.0; 108.1; 108.2; 108.3; 109.0; 109.5; 109.9; 110.0 |]
  in
  Alcotest.(check (array (float 1e-12))) "per-slice rates" [| 2.0; 2.0; 0.0; 3.0; 4.0 |]
    (M.slice_rates ~windows:5 ~t0:100.0 ~elapsed:10.0 stamps);
  Alcotest.(check (array (float 1e-12))) "one slice is the mean rate"
    [| float_of_int (Array.length stamps) /. 10.0 |]
    (M.slice_rates ~windows:1 ~t0:100.0 ~elapsed:10.0 stamps);
  (* A stall confined to one slice of ten leaves the median slice rate
     where it was. *)
  let steady = Array.init 1000 (fun i -> 0.01 *. float_of_int i) in
  let stalled = Array.map (fun t -> if t < 1.0 then t *. 0.5 else t) steady in
  let median_rate a = M.median (M.slice_rates ~windows:10 ~t0:0.0 ~elapsed:10.0 a) in
  Alcotest.(check (float 1e-12)) "stall in one slice" (median_rate steady) (median_rate stalled)

(* ---------- /proc and runtime reports ---------- *)

let test_proc_stat () =
  let line =
    "4242 (hg d) (x)) S 1 4242 4242 0 -1 4194560 1234 0 0 0 731 208 0 0 20 0 5 0 \
     987654 123456789 4321 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n"
  in
  (match M.parse_proc_stat line with
  | Ok (u, s) ->
    Alcotest.(check int) "utime" 731 u;
    Alcotest.(check int) "stime" 208 s
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "garbage" true (Result.is_error (M.parse_proc_stat "4242 nonsense"));
  let status = "Name:\thgd.exe\nVmPeak:\t  99999 kB\nVmRSS:\t   17296 kB\nRssAnon:\t 9000 kB\n" in
  Alcotest.(check (option int)) "VmRSS" (Some 17296) (M.parse_proc_status_kb status "VmRSS");
  Alcotest.(check (option int)) "missing" None (M.parse_proc_status_kb status "VmSwap")

let test_gc_report () =
  let err =
    {|{"ts":1.0,"level":"info","comp":"server","msg":"stopped","uptime_s":"1.000"}
allocated_words: 600570
minor_words: 600504
promoted_words: 562099
major_words: 562165
minor_collections: 5
major_collections: 2
forced_major_collections: 0
heap_words: 626688
top_heap_words: 626688
mean_space_overhead: 18.768123
|}
  in
  let r = M.parse_gc_report err in
  Alcotest.(check (float 0.0)) "minor_words" 600504.0 (M.lookup r "minor_words");
  Alcotest.(check (float 0.0)) "minor_collections" 5.0 (M.lookup r "minor_collections");
  Alcotest.(check (float 0.0)) "top_heap_words" 626688.0 (M.lookup r "top_heap_words");
  Alcotest.(check (float 1e-9)) "overhead" 18.768123 (M.lookup r "mean_space_overhead");
  Alcotest.(check int) "only report keys" 10 (List.length r)

let test_prometheus () =
  let lines =
    [ "# TYPE hgd_latency_seconds histogram"; "hgd_latency_seconds_bucket{le=\"+Inf\"} 12";
      "hgd_latency_seconds_sum 0.0125"; "hgd_latency_seconds_count 12"; "hgd_cache_hits 7" ]
  in
  let kvs = M.parse_prometheus lines in
  Alcotest.(check (float 0.0)) "sum" 0.0125 (M.lookup kvs "hgd_latency_seconds_sum");
  Alcotest.(check (float 0.0)) "labelled" 12.0 (M.lookup kvs "hgd_latency_seconds_bucket{le=\"+Inf\"}");
  Alcotest.(check (float 0.0)) "delta" 5.0
    (M.delta ~before:[ ("hgd_cache_hits", 2.0) ] ~after:kvs "hgd_cache_hits")

(* ---------- spans ---------- *)

let span ?(parent = -1) name start stop = { M.name; start; stop; parent; req = 0; words = 0.0 }

let test_self_time_overlap () =
  let spans =
    [| span "request" 0.0 10.0;
       span ~parent:0 "a" 1.0 4.0;
       span ~parent:0 "b" 3.0 6.0;      (* overlaps a: [1,6] counted once *)
       span ~parent:0 "c" 8.0 12.0;     (* runs past the parent: clipped to [8,10] *)
       span ~parent:2 "b.inner" 3.5 5.0 |]
  in
  let self = M.self_times spans in
  Alcotest.(check (float 1e-12)) "parent" 3.0 self.(0);
  Alcotest.(check (float 1e-12)) "a" 3.0 self.(1);
  Alcotest.(check (float 1e-12)) "b minus its child" 1.5 self.(2);
  Alcotest.(check (float 1e-12)) "c" 4.0 self.(3);
  Alcotest.(check (float 1e-12)) "leaf" 1.5 self.(4)

let test_recorder () =
  let r = M.recorder () in
  let v =
    M.with_span r ~parent:(-1) ~req:3 "outer" (fun root ->
        M.with_span r ~parent:root ~req:3 "inner" (fun _ -> 41) + 1)
  in
  Alcotest.(check int) "value" 42 v;
  let spans = M.spans r in
  Alcotest.(check int) "two spans" 2 (Array.length spans);
  Alcotest.(check int) "inner's parent" 0 spans.(1).M.parent;
  Alcotest.(check bool) "nested" true
    (spans.(0).M.start <= spans.(1).M.start && spans.(1).M.stop <= spans.(0).M.stop)

(* ---------- the writer mirror ---------- *)

let small () =
  H.of_arrays ~n_vertices:6 [| [| 0; 1 |]; [| 1; 2; 3 |]; [| 3; 4 |]; [| 0; 4; 5 |] |]

let test_mirror_id_shift () =
  let h = small () in
  let m = Mirror.of_hypergraph h in
  let before = Array.init 4 (Mirror.edge m) in
  (match Mirror.apply m (Wal.Del_edge { edge = 1 }) with
  | Ok None -> ()
  | _ -> Alcotest.fail "delete");
  Alcotest.(check int) "edges" 3 (Mirror.n_edges m);
  Alcotest.(check (array int)) "id 1 is old 2" before.(2) (Mirror.edge m 1);
  Alcotest.(check (array int)) "id 2 is old 3" before.(3) (Mirror.edge m 2);
  (* The mirror's own member lists agree with the Live state hgd folds. *)
  let live = Mirror.hypergraph m in
  for e = 0 to Mirror.n_edges m - 1 do
    let sorted a = let a = Array.copy a in Array.sort compare a; a in
    Alcotest.(check (array int)) (Printf.sprintf "edge %d" e)
      (sorted (H.edge_members live e)) (sorted (Mirror.edge m e))
  done;
  (* Deleting past the shifted end is refused, as hgd would refuse it. *)
  Alcotest.(check bool) "stale id" true (Result.is_error (Mirror.apply m (Wal.Del_edge { edge = 3 })));
  (match Mirror.apply m (Wal.Add_edge { name = "x"; members = [| 5; 2 |] }) with
  | Ok (Some 3) -> ()
  | _ -> Alcotest.fail "add takes the next id");
  Alcotest.(check int) "epoch" 2 (Mirror.epoch m);
  Alcotest.(check bool) "expected reply" true
    (Mirror.expected_reply m ~assigned:(Some 3)
    = P.Ok
        [ ("epoch", "2"); ("assigned", "3"); ("vertices", "6"); ("hyperedges", "4");
          ("checkpointed", "false") ])

let test_rewiring_stream () =
  let h = (Hp_data.Cellzome.generate ~seed:5 ()).hypergraph in
  let a = Mirror.rewiring_ops ~seed:9 ~n:400 h and b = Mirror.rewiring_ops ~seed:9 ~n:400 h in
  Alcotest.(check int) "length" 400 (Array.length a);
  Alcotest.(check bool) "same seed, same stream" true (a = b);
  Alcotest.(check bool) "another seed, another stream" true (a <> Mirror.rewiring_ops ~seed:10 ~n:400 h);
  (* Every op is valid against the state before it. *)
  let m = Mirror.of_hypergraph h in
  Array.iteri
    (fun i op ->
      match Mirror.apply m op with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "op %d: %s" i e)
    a;
  let dels = Array.fold_left (fun n op -> match op with Wal.Del_edge _ -> n + 1 | _ -> n) 0 a in
  let adds = Array.fold_left (fun n op -> match op with Wal.Add_edge _ -> n + 1 | _ -> n) 0 a in
  Alcotest.(check int) "edge count" (H.n_edges h - dels + adds) (Mirror.n_edges m)

(* ---------- reply checks ---------- *)

let reference =
  P.Ok [ ("k", "6"); ("core_vertices", "2"); ("core_hyperedges", "1"); ("members", "ADH1 PDC1");
         ("cached", "true") ]

let tamper = function
  | P.Ok kvs ->
    P.Ok (List.map (fun (k, v) -> if k = "members" then (k, "ADH1 PDC2") else (k, v)) kvs)
  | e -> e

let test_tampered_reply_fails () =
  let line = "KCORE abcd" in
  let refs = Hashtbl.create 1 in
  Hashtbl.replace refs line reference;
  let chk = { O.refs; racing = false } in
  Alcotest.(check bool) "reference passes" true (O.check chk line reference);
  Alcotest.(check bool) "one byte changed fails" false (O.check chk line (tamper reference));
  Alcotest.(check bool) "error reply fails" false
    (O.check chk line (P.err P.Internal "boom"));
  Alcotest.(check bool) "unknown line fails" false (O.check chk "STATS abcd" reference);
  Alcotest.(check bool) "batch with one tampered item fails" false
    (O.check_batch chk [ line; line ] [ Ok reference; Ok (tamper reference) ]);
  Alcotest.(check bool) "batch missing an item fails" false
    (O.check_batch chk [ line; line ] [ Ok reference ]);
  Alcotest.(check bool) "intact batch passes" true
    (O.check_batch chk [ line; line ] [ Ok reference; Ok reference ]);
  (* A racing read is checked by shape: a member list that does not
     match its count fails. *)
  let racing = { O.refs = Hashtbl.create 1; racing = true } in
  let shaped = P.Ok [ ("k", "6"); ("core_vertices", "2"); ("core_hyperedges", "1"); ("members", "A B") ] in
  Alcotest.(check bool) "shaped" true (O.check racing "KCORE abcd" shaped);
  Alcotest.(check bool) "count mismatch" false
    (O.check racing "KCORE abcd"
       (P.Ok [ ("k", "6"); ("core_vertices", "3"); ("core_hyperedges", "1"); ("members", "A B") ]))

(* The oracle reproduces what hgd answers for the planted core. *)
let test_oracle_planted_core () =
  let h = (Hp_data.Cellzome.generate ~seed:3 ()).hypergraph in
  match O.payload ~role:"sparse" h (P.Kcore None) with
  | kvs ->
    Alcotest.(check (option string)) "k" (Some "6") (List.assoc_opt "k" kvs);
    Alcotest.(check (option string)) "proteins" (Some "41") (List.assoc_opt "core_vertices" kvs);
    Alcotest.(check (option string)) "complexes" (Some "54") (List.assoc_opt "core_hyperedges" kvs)

let () =
  Alcotest.run "hgbench"
    [
      ( "tail",
        [
          Alcotest.test_case "percentile vs sorted oracle" `Quick test_percentile_oracle;
          Alcotest.test_case "ten-beyond rule" `Quick test_beyond_rule;
          Alcotest.test_case "windowed percentile" `Quick test_windowed;
          Alcotest.test_case "slice completion rates" `Quick test_slice_rates;
        ] );
      ( "parsing",
        [
          Alcotest.test_case "proc stat and status" `Quick test_proc_stat;
          Alcotest.test_case "v=0x400 gc report" `Quick test_gc_report;
          Alcotest.test_case "prometheus text" `Quick test_prometheus;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time with overlapping children" `Quick test_self_time_overlap;
          Alcotest.test_case "recorder nesting" `Quick test_recorder;
        ] );
      ( "mirror",
        [
          Alcotest.test_case "deledge id shift" `Quick test_mirror_id_shift;
          Alcotest.test_case "rewiring stream" `Quick test_rewiring_stream;
        ] );
      ( "checks",
        [
          Alcotest.test_case "tampered reply fails" `Quick test_tampered_reply_fails;
          Alcotest.test_case "planted core oracle" `Quick test_oracle_planted_core;
        ] );
    ]
