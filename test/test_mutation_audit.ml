(* Mutation-path audit (degree-0 vertices and edge deletion): the
   shapes a mutation stream can produce that the original text format
   only reaches through its "vertex NAME" escape hatch.

   - ADDVERTEX then CHECKPOINT must round-trip isolated vertices and
     their names through the .hgsnap pack -> mmap load ->
     to_hypergraph chain, and a snapshot-recovered replica must give
     the same KCORE/stats answers as a replica parsed from the
     equivalent text serialization (compared by vertex name: the two
     paths may order vertex ids differently).
   - DELEDGE of the last hyperedge containing a vertex must leave
     degrees, stats and core answers consistent with a fresh parse of
     the equivalent dataset.
   - A duplicate (or empty) ADDVERTEX name is a client error: the text
     format collapses equal names on parse, so accepting one would
     create a state no text round trip can represent — the registry
     must reject it without consuming an epoch or a WAL record. *)

module W = Hp_wal.Wal
module H = Hp_hypergraph.Hypergraph
module HIO = Hp_hypergraph.Hypergraph_io
module HC = Hp_hypergraph.Hypergraph_core
module Registry = Hp_server.Registry

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let base_text = "# audit base\nc1: a b c\nc2: b c d\nc3: c d e\n"

let write_file path content =
  let oc = open_out path in
  output_string oc content;
  close_out oc

let load_exn reg path =
  match Registry.load reg path with
  | Ok (entry, _) -> entry
  | Error (Registry.Read_failed m | Registry.Parse_failed m) ->
    Alcotest.failf "load %s: %s" path m

(* An entry is its dataset at the epoch it was found at: find it again
   for the state after later mutations. *)
let current reg digest =
  match Registry.find reg digest with
  | `Found e -> e
  | `Missing | `Ambiguous -> Alcotest.failf "dataset %s not resident" digest

let mutate_exn reg digest op =
  match Registry.mutate reg digest op with
  | Ok a -> a
  | Error (`Invalid m | `Io m) -> Alcotest.failf "mutate: %s" m
  | Error (`Missing | `Ambiguous) -> Alcotest.fail "mutate: dataset lost"

(* Vertex names with their core numbers, and hyperedges as sorted
   member-name lists — the id-independent view both replicas must
   agree on. *)
let named_view h =
  let d = HC.decompose ~domains:1 h in
  let cores =
    List.sort compare
      (List.init (H.n_vertices h) (fun v ->
           (H.vertex_name h v, d.HC.vertex_core.(v))))
  in
  let edges =
    List.sort compare
      (List.init (H.n_edges h) (fun e ->
           List.sort compare
             (Array.to_list
                (Array.map (H.vertex_name h) (H.edge_members h e)))))
  in
  (d.HC.max_core, cores, edges)

let assert_same_answers name a b =
  let mk_a, cores_a, edges_a = named_view a in
  let mk_b, cores_b, edges_b = named_view b in
  check (name ^ ": vertices") (H.n_vertices a) (H.n_vertices b);
  check (name ^ ": hyperedges") (H.n_edges a) (H.n_edges b);
  check (name ^ ": max core") mk_a mk_b;
  checkb (name ^ ": core numbers by name") true (cores_a = cores_b);
  checkb (name ^ ": member sets by name") true (edges_a = edges_b)

let test_isolated_vertex_roundtrip () =
  let dir = Filename.temp_dir "hgaudit" "iso" in
  let path = Filename.concat dir "data.hg" in
  write_file path base_text;
  let reg = Registry.create () in
  let entry = load_exn reg path in
  let digest = entry.Registry.digest in
  ignore (mutate_exn reg digest (W.Add_vertex { name = "iso1" }));
  ignore (mutate_exn reg digest (W.Add_vertex { name = "iso2" }));
  ignore (mutate_exn reg digest (W.Del_edge { edge = 2 }));
  let before = (current reg digest).Registry.state in
  (match Registry.checkpoint reg digest with
  | Ok _ -> ()
  | Error (`Io m) -> Alcotest.failf "checkpoint: %s" m
  | Error (`Missing | `Ambiguous) -> Alcotest.fail "checkpoint: dataset lost");
  ignore (Registry.evict reg digest);
  (* Recovery reads the .hgsnap back through the mmap loader. *)
  let entry' = load_exn reg path in
  let after = entry'.Registry.state in
  check "epoch preserved" before.Registry.epoch after.Registry.epoch;
  checkb "structure round-trips" true
    (H.equal_structure before.Registry.hypergraph after.Registry.hypergraph);
  let names h = Array.init (H.n_vertices h) (H.vertex_name h) in
  checkb "names round-trip (isolated included)" true
    (names before.Registry.hypergraph = names after.Registry.hypergraph);
  check "degree-0 vertex survives" 0
    (H.vertex_degree after.Registry.hypergraph
       (H.n_vertices after.Registry.hypergraph - 1));
  (* A mutated dataset recovers with its maintained decomposition
     rebuilt; it must match a fresh peel bit-for-bit. *)
  (match after.Registry.cores with
  | None -> Alcotest.fail "recovered dataset has no maintained cores"
  | Some dec ->
    let d = HC.decompose ~domains:1 after.Registry.hypergraph in
    Alcotest.(check (array int))
      "recovered vertex cores" d.HC.vertex_core dec.HC.vertex_core;
    Alcotest.(check (array int))
      "recovered edge cores" d.HC.edge_core dec.HC.edge_core);
  assert_same_answers "snapshot replica" before.Registry.hypergraph
    after.Registry.hypergraph

let test_text_vs_snapshot_replica () =
  let dir = Filename.temp_dir "hgaudit" "replica" in
  let path = Filename.concat dir "data.hg" in
  write_file path base_text;
  let reg = Registry.create () in
  let entry = load_exn reg path in
  let digest = entry.Registry.digest in
  ignore (mutate_exn reg digest (W.Add_vertex { name = "lonely" }));
  ignore (mutate_exn reg digest (W.Add_edge { name = "e1"; members = [| 0; 5 |] }));
  ignore (mutate_exn reg digest (W.Del_edge { edge = 3 }));
  ignore (mutate_exn reg digest (W.Add_vertex { name = "stray" }));
  let mutated = (current reg digest).Registry.state.Registry.hypergraph in
  (* The text serialization of the mutated state, parsed fresh, must
     answer identically by name — including the degree-0 vertex, which
     only survives via the "vertex NAME" line. *)
  let text_path = Filename.concat dir "replica.hg" in
  write_file text_path (HIO.to_string mutated);
  let reg2 = Registry.create () in
  let entry2 = load_exn reg2 text_path in
  assert_same_answers "text replica" mutated
    entry2.Registry.state.Registry.hypergraph

let test_deledge_isolates_vertex () =
  let dir = Filename.temp_dir "hgaudit" "del" in
  let path = Filename.concat dir "data.hg" in
  write_file path "only: a b\nc2: b c\n";
  let reg = Registry.create () in
  let entry = load_exn reg path in
  let digest = entry.Registry.digest in
  let a = mutate_exn reg digest (W.Del_edge { edge = 0 }) in
  check "edge count" 1 a.Registry.n_edges;
  check "vertices keep their ids" 3 a.Registry.n_vertices;
  let st = (current reg digest).Registry.state in
  let h = st.Registry.hypergraph in
  check "vertex a isolated" 0 (H.vertex_degree h 0);
  (* Equivalent dataset written directly: same answers by name. *)
  assert_same_answers "isolating delete" h
    (HIO.of_string "c2: b c\nvertex a\n");
  (* And the maintained decomposition the server would serve KCORE
     from agrees with a fresh peel at every level. *)
  match st.Registry.cores with
  | None -> Alcotest.fail "mutated dataset has no maintained cores"
  | Some dec ->
    for k = 0 to dec.HC.max_core do
      let served = HC.core_of_decomposition h dec k in
      let peeled = HC.k_core ~domains:1 h k in
      checkb
        (Printf.sprintf "served %d-core" k)
        true
        (served.HC.vertex_ids = peeled.HC.vertex_ids
        && H.equal_structure served.HC.core peeled.HC.core)
    done

let test_duplicate_vertex_name_rejected () =
  let dir = Filename.temp_dir "hgaudit" "dup" in
  let path = Filename.concat dir "data.hg" in
  write_file path base_text;
  let reg = Registry.create () in
  let entry = load_exn reg path in
  let digest = entry.Registry.digest in
  let epoch0 = entry.Registry.state.Registry.epoch in
  (match Registry.mutate reg digest (W.Add_vertex { name = "a" }) with
  | Error (`Invalid _) -> ()
  | Ok _ -> Alcotest.fail "duplicate of a base vertex name accepted"
  | Error _ -> Alcotest.fail "unexpected error class");
  (match Registry.mutate reg digest (W.Add_vertex { name = "" }) with
  | Error (`Invalid _) -> ()
  | Ok _ -> Alcotest.fail "empty vertex name accepted"
  | Error _ -> Alcotest.fail "unexpected error class");
  check "no epoch consumed" epoch0
    (current reg digest).Registry.state.Registry.epoch;
  (match
     Registry.mutate_batch reg digest
       [ W.Add_vertex { name = "a" }; W.Del_edge { edge = 99 } ]
   with
  | Ok r -> check "a burst of rejects applies nothing" 0 r.Registry.batch_applied
  | Error _ -> Alcotest.fail "burst of rejects: unexpected error class");
  checkb "rejected ops open no log" false (Sys.file_exists (W.sibling_path path));
  ignore (mutate_exn reg digest (W.Add_vertex { name = "fresh" }));
  (match Registry.mutate reg digest (W.Add_vertex { name = "fresh" }) with
  | Error (`Invalid _) -> ()
  | Ok _ -> Alcotest.fail "duplicate of a mutated-in name accepted"
  | Error _ -> Alcotest.fail "unexpected error class");
  check "only the valid op advanced the epoch" (epoch0 + 1)
    (current reg digest).Registry.state.Registry.epoch

let () =
  Alcotest.run "hp_mutation_audit"
    [
      ( "mutation path",
        [
          Alcotest.test_case "isolated vertices round-trip a checkpoint" `Quick
            test_isolated_vertex_roundtrip;
          Alcotest.test_case "text and snapshot replicas agree" `Quick
            test_text_vs_snapshot_replica;
          Alcotest.test_case "DELEDGE isolating a vertex" `Quick
            test_deledge_isolates_vertex;
          Alcotest.test_case "duplicate vertex names rejected" `Quick
            test_duplicate_vertex_name_rejected;
        ] );
    ]
