(* Tests for the core hypergraph type: construction, degrees, two-step
   adjacency, names, subhypergraphs, reducedness, text I/O. *)

module H = Hp_hypergraph.Hypergraph
module HIO = Hp_hypergraph.Hypergraph_io
module U = Hp_util

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* Running example: 5 proteins, 4 complexes
     e0 = {0,1,2}   e1 = {2,3}   e2 = {3,4}   e3 = {0,1,2}  (duplicate) *)
let sample () = H.create ~n_vertices:5 [ [ 0; 1; 2 ]; [ 2; 3 ]; [ 3; 4 ]; [ 0; 1; 2 ] ]

let test_sizes () =
  let h = sample () in
  check "vertices" 5 (H.n_vertices h);
  check "edges" 4 (H.n_edges h);
  check "total incidence" 10 (H.total_incidence h);
  check "max vertex degree" 3 (H.vertex_degree h 2);
  check "max vertex degree accessor" 3 (H.max_vertex_degree h);
  check "max edge size" 3 (H.max_edge_size h);
  Alcotest.(check (array int)) "vertex degrees" [| 2; 2; 3; 2; 1 |] (H.vertex_degrees h);
  Alcotest.(check (array int)) "edge sizes" [| 3; 2; 2; 3 |] (H.edge_sizes h)

let test_incidence () =
  let h = sample () in
  Alcotest.(check (array int)) "edge members sorted" [| 0; 1; 2 |] (H.edge_members h 0);
  Alcotest.(check (array int)) "vertex edges sorted" [| 0; 1; 3 |] (H.vertex_edges h 2);
  checkb "mem" true (H.mem h ~vertex:3 ~edge:1);
  checkb "not mem" false (H.mem h ~vertex:0 ~edge:1)

let test_member_dedup_and_range () =
  let h = H.create ~n_vertices:3 [ [ 0; 0; 1 ] ] in
  check "duplicate members collapse" 2 (H.edge_size h 0);
  Alcotest.check_raises "member out of range"
    (Invalid_argument "Hypergraph: member vertex out of range") (fun () ->
      ignore (H.create ~n_vertices:2 [ [ 5 ] ]))

let test_degree2 () =
  let h = sample () in
  (* e0 overlaps e1 (via 2) and e3 (via 0,1,2): d2 = 2. *)
  check "edge degree2 of e0" 2 (H.edge_degree2 h 0);
  (* e1 = {2,3}: overlaps e0, e2, e3. *)
  check "edge degree2 of e1" 3 (H.edge_degree2 h 1);
  check "max edge degree2" 3 (H.max_edge_degree2 h);
  (* vertex 2 co-occurs with 0,1,3. *)
  check "vertex degree2" 3 (H.vertex_degree2 h 2);
  (* vertex 4 co-occurs with 3 only. *)
  check "leaf vertex degree2" 1 (H.vertex_degree2 h 4)

let test_names () =
  let h =
    H.create
      ~vertex_names:[| "A"; "B"; "C" |]
      ~edge_names:[| "X"; "Y" |]
      ~n_vertices:3
      [ [ 0; 1 ]; [ 1; 2 ] ]
  in
  Alcotest.(check string) "vertex name" "B" (H.vertex_name h 1);
  Alcotest.(check string) "edge name" "Y" (H.edge_name h 1);
  Alcotest.(check (option int)) "lookup" (Some 2) (H.vertex_of_name h "C");
  Alcotest.(check (option int)) "missing" None (H.vertex_of_name h "Z");
  Alcotest.(check (option int)) "edge lookup" (Some 0) (H.edge_of_name h "X");
  (* Fallback names without tables. *)
  let anon = sample () in
  Alcotest.(check string) "default vertex name" "v3" (H.vertex_name anon 3);
  Alcotest.(check string) "default edge name" "e1" (H.edge_name anon 1);
  Alcotest.(check (option int)) "no lookup table" None (H.vertex_of_name anon "v3")

let test_name_length_mismatch () =
  Alcotest.check_raises "vertex names mismatch"
    (Invalid_argument "Hypergraph: vertex_names length mismatch") (fun () ->
      ignore (H.create ~vertex_names:[| "A" |] ~n_vertices:2 [ [ 0 ] ]));
  Alcotest.check_raises "edge names mismatch"
    (Invalid_argument "Hypergraph: edge_names length mismatch") (fun () ->
      ignore (H.create ~edge_names:[| "X"; "Y" |] ~n_vertices:2 [ [ 0 ] ]))

let test_sub () =
  let h = sample () in
  let sub, vids, eids = H.sub h ~vertices:[| 2; 3; 4 |] ~edges:[| 1; 2 |] in
  check "sub vertices" 3 (H.n_vertices sub);
  check "sub edges" 2 (H.n_edges sub);
  Alcotest.(check (array int)) "vid map" [| 2; 3; 4 |] vids;
  Alcotest.(check (array int)) "eid map" [| 1; 2 |] eids;
  (* e1 = {2,3} becomes {0,1} in new ids. *)
  Alcotest.(check (array int)) "restricted members" [| 0; 1 |] (H.edge_members sub 0);
  (* Restriction drops members outside the kept set. *)
  let sub2, _, _ = H.sub h ~vertices:[| 0 |] ~edges:[| 0 |] in
  Alcotest.(check (array int)) "heavy restriction" [| 0 |] (H.edge_members sub2 0)

let test_sub_bad_ids () =
  let h = H.create ~n_vertices:4 [ [ 0; 1; 2 ]; [ 2; 3 ] ] in
  Alcotest.check_raises "vertex id past the end"
    (Invalid_argument "Hypergraph.sub: vertex id 999 out of range") (fun () ->
      ignore (H.sub h ~vertices:[| 0; 999; -5 |] ~edges:[| 0 |]));
  Alcotest.check_raises "negative vertex id"
    (Invalid_argument "Hypergraph.sub: vertex id -5 out of range") (fun () ->
      ignore (H.sub h ~vertices:[| -5; 0 |] ~edges:[||]));
  Alcotest.check_raises "edge id past the end"
    (Invalid_argument "Hypergraph.sub: edge id 2 out of range") (fun () ->
      ignore (H.sub h ~vertices:[| 0 |] ~edges:[| 1; 2 |]));
  Alcotest.check_raises "negative edge id"
    (Invalid_argument "Hypergraph.sub: edge id -1 out of range") (fun () ->
      ignore (H.sub h ~vertices:[||] ~edges:[| -1 |]))

let test_sub_unsorted_duplicates () =
  (* Unsorted and repeated ids mean the same kept sets as their
     sorted, distinct form; both incidence directions stay sorted. *)
  let h = sample () in
  let a, va, ea = H.sub h ~vertices:[| 4; 2; 3; 2; 4 |] ~edges:[| 3; 1; 2; 1 |] in
  let b, vb, eb = H.sub h ~vertices:[| 2; 3; 4 |] ~edges:[| 1; 2; 3 |] in
  checkb "same structure" true (H.equal_structure a b);
  Alcotest.(check (array int)) "vid map" [| 2; 3; 4 |] va;
  Alcotest.(check (array int)) "eid map" [| 1; 2; 3 |] ea;
  Alcotest.(check (array int)) "same vid map" vb va;
  Alcotest.(check (array int)) "same eid map" eb ea;
  (* e3 = {0,1,2} keeps only vertex 2 (new id 0). *)
  Alcotest.(check (array int)) "restricted duplicate" [| 0 |] (H.edge_members a 2);
  Alcotest.(check (array int)) "vertex 2's edges" [| 0; 2 |] (H.vertex_edges a 0);
  Alcotest.(check (array int)) "vertex 3's edges" [| 0; 1 |] (H.vertex_edges a 1);
  let empty, _, _ = H.sub h ~vertices:[||] ~edges:[| 0 |] in
  check "no vertices" 0 (H.n_vertices empty);
  Alcotest.(check (array int)) "listed edge kept empty" [||] (H.edge_members empty 0)

let test_sub_names () =
  let h =
    H.create
      ~vertex_names:[| "A"; "B"; "C"; "D" |]
      ~edge_names:[| "X"; "Y"; "Z" |]
      ~n_vertices:4
      [ [ 0; 1 ]; [ 1; 2; 3 ]; [ 3 ] ]
  in
  let s, _, _ = H.sub h ~vertices:[| 3; 1 |] ~edges:[| 2; 1 |] in
  Alcotest.(check string) "vertex 0" "B" (H.vertex_name s 0);
  Alcotest.(check string) "vertex 1" "D" (H.vertex_name s 1);
  Alcotest.(check string) "edge 0" "Y" (H.edge_name s 0);
  Alcotest.(check string) "edge 1" "Z" (H.edge_name s 1);
  Alcotest.(check (option int)) "vertex lookup" (Some 1) (H.vertex_of_name s "D");
  Alcotest.(check (option int)) "dropped vertex" None (H.vertex_of_name s "A");
  Alcotest.(check (option int)) "edge lookup" (Some 0) (H.edge_of_name s "Y");
  Alcotest.(check (array int)) "Y restricted to B, D" [| 0; 1 |] (H.edge_members s 0)

let prop_sub_matches_restriction =
  (* The restriction rebuilt through [of_arrays] from renumbered member
     lists, for arbitrary (unsorted, repeated) id selections. *)
  QCheck.Test.make ~name:"sub: equals the renumbered restriction" ~count:200
    QCheck.(
      triple (Th.arbitrary_hypergraph ()) (small_list small_nat) (small_list small_nat))
    (fun (h, vs, es) ->
      let nv = H.n_vertices h and ne = H.n_edges h in
      let vs = Array.of_list (List.map (fun v -> v mod nv) vs) in
      let es = if ne = 0 then [||] else Array.of_list (List.map (fun e -> e mod ne) es) in
      let s, vmap, emap = H.sub h ~vertices:vs ~edges:es in
      let kept_v = U.Sorted.of_array vs and kept_e = U.Sorted.of_array es in
      let renumber v =
        let rec find i = if kept_v.(i) = v then i else find (i + 1) in
        find 0
      in
      let reference =
        H.of_arrays ~n_vertices:(Array.length kept_v)
          (Array.map
             (fun e ->
               H.edge_members h e
               |> Array.to_list
               |> List.filter (fun v -> Array.mem v kept_v)
               |> List.map renumber |> Array.of_list)
             kept_e)
      in
      vmap = kept_v && emap = kept_e
      && H.equal_structure s reference
      && Array.for_all
           (fun v -> H.vertex_edges s v = H.vertex_edges reference v)
           (Array.init (H.n_vertices s) Fun.id))

let test_is_reduced () =
  checkb "duplicate edges not reduced" false (H.is_reduced (sample ()));
  let r = H.create ~n_vertices:4 [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ] ] in
  checkb "chain reduced" true (H.is_reduced r);
  let nested = H.create ~n_vertices:3 [ [ 0; 1; 2 ]; [ 0; 1 ] ] in
  checkb "nested not reduced" false (H.is_reduced nested);
  let with_empty = H.create ~n_vertices:2 [ [ 0 ]; [] ] in
  checkb "empty edge not reduced" false (H.is_reduced with_empty)

let test_equal_structure () =
  checkb "same" true (H.equal_structure (sample ()) (sample ()));
  let other = H.create ~n_vertices:5 [ [ 0; 1 ] ] in
  checkb "different" false (H.equal_structure (sample ()) other)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec loop i = i + n <= h && (String.sub haystack i n = needle || loop (i + 1)) in
  loop 0

let test_pp () =
  let h =
    H.create ~vertex_names:[| "A"; "B" |] ~edge_names:[| "X" |] ~n_vertices:2
      [ [ 0; 1 ] ]
  in
  let s = Format.asprintf "%a" H.pp h in
  checkb "mentions edge" true (contains s "X: A B")

(* Builder *)

let test_builder () =
  let module B = Hp_hypergraph.Hypergraph_builder in
  let b = B.create () in
  let cdc28 = B.add_vertex b "CDC28" in
  check "first id" 0 cdc28;
  check "idempotent vertex" cdc28 (B.add_vertex b "CDC28");
  let e0 = B.add_edge b ~name:"CDK" [ "CDC28"; "CLN1"; "CLN1" ] in
  check "edge id" 0 e0;
  let e1 = B.add_edge b [ "CLN2"; "CDC28" ] in
  B.add_to_edge b e1 "CKS1";
  check "vertices registered" 4 (B.n_vertices b);
  check "edges registered" 2 (B.n_edges b);
  let h = B.build b in
  check "built vertices" 4 (H.n_vertices h);
  check "duplicate member collapsed" 2 (H.edge_size h e0);
  check "incremental member added" 3 (H.edge_size h e1);
  Alcotest.(check string) "edge name" "CDK" (H.edge_name h 0);
  Alcotest.(check string) "default edge name" "e1" (H.edge_name h 1);
  Alcotest.(check (option int)) "lookup by name" (Some cdc28) (H.vertex_of_name h "CDC28");
  (* Builder stays usable after build. *)
  ignore (B.add_edge b [ "FAR1" ]);
  check "later build sees additions" 3 (H.n_edges (B.build b));
  Alcotest.check_raises "unknown edge"
    (Invalid_argument "Hypergraph_builder.add_to_edge: unknown hyperedge")
    (fun () -> B.add_to_edge b 99 "X")

(* Random hypergraph generators *)

let test_gen_uniform () =
  let rng = Hp_util.Prng.create 3 in
  let h = Hp_hypergraph.Hypergraph_gen.uniform rng ~nv:20 ~ne:15 ~edge_size:4 in
  check "vertices" 20 (H.n_vertices h);
  check "edges" 15 (H.n_edges h);
  checkb "exact sizes" true (Array.for_all (fun s -> s = 4) (H.edge_sizes h));
  Alcotest.check_raises "edge larger than vertex set"
    (Invalid_argument "Hypergraph_gen.uniform: edge_size > nv") (fun () ->
      ignore (Hp_hypergraph.Hypergraph_gen.uniform rng ~nv:3 ~ne:1 ~edge_size:5))

let test_gen_configuration () =
  let rng = Hp_util.Prng.create 3 in
  let vertex_degrees = Array.make 30 2 in
  let edge_sizes = Array.make 12 5 in
  let h =
    Hp_hypergraph.Hypergraph_gen.bipartite_configuration rng ~vertex_degrees
      ~edge_sizes
  in
  check "vertices" 30 (H.n_vertices h);
  check "edges" 12 (H.n_edges h);
  (* Erased model: realized degrees never exceed requests. *)
  checkb "vertex degrees bounded" true
    (Array.for_all (fun d -> d <= 2) (H.vertex_degrees h));
  checkb "edge sizes bounded" true (Array.for_all (fun s -> s <= 5) (H.edge_sizes h))

let test_gen_powerlaw_membership () =
  let rng = Hp_util.Prng.create 3 in
  let h =
    Hp_hypergraph.Hypergraph_gen.powerlaw_membership rng ~nv:400 ~ne:60 ~gamma:2.5
      ~dmax:12
  in
  check "vertices" 400 (H.n_vertices h);
  check "edges" 60 (H.n_edges h);
  let hist = Hp_util.Int_histogram.of_array (H.vertex_degrees h) in
  checkb "degree-1 dominates" true
    (Hp_util.Int_histogram.count hist 1 > Hp_util.Int_histogram.count hist 2)

(* Dual hypergraph *)

let test_dual_known () =
  let h = sample () in
  let d = Hp_hypergraph.Hypergraph_dual.dual h in
  check "dual vertices are edges" (H.n_edges h) (H.n_vertices d);
  check "dual edges are vertices" (H.n_vertices h) (H.n_edges d);
  (* Protein 2 belongs to e0, e1, e3: its dual hyperedge lists them. *)
  Alcotest.(check (array int)) "dual edge of vertex 2" [| 0; 1; 3 |]
    (H.edge_members d 2);
  check "incidence preserved" (H.total_incidence h) (H.total_incidence d)

let test_dual_names_swap () =
  let h =
    H.create ~vertex_names:[| "A"; "B" |] ~edge_names:[| "X" |] ~n_vertices:2
      [ [ 0; 1 ] ]
  in
  let d = Hp_hypergraph.Hypergraph_dual.dual h in
  Alcotest.(check string) "complex becomes vertex" "X" (H.vertex_name d 0);
  Alcotest.(check string) "protein becomes edge" "B" (H.edge_name d 1)

let prop_dual_involution =
  QCheck.Test.make ~name:"dual: dual of dual is the original" ~count:200
    (Th.arbitrary_hypergraph ())
    (fun h ->
      H.equal_structure h
        Hp_hypergraph.Hypergraph_dual.(dual (dual h)))

let prop_dual_intersection_graph =
  (* The complex intersection graph of H is the clique expansion of
     dual(H): complexes are adjacent iff they share a protein iff they
     co-occur in a dual hyperedge. *)
  QCheck.Test.make ~name:"dual: intersection graph = clique expansion of dual"
    ~count:200 (Th.arbitrary_hypergraph ())
    (fun h ->
      let lhs = Hp_hypergraph.Hypergraph_convert.intersection_graph h in
      let rhs =
        Hp_hypergraph.Hypergraph_convert.clique_expansion
          (Hp_hypergraph.Hypergraph_dual.dual h)
      in
      Hp_graph.Graph.edges lhs = Hp_graph.Graph.edges rhs)

let test_complex_core () =
  (* Three complexes pairwise sharing proteins: every complex overlaps
     the other two, so the dual 2-core retains them. *)
  let h = H.create ~n_vertices:3 [ [ 0; 1 ]; [ 1; 2 ]; [ 0; 2 ] ] in
  let r = Hp_hypergraph.Hypergraph_dual.complex_core h 2 in
  check "complex core size" 3 (H.n_vertices r.core)

(* Text I/O *)

let test_io_roundtrip_known () =
  let h =
    H.create
      ~vertex_names:[| "ADH1"; "CDC28"; "LONE" |]
      ~edge_names:[| "CPX1"; "CPX2" |]
      ~n_vertices:3
      [ [ 0; 1 ]; [ 1 ] ]
  in
  let s = HIO.to_string h in
  let h' = HIO.of_string s in
  checkb "structure preserved" true (H.equal_structure h h');
  Alcotest.(check string) "names preserved" "ADH1" (H.vertex_name h' 0);
  (* The isolated vertex survives through a [vertex] line. *)
  check "vertices preserved" 3 (H.n_vertices h');
  Alcotest.(check (option int)) "isolated vertex named" (Some 2)
    (H.vertex_of_name h' "LONE")

let test_io_parse_errors () =
  (match HIO.of_string "not a valid line" with
  | _ -> Alcotest.fail "expected parse failure"
  | exception Failure msg -> checkb "line number in error" true (contains msg "line 1"));
  (* Comments and blanks are fine. *)
  let h = HIO.of_string "# comment\n\ncpx: a b\n" in
  check "parsed edges" 1 (H.n_edges h);
  check "parsed vertices" 2 (H.n_vertices h)

let prop_io_never_crashes =
  (* Fuzz: arbitrary text must either parse or raise [Failure] with a
     message — never a stray exception. *)
  QCheck.Test.make ~name:"io: of_string total on arbitrary text" ~count:500
    QCheck.(string_gen_of_size (QCheck.Gen.int_range 0 80) QCheck.Gen.printable)
    (fun text ->
      match HIO.of_string text with
      | _ -> true
      | exception Failure _ -> true)

let prop_io_roundtrip =
  (* The format identifies vertices by name, so ids permute to
     first-appearance order on parse; check counts, per-edge sizes in
     order, and idempotence of the round trip. *)
  QCheck.Test.make ~name:"io: to_string/of_string preserves structure" ~count:200
    (Th.arbitrary_hypergraph ())
    (fun h ->
      let h' = HIO.of_string (HIO.to_string h) in
      let h'' = HIO.of_string (HIO.to_string h') in
      H.n_vertices h' = H.n_vertices h
      && H.n_edges h' = H.n_edges h
      && H.edge_sizes h' = H.edge_sizes h
      && H.equal_structure h' h'')

let prop_incidence_consistent =
  QCheck.Test.make ~name:"incidence: vertex_edges inverts edge_members" ~count:200
    (Th.arbitrary_hypergraph ())
    (fun h ->
      let ok = ref true in
      for e = 0 to H.n_edges h - 1 do
        Array.iter
          (fun v ->
            if not (Array.exists (fun f -> f = e) (H.vertex_edges h v)) then ok := false)
          (H.edge_members h e)
      done;
      for v = 0 to H.n_vertices h - 1 do
        Array.iter
          (fun e -> if not (H.mem h ~vertex:v ~edge:e) then ok := false)
          (H.vertex_edges h v)
      done;
      (* Both degree sums equal |E|. *)
      let sv = Array.fold_left ( + ) 0 (H.vertex_degrees h) in
      let se = Array.fold_left ( + ) 0 (H.edge_sizes h) in
      !ok && sv = se && sv = H.total_incidence h)

let prop_degree2_bounds =
  QCheck.Test.make ~name:"degree2: bounded by reachable sets" ~count:200
    (Th.arbitrary_hypergraph ())
    (fun h ->
      let ok = ref true in
      for e = 0 to H.n_edges h - 1 do
        if H.edge_degree2 h e > H.n_edges h - 1 then ok := false
      done;
      for v = 0 to H.n_vertices h - 1 do
        if H.vertex_degree2 h v > H.n_vertices h - 1 then ok := false
      done;
      !ok)

let () =
  Alcotest.run "hp_hypergraph"
    [
      ( "structure",
        [
          Alcotest.test_case "sizes" `Quick test_sizes;
          Alcotest.test_case "incidence" `Quick test_incidence;
          Alcotest.test_case "member dedup and range" `Quick test_member_dedup_and_range;
          Alcotest.test_case "degree2" `Quick test_degree2;
          Th.prop prop_incidence_consistent;
          Th.prop prop_degree2_bounds;
        ] );
      ( "names",
        [
          Alcotest.test_case "lookup" `Quick test_names;
          Alcotest.test_case "length mismatch" `Quick test_name_length_mismatch;
        ] );
      ( "derived",
        [
          Alcotest.test_case "sub" `Quick test_sub;
          Alcotest.test_case "sub rejects bad ids" `Quick test_sub_bad_ids;
          Alcotest.test_case "sub unsorted and duplicate ids" `Quick
            test_sub_unsorted_duplicates;
          Alcotest.test_case "sub carries names" `Quick test_sub_names;
          Th.prop prop_sub_matches_restriction;
          Alcotest.test_case "is_reduced" `Quick test_is_reduced;
          Alcotest.test_case "equal_structure" `Quick test_equal_structure;
          Alcotest.test_case "pp" `Quick test_pp;
        ] );
      ("builder", [ Alcotest.test_case "incremental construction" `Quick test_builder ]);
      ( "generators",
        [
          Alcotest.test_case "uniform" `Quick test_gen_uniform;
          Alcotest.test_case "bipartite configuration" `Quick test_gen_configuration;
          Alcotest.test_case "powerlaw membership" `Quick test_gen_powerlaw_membership;
        ] );
      ( "dual",
        [
          Alcotest.test_case "structure" `Quick test_dual_known;
          Alcotest.test_case "names swap" `Quick test_dual_names_swap;
          Alcotest.test_case "complex core" `Quick test_complex_core;
          Th.prop prop_dual_involution;
          Th.prop prop_dual_intersection_graph;
        ] );
      ( "io",
        [
          Alcotest.test_case "roundtrip with names" `Quick test_io_roundtrip_known;
          Alcotest.test_case "parse errors" `Quick test_io_parse_errors;
          Th.prop prop_io_never_crashes;
          Th.prop prop_io_roundtrip;
        ] );
    ]
