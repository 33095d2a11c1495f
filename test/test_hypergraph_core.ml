(* Tests for hypergraph reduction and the k-core algorithm (paper
   Section 3, Figure 4) — the heart of the library.  Known small
   cases plus property tests that pin the definition:

   - every vertex of the k-core has degree >= k inside it;
   - the k-core is reduced (every hyperedge maximal);
   - the overlap-based algorithm agrees with the naive subset-scan
     oracle, and the one-pass decomposition with the iterated one;
   - cores are nested and the computation is idempotent. *)

module H = Hp_hypergraph.Hypergraph
module R = Hp_hypergraph.Hypergraph_reduce
module C = Hp_hypergraph.Hypergraph_core

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* Reduction *)

let test_overlaps () =
  let h = H.create ~n_vertices:4 [ [ 0; 1; 2 ]; [ 1; 2; 3 ]; [ 3 ] ] in
  Alcotest.(check (list (triple int int int)))
    "overlaps"
    [ (0, 1, 2); (1, 2, 1) ]
    (R.overlaps h)

let test_non_maximal () =
  let h = H.create ~n_vertices:4 [ [ 0; 1; 2 ]; [ 0; 1 ]; [ 0; 1; 2 ]; [ 3 ]; [] ] in
  (* e1 contained in e0; duplicate e2 loses to e0; empty e4 always
     removed when other edges exist. *)
  Alcotest.(check (array int)) "non-maximal" [| 1; 2; 4 |] (R.non_maximal_edges h);
  let reduced, emap = R.reduce h in
  check "edges after reduce" 2 (H.n_edges reduced);
  Alcotest.(check (array int)) "surviving ids" [| 0; 3 |] emap;
  checkb "result reduced" true (H.is_reduced reduced)

let test_reduce_duplicate_empties () =
  let h = H.create ~n_vertices:1 [ []; [] ] in
  let reduced, emap = R.reduce h in
  check "one empty survives" 1 (H.n_edges reduced);
  Alcotest.(check (array int)) "smallest id kept" [| 0 |] emap

let prop_reduce_is_reduced =
  QCheck.Test.make ~name:"reduce: output is reduced and maximal edges survive"
    ~count:300 (Th.arbitrary_hypergraph ())
    (fun h ->
      let reduced, emap = R.reduce h in
      H.is_reduced reduced
      (* Surviving edges keep their exact member sets. *)
      && Array.for_all
           (fun i ->
             H.edge_members reduced i = H.edge_members h emap.(i))
           (Array.init (H.n_edges reduced) Fun.id))

let prop_overlaps_match_intersections =
  QCheck.Test.make ~name:"overlaps match pairwise intersections" ~count:200
    (Th.arbitrary_hypergraph ())
    (fun h ->
      List.for_all
        (fun (f, g, c) ->
          c = Hp_util.Sorted.inter_count (H.edge_members h f) (H.edge_members h g))
        (R.overlaps h))

(* Hypergraphs rich in containment: each hyperedge is a fresh random
   set, a copy of an earlier one, a random subset of an earlier one,
   or empty — the cases reduction has to get right. *)
let containment_gen st =
  let nv = 1 + Random.State.int st 8 and ne = Random.State.int st 11 in
  let rows = Array.make ne [] in
  for e = 0 to ne - 1 do
    rows.(e) <-
      (match Random.State.int st 4 with
      | 0 when e > 0 -> rows.(Random.State.int st e)
      | 1 when e > 0 ->
        List.filter (fun _ -> Random.State.bool st) rows.(Random.State.int st e)
      | 2 -> []
      | _ -> List.filter (fun _ -> Random.State.int st 3 = 0) (List.init nv Fun.id))
  done;
  H.create ~n_vertices:nv (Array.to_list rows)

let arbitrary_containment =
  QCheck.make ~print:Th.hypergraph_print containment_gen

(* Both generators: the coin-flip one (with shrinking) and the
   containment-biased one. *)
let arbitrary_mixed =
  QCheck.make ~print:Th.hypergraph_print
    (QCheck.Gen.oneof [ Th.hypergraph_gen (); containment_gen ])

(* O(m^2) oracle: f is non-maximal when some other hyperedge contains
   it and is larger, or is as large (so equal) with a smaller id. *)
let brute_non_maximal h =
  let m = H.n_edges h in
  let size = H.edge_size h in
  List.init m Fun.id
  |> List.filter (fun f ->
         List.exists
           (fun g ->
             g <> f
             && Hp_util.Sorted.subset (H.edge_members h f) (H.edge_members h g)
             && (size g > size f || g < f))
           (List.init m Fun.id))
  |> Array.of_list

let test_non_maximal_all_empty () =
  let h = H.create ~n_vertices:2 [ []; []; [] ] in
  Alcotest.(check (array int)) "all but hyperedge 0" [| 1; 2 |] (R.non_maximal_edges h);
  Alcotest.(check (array int)) "oracle agrees" (brute_non_maximal h) (R.non_maximal_edges h);
  check "survivor" 0 (R.empty_survivor h);
  check "no survivor with a non-empty edge" (-1)
    (R.empty_survivor (H.create ~n_vertices:2 [ []; [ 1 ] ]))

let prop_non_maximal_matches_oracle =
  QCheck.Test.make ~name:"non_maximal_edges matches the subset oracle" ~count:500
    arbitrary_containment
    (fun h -> R.non_maximal_edges h = brute_non_maximal h)

(* k-core: known cases *)

(* The planted example: three mutually overlapping 4-member complexes
   over six vertices; every vertex in exactly two -> max core 2. *)
let tri () = H.create ~n_vertices:6 [ [ 0; 1; 2; 3 ]; [ 0; 1; 4; 5 ]; [ 2; 3; 4; 5 ] ]

let test_kcore_tri () =
  let r = C.k_core (tri ()) 2 in
  check "2-core vertices" 6 (H.n_vertices r.core);
  check "2-core edges" 3 (H.n_edges r.core);
  let r3 = C.k_core (tri ()) 3 in
  check "3-core empty" 0 (H.n_vertices r3.core);
  check "3-core no edges" 0 (H.n_edges r3.core)

let test_kcore_negative () =
  Alcotest.check_raises "negative k"
    (Invalid_argument "Hypergraph_core.k_core: negative k") (fun () ->
      ignore (C.k_core (tri ()) (-1)))

let test_kcore_cascade () =
  (* Deleting the degree-1 vertex 3 shrinks e1 = {2,3} to {2}, which is
     then contained in e0 = {0,1,2}; deleting e1 drops vertex 2 to
     degree 1, so the 2-core is empty — the cascade the paper
     describes. *)
  let h = H.create ~n_vertices:4 [ [ 0; 1; 2 ]; [ 2; 3 ]; [ 0; 1 ] ] in
  let r = C.k_core h 2 in
  check "cascade empties the 2-core" 0 (H.n_vertices r.core)

let test_zero_core () =
  let h = H.create ~n_vertices:3 [ [ 0; 1 ]; [ 0 ] ] in
  let r = C.k_core h 0 in
  (* 0-core = reduced input with all vertices. *)
  check "vertices kept" 3 (H.n_vertices r.core);
  check "non-maximal dropped" 1 (H.n_edges r.core);
  check "edges_deleted stat" 1 r.stats.edges_deleted

let test_max_core_known () =
  let k, r = C.max_core (tri ()) in
  check "max core index" 2 k;
  check "max core vertices" 6 (H.n_vertices r.core)

let test_decompose_known () =
  let h =
    H.create ~n_vertices:8
      [
        [ 0; 1; 2; 3 ]; [ 0; 1; 4; 5 ]; [ 2; 3; 4; 5 ];  (* 2-core block *)
        [ 5; 6 ];                                          (* tail *)
        [ 7 ];                                             (* pendant *)
      ]
  in
  let d = C.decompose h in
  check "max core" 2 d.max_core;
  Alcotest.(check (array int)) "vertex core numbers"
    [| 2; 2; 2; 2; 2; 2; 1; 1 |]
    d.vertex_core;
  Alcotest.(check (array int)) "edge core numbers" [| 2; 2; 2; 1; 1 |] d.edge_core

let test_decompose_initial_reduction_edges () =
  let h = H.create ~n_vertices:3 [ [ 0; 1; 2 ]; [ 0; 1 ] ] in
  let d = C.decompose h in
  check "contained edge marked -1" (-1) d.edge_core.(1);
  check "maximal edge survives to level 1" 1 d.edge_core.(0)

let test_empty_hypergraph () =
  let h = H.create ~n_vertices:0 [] in
  check "max core of empty" 0 (C.decompose h).max_core;
  let k, r = C.max_core h in
  check "empty max core index" 0 k;
  check "empty core" 0 (H.n_vertices r.core)

let test_stats_counters () =
  let h = H.create ~n_vertices:4 [ [ 0; 1; 2 ]; [ 2; 3 ]; [ 0; 1 ] ] in
  let r = C.k_core h 2 in
  check "vertices deleted" 4 r.stats.vertices_deleted;
  check "edges deleted" 3 r.stats.edges_deleted;
  checkb "did maximality checks" true (r.stats.maximality_checks >= 0)

(* Property tests. *)

let in_core_degree_ok k core =
  Array.for_all
    (fun v -> H.vertex_degree core v >= k)
    (Array.init (H.n_vertices core) Fun.id)

let prop_kcore_invariants =
  QCheck.Test.make ~name:"k-core: min degree, reducedness, no empty edges" ~count:300
    QCheck.(pair (Th.arbitrary_hypergraph ()) (int_range 1 4))
    (fun (h, k) ->
      let k = max 1 k (* shrinker can escape the range *) in
      let r = C.k_core h k in
      in_core_degree_ok k r.core
      && H.is_reduced r.core
      && Array.for_all (fun s -> s > 0) (H.edge_sizes r.core)
      (* id maps are consistent: edge members in the core are the
         restriction of the original edge. *)
      && Array.for_all
           (fun i ->
             let original = H.edge_members h r.edge_ids.(i) in
             let mapped = Array.map (fun v -> r.vertex_ids.(v)) (H.edge_members r.core i) in
             Hp_util.Sorted.subset mapped original)
           (Array.init (H.n_edges r.core) Fun.id))

let prop_strategies_agree =
  QCheck.Test.make ~name:"k-core: CSR and naive strategies agree"
    ~count:300
    QCheck.(pair (Th.arbitrary_hypergraph ()) (int_range 1 4))
    (fun (h, k) ->
      let a = C.k_core ~strategy:C.Overlap h k in
      let b = C.k_core ~strategy:C.Naive h k in
      H.equal_structure a.core b.core
      && a.vertex_ids = b.vertex_ids
      && a.edge_ids = b.edge_ids)

let prop_decompose_strategies_domain_matrix =
  (* The CSR overlap kernel and the naive oracle produce identical
     decompositions — exact arrays, not just multisets, since both
     drive the same deletion order — at fan-outs covering the
     sequential path (1), an even split (2) and an odd split (7). *)
  QCheck.Test.make
    ~name:"decompose: Naive/Overlap identical at domains 1, 2, 7"
    ~count:60 (Th.arbitrary_hypergraph ())
    (fun h ->
      let reference = C.decompose ~strategy:C.Naive ~domains:1 h in
      List.for_all
        (fun strategy ->
          List.for_all
            (fun domains ->
              let d = C.decompose ~strategy ~domains h in
              d.C.vertex_core = reference.C.vertex_core
              && d.C.edge_core = reference.C.edge_core
              && d.C.max_core = reference.C.max_core)
            [ 1; 2; 7 ])
        [ C.Naive; C.Overlap ])

(* The two-step pipeline that reduction inside the peel state
   replaced, assembled from the public API: reduce to a copy, peel the
   copy, map hyperedge ids back through the reduction's id map. *)
let two_step_decompose ~strategy ~domains h =
  let reduced, emap = R.reduce h in
  let d = C.decompose ~strategy ~domains reduced in
  let edge_core = Array.make (H.n_edges h) (-1) in
  Array.iteri (fun i e -> edge_core.(e) <- d.C.edge_core.(i)) emap;
  { d with C.edge_core }

let two_step_k_core ~strategy ~domains h k =
  let reduced, emap = R.reduce h in
  let r = C.k_core ~strategy ~domains reduced k in
  let dropped = H.n_edges h - H.n_edges reduced in
  ( r.vertex_ids,
    Array.map (fun i -> emap.(i)) r.edge_ids,
    { r.stats with edges_deleted = r.stats.edges_deleted + dropped } )

let prop_decompose_matches_two_step =
  QCheck.Test.make
    ~name:"decompose: equals reduce-then-decompose at domains 1, 2, 7" ~count:150
    arbitrary_mixed
    (fun h ->
      List.for_all
        (fun strategy ->
          List.for_all
            (fun domains ->
              C.decompose ~strategy ~domains h = two_step_decompose ~strategy ~domains h)
            [ 1; 2; 7 ])
        [ C.Overlap; C.Naive ])

let prop_k_core_matches_two_step =
  QCheck.Test.make ~name:"k-core: equals reduce-then-peel, ids and stats"
    ~count:150
    QCheck.(pair arbitrary_mixed (int_range 0 4))
    (fun (h, k) ->
      let k = max 0 k in
      List.for_all
        (fun strategy ->
          List.for_all
            (fun domains ->
              let r = C.k_core ~strategy ~domains h k in
              (r.vertex_ids, r.edge_ids, r.stats)
              = two_step_k_core ~strategy ~domains h k)
            [ 1; 2; 7 ])
        [ C.Overlap; C.Naive ])

let prop_onepass_matches_iterated =
  (* Edge identity is order-dependent when two hyperedges shrink to
     the same restriction (either may represent it in the core), so
     edge levels are compared as a multiset; vertex core numbers are
     unique outright. *)
  QCheck.Test.make ~name:"decompose: one-pass equals iterated" ~count:300
    (Th.arbitrary_hypergraph ())
    (fun h ->
      let a = C.decompose_onepass h in
      let b = C.decompose_iterated h in
      a.max_core = b.max_core && a.vertex_core = b.vertex_core
      && Th.sorted_array a.edge_core = Th.sorted_array b.edge_core)

let prop_cores_nested =
  QCheck.Test.make ~name:"k-core: (k+1)-core inside k-core" ~count:200
    (Th.arbitrary_hypergraph ())
    (fun h ->
      let d = C.decompose h in
      let ok = ref true in
      for k = 1 to d.max_core do
        let hi = (C.k_core h k).vertex_ids in
        let lo = (C.k_core h (k - 1)).vertex_ids in
        if not (Hp_util.Sorted.subset hi lo) then ok := false
      done;
      !ok)

let prop_idempotent =
  QCheck.Test.make ~name:"k-core: recomputing on the core is identity" ~count:200
    QCheck.(pair (Th.arbitrary_hypergraph ()) (int_range 1 3))
    (fun (h, k) ->
      let r = C.k_core h k in
      let r2 = C.k_core r.core k in
      H.equal_structure r.core r2.core)

let prop_decompose_consistent_with_kcore =
  QCheck.Test.make ~name:"decompose: core numbers match per-k membership" ~count:150
    (Th.arbitrary_hypergraph ())
    (fun h ->
      let d = C.decompose h in
      let ok = ref true in
      for k = 1 to d.max_core + 1 do
        let r = C.k_core h k in
        let members = Array.make (H.n_vertices h) false in
        Array.iter (fun v -> members.(v) <- true) r.vertex_ids;
        Array.iteri
          (fun v c -> if (c >= k) <> members.(v) then ok := false)
          d.vertex_core
      done;
      !ok)

let test_core_profile () =
  let h =
    H.create ~n_vertices:8
      [ [ 0; 1; 2; 3 ]; [ 0; 1; 4; 5 ]; [ 2; 3; 4; 5 ]; [ 5; 6 ]; [ 7 ] ]
  in
  let p = C.core_profile (C.decompose h) in
  Alcotest.(check (array (triple int int int)))
    "profile"
    [| (0, 8, 5); (1, 8, 5); (2, 6, 3) |]
    p

let prop_core_profile_monotone =
  QCheck.Test.make ~name:"core profile: sizes weakly decrease in k" ~count:200
    (Th.arbitrary_hypergraph ())
    (fun h ->
      let p = C.core_profile (C.decompose h) in
      let ok = ref true in
      for i = 1 to Array.length p - 1 do
        let _, nv0, ne0 = p.(i - 1) and _, nv1, ne1 = p.(i) in
        if nv1 > nv0 || ne1 > ne0 then ok := false
      done;
      !ok)

let prop_parallel_init_agrees =
  QCheck.Test.make ~name:"k-core: multi-domain overlap init agrees with sequential"
    ~count:100
    QCheck.(pair (Th.arbitrary_hypergraph ()) (int_range 1 3))
    (fun (h, k) ->
      let k = max 1 k in
      let a = C.k_core ~domains:1 h k in
      let b = C.k_core ~domains:3 h k in
      H.equal_structure a.core b.core && a.vertex_ids = b.vertex_ids)

let prop_overlap_init_domain_invariant =
  (* The Overlap strategy's parallel pairwise-overlap preprocessing
     must give identical peels at domains 1 (sequential), 2 (even
     split) and 7 (odd split, remainder-first chunks): the merged
     overlap tables are the same multiset whatever the fan-out. *)
  QCheck.Test.make
    ~name:"k-core: Overlap preprocessing identical at domains 1, 2 and 7"
    ~count:100
    QCheck.(pair (Th.arbitrary_hypergraph ()) (int_range 1 3))
    (fun (h, k) ->
      let run d = C.k_core ~strategy:C.Overlap ~domains:d h k in
      let a = run 1 and b = run 2 and c = run 7 in
      H.equal_structure a.core b.core
      && H.equal_structure a.core c.core
      && a.vertex_ids = b.vertex_ids
      && a.vertex_ids = c.vertex_ids
      && a.edge_ids = b.edge_ids
      && a.edge_ids = c.edge_ids)

let prop_decompose_domain_invariant =
  QCheck.Test.make
    ~name:"decompose: identical at domains 1, 2 and 7" ~count:50
    (Th.arbitrary_hypergraph ())
    (fun h ->
      let run d = C.decompose ~domains:d h in
      let a = run 1 and b = run 2 and c = run 7 in
      a.C.vertex_core = b.C.vertex_core
      && a.C.vertex_core = c.C.vertex_core
      && a.C.edge_core = b.C.edge_core
      && a.C.edge_core = c.C.edge_core
      && a.C.max_core = b.C.max_core
      && a.C.max_core = c.C.max_core)

let test_parallel_on_real_instance () =
  let ds = Hp_data.Cellzome.generate ~seed:2004 () in
  let a = C.decompose ~domains:1 ds.hypergraph in
  let b = C.decompose ~domains:4 ds.hypergraph in
  Alcotest.(check int) "same max core" a.max_core b.max_core;
  Alcotest.(check (array int)) "same vertex cores" a.vertex_core b.vertex_core;
  Alcotest.(check (array int)) "same edge cores" a.edge_core b.edge_core

let prop_agrees_with_graph_core =
  (* A simple graph is a 2-uniform hypergraph.  Singleton hyperedges
     produced mid-peel are always contained in a surviving pair (or
     emptied), so the two independently implemented k-core algorithms
     must select exactly the same vertices at every level. *)
  QCheck.Test.make ~name:"k-core: 2-uniform hypergraph matches graph k-core"
    ~count:200 (Th.arbitrary_graph ())
    (fun g ->
      let module G = Hp_graph.Graph in
      let members =
        List.map (fun (u, v) -> [ u; v ]) (G.edges g)
      in
      let h = H.create ~n_vertices:(G.n_vertices g) members in
      let gd = Hp_graph.Graph_core.decompose g in
      let hd = C.decompose h in
      gd.core_number = hd.vertex_core)

let test_scratch_aliasing () =
  (* The CSR build's sort runs through a domain-local scratch arena
     that only grows; interleaving peels of two hypergraphs of very
     different sizes on one domain must not let the larger instance's
     leftovers leak into the smaller one's overlaps. *)
  let rng = Hp_util.Prng.create 97 in
  let big =
    (Hp_data.Proteome_gen.generate rng Hp_data.Proteome_gen.cellzome_params)
      .hypergraph
  in
  let small = tri () in
  let db0 = C.decompose ~strategy:C.Overlap big in
  let ds0 = C.decompose ~strategy:C.Overlap small in
  for _ = 1 to 3 do
    let db = C.decompose ~strategy:C.Overlap big in
    let ds = C.decompose ~strategy:C.Overlap small in
    Alcotest.(check (array int)) "big vertex cores stable" db0.vertex_core db.vertex_core;
    Alcotest.(check (array int)) "big edge cores stable" db0.edge_core db.edge_core;
    Alcotest.(check (array int)) "small vertex cores stable" ds0.vertex_core ds.vertex_core;
    Alcotest.(check (array int)) "small edge cores stable" ds0.edge_core ds.edge_core
  done

let test_peel_rounds_deadline () =
  let h = tri () in
  (* A healthy budget changes nothing. *)
  let r = C.peel_rounds ~deadline:(Hp_util.Deadline.after 60.0) h 3 in
  check "peeled to empty" 0 r.core_vertices;
  (* A cancelled token aborts the round loop mid-peel. *)
  let t = Hp_util.Deadline.after 60.0 in
  Hp_util.Deadline.cancel t;
  Alcotest.check_raises "expired budget" Hp_util.Deadline.Expired (fun () ->
      ignore (C.peel_rounds ~deadline:t h 3))

let prop_max_core_nonempty =
  QCheck.Test.make ~name:"max core is non-empty when an edge exists" ~count:200
    (Th.arbitrary_hypergraph ())
    (fun h ->
      let k, r = C.max_core h in
      let has_nonempty = Array.exists (fun s -> s > 0) (H.edge_sizes h) in
      if has_nonempty then k >= 1 && H.n_vertices r.core > 0
      else k = 0)

let prop_max_core_matches_kcore =
  (* max_core is now assembled from the decomposition arrays instead
     of a second peel; it must still be k_core at the maximum index as
     a set system (vertex ids are unique; edge representative ids can
     legitimately differ on shrink ties, so member sets are compared
     as sorted multisets). *)
  QCheck.Test.make ~name:"max core equals k_core at its index" ~count:150
    (Th.arbitrary_hypergraph ())
    (fun h ->
      let edge_sets core =
        List.sort compare
          (List.init (H.n_edges core) (fun e -> H.edge_members core e))
      in
      let k, r = C.max_core h in
      let r2 = C.k_core h k in
      r.vertex_ids = r2.vertex_ids
      && edge_sets r.core = edge_sets r2.core
      && r.stats.vertices_deleted = r2.stats.vertices_deleted
      && r.stats.edges_deleted = r2.stats.edges_deleted)

let test_max_core_canonical_edges () =
  (* Regression for order-dependent edge identity: e0 and e1 both
     shrink to {a, b} when their pendant vertex is peeled, and
     whichever is popped first is deleted as newly non-maximal — so
     the RAW peel's surviving id depends on the drain order.  The
     canonicalized [max_core] must name the smallest original id whose
     restriction to the core equals the surviving member set, in both
     pendant orientations. *)
  let a = 0 and b = 1 and c = 2 and p = 3 and q = 4 in
  let variant pendants =
    let e0, e1 = pendants in
    let h =
      H.create ~n_vertices:5 [ [ a; b; e0 ]; [ a; b; e1 ]; [ b; c ]; [ a; c ] ]
    in
    let k, r = C.max_core h in
    check "max core index" 2 k;
    Alcotest.(check (array int)) "core vertices" [| a; b; c |] r.vertex_ids;
    Alcotest.(check (array int)) "canonical edge ids" [| 0; 2; 3 |] r.edge_ids
  in
  variant (p, q);
  variant (q, p)

let test_max_core_duplicate_complexes () =
  (* Literal duplicate complexes in the input: reduction keeps the
     smallest id of each duplicate pair, and the canonical core ids
     must reference those, never the dropped twins. *)
  let h =
    H.create ~n_vertices:6
      [
        [ 0; 1; 2; 3 ]; [ 0; 1; 2; 3 ];
        [ 0; 1; 4; 5 ]; [ 0; 1; 4; 5 ];
        [ 2; 3; 4; 5 ]; [ 2; 3; 4; 5 ];
      ]
  in
  let k, r = C.max_core h in
  check "max core index" 2 k;
  check "core vertices" 6 (H.n_vertices r.core);
  Alcotest.(check (array int)) "first of each pair" [| 0; 2; 4 |] r.edge_ids

let test_core_of_decomposition_negative_k () =
  Alcotest.check_raises "negative k"
    (Invalid_argument "Hypergraph_core.core_of_decomposition: negative k")
    (fun () -> ignore (C.core_of_decomposition (tri ()) (C.decompose (tri ())) (-1)))

let prop_core_of_decomposition_matches_kcore =
  (* Assembling any level from the decomposition arrays — the serving
     path for maintained decompositions — must agree with a direct
     peel at that level: same vertices, same set system, same
     deletion counts. *)
  QCheck.Test.make ~name:"core_of_decomposition equals k_core at every level"
    ~count:100
    QCheck.(pair (Th.arbitrary_hypergraph ()) (int_range 0 4))
    (fun (h, k) ->
      let d = C.decompose h in
      let a = C.core_of_decomposition h d k in
      let b = C.k_core h k in
      let edge_sets core =
        List.sort compare
          (List.init (H.n_edges core) (fun e -> H.edge_members core e))
      in
      a.vertex_ids = b.vertex_ids
      && edge_sets a.core = edge_sets b.core
      && a.stats.vertices_deleted = b.stats.vertices_deleted
      && a.stats.edges_deleted = b.stats.edges_deleted)

let () =
  Alcotest.run "hp_hypergraph_core"
    [
      ( "reduction",
        [
          Alcotest.test_case "overlaps" `Quick test_overlaps;
          Alcotest.test_case "non-maximal edges" `Quick test_non_maximal;
          Alcotest.test_case "duplicate empty edges" `Quick test_reduce_duplicate_empties;
          Th.prop prop_reduce_is_reduced;
          Th.prop prop_overlaps_match_intersections;
          Alcotest.test_case "all-empty hypergraph" `Quick test_non_maximal_all_empty;
          Th.prop prop_non_maximal_matches_oracle;
        ] );
      ( "k-core known cases",
        [
          Alcotest.test_case "triangle of complexes" `Quick test_kcore_tri;
          Alcotest.test_case "negative k rejected" `Quick test_kcore_negative;
          Alcotest.test_case "deletion cascade" `Quick test_kcore_cascade;
          Alcotest.test_case "0-core" `Quick test_zero_core;
          Alcotest.test_case "max core" `Quick test_max_core_known;
          Alcotest.test_case "decomposition" `Quick test_decompose_known;
          Alcotest.test_case "reduced edges marked" `Quick
            test_decompose_initial_reduction_edges;
          Alcotest.test_case "empty hypergraph" `Quick test_empty_hypergraph;
          Alcotest.test_case "stats counters" `Quick test_stats_counters;
        ] );
      ( "properties",
        [
          Th.prop prop_kcore_invariants;
          Th.prop prop_strategies_agree;
          Th.prop prop_decompose_strategies_domain_matrix;
          Th.prop prop_decompose_matches_two_step;
          Th.prop prop_k_core_matches_two_step;
          Th.prop prop_onepass_matches_iterated;
          Th.prop prop_cores_nested;
          Th.prop prop_idempotent;
          Th.prop prop_decompose_consistent_with_kcore;
          Alcotest.test_case "core profile" `Quick test_core_profile;
          Th.prop prop_core_profile_monotone;
          Th.prop prop_agrees_with_graph_core;
          Th.prop prop_parallel_init_agrees;
          Th.prop prop_overlap_init_domain_invariant;
          Th.prop prop_decompose_domain_invariant;
          Alcotest.test_case "parallel on the yeast instance" `Quick
            test_parallel_on_real_instance;
          Alcotest.test_case "scratch aliasing across instances" `Quick
            test_scratch_aliasing;
          Alcotest.test_case "peel_rounds deadline" `Quick test_peel_rounds_deadline;
          Th.prop prop_max_core_nonempty;
          Th.prop prop_max_core_matches_kcore;
          Alcotest.test_case "canonical edge identity" `Quick
            test_max_core_canonical_edges;
          Alcotest.test_case "duplicate complexes" `Quick
            test_max_core_duplicate_complexes;
          Alcotest.test_case "core_of_decomposition negative k" `Quick
            test_core_of_decomposition_negative_k;
          Th.prop prop_core_of_decomposition_matches_kcore;
        ] );
    ]
