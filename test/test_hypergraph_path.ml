(* Tests for hypergraph paths, distances, and connectivity (paper
   Section 1.3 / Section 2). *)

module H = Hp_hypergraph.Hypergraph
module HP = Hp_hypergraph.Hypergraph_path
module HC = Hp_hypergraph.Hypergraph_convert
module GA = Hp_graph.Graph_algo
module U = Hp_util

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* A chain of three complexes: {0,1} {1,2} {2,3}, plus {4} isolated in
   its own complex and vertex 5 in no complex. *)
let chain () = H.create ~n_vertices:6 [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 4 ] ]

(* The sweep oracle: fold the plain per-source [HP.bfs] over [sources]
   into (sum of finite distances to other vertices, ordered pairs,
   max distance), then average exactly as the sweeps do. *)
let oracle h sources =
  let sum, pairs, dmax =
    Array.fold_left
      (fun acc src ->
        Array.fold_left
          (fun (sum, pairs, dmax) d ->
            if d > 0 then (sum + d, pairs + 1, max dmax d) else (sum, pairs, dmax))
          acc (HP.bfs h src))
      (0, 0, 0) sources
  in
  (dmax, if pairs = 0 then 0.0 else float_of_int sum /. float_of_int pairs)

let all_sources h = Array.init (H.n_vertices h) Fun.id

(* The sampled sweep's documented draw: [samples] successive
   [Prng.int rng n] calls. *)
let drawn_sources ~seed h ~samples =
  let rng = U.Prng.create seed in
  Array.init samples (fun _ -> U.Prng.int rng (H.n_vertices h))

let word = Sys.int_size

(* Exact and sampled sweeps at domains 1, 2 and 7 against the oracle.
   Equality is exact: the sweeps expose the integer sum and pair
   count only through their quotient, which matches bit for bit or
   not at all. *)
let sweeps_match_oracle ?(seed = 11) ?(samples = (2 * word) + 3) h =
  let exact = oracle h (all_sources h) in
  let sampled =
    if H.n_vertices h = 0 then (0, 0.0) else oracle h (drawn_sources ~seed h ~samples)
  in
  List.for_all
    (fun domains ->
      HP.diameter_and_average_path ~domains h = exact
      && HP.sampled_diameter_and_average_path ~domains (U.Prng.create seed) h ~samples
         = sampled)
    [ 1; 2; 7 ]

(* [n] vertices: a chain over the first half (long distances), one
   wide complex over the next quarter, a duplicate of the first chain
   link, an empty hyperedge, and isolated vertices after that. *)
let mixed n =
  let half = n / 2 in
  let chain = List.init (max 0 (half - 1)) (fun i -> [ i; i + 1 ]) in
  let wide = List.init (n / 4) (fun i -> half + i) in
  let dup = match chain with link :: _ -> [ link ] | [] -> [] in
  H.create ~n_vertices:n (chain @ [ wide; [] ] @ dup)

let test_bfs_chain () =
  let h = chain () in
  Alcotest.(check (array int)) "distances from 0" [| 0; 1; 2; 3; -1; -1 |] (HP.bfs h 0);
  Alcotest.(check (option int)) "distance 0-3" (Some 3) (HP.distance h 0 3);
  Alcotest.(check (option int)) "same complex" (Some 1) (HP.distance h 0 1);
  Alcotest.(check (option int)) "self" (Some 0) (HP.distance h 2 2);
  Alcotest.(check (option int)) "unreachable" None (HP.distance h 0 4)

let test_components () =
  let h = chain () in
  let vlabel, elabel, count = HP.components h in
  check "components" 3 count;
  checkb "chain vertices together" true
    (vlabel.(0) = vlabel.(3) && vlabel.(0) = vlabel.(1));
  checkb "edge labels follow members" true (elabel.(0) = vlabel.(0));
  checkb "isolated complex separate" true (vlabel.(4) <> vlabel.(0));
  checkb "isolated vertex separate" true
    (vlabel.(5) <> vlabel.(0) && vlabel.(5) <> vlabel.(4));
  check "n_components" 3 (HP.n_components h)

let test_component_summary () =
  let h = chain () in
  Alcotest.(check (array (pair int int))) "summary sorted"
    [| (4, 3); (1, 1); (1, 0) |]
    (HP.component_summary h)

let test_largest_component () =
  let h = chain () in
  let sub, vids, eids = HP.largest_component h in
  check "vertices" 4 (H.n_vertices sub);
  check "edges" 3 (H.n_edges sub);
  Alcotest.(check (array int)) "vertex ids" [| 0; 1; 2; 3 |] vids;
  Alcotest.(check (array int)) "edge ids" [| 0; 1; 2 |] eids

let test_diameter () =
  let h = chain () in
  let diam, apl = HP.diameter_and_average_path h in
  check "diameter" 3 diam;
  (* Chain distances (ordered pairs, both directions): 1,2,3,1,2,1 each
     twice -> mean 10/6. *)
  Alcotest.(check (float 1e-9)) "average path" (10.0 /. 6.0) apl

let test_empty_edge_component () =
  let h = H.create ~n_vertices:1 [ []; [ 0 ] ] in
  check "empty hyperedge is its own component" 2 (HP.n_components h)

let test_sampled () =
  let rng = U.Prng.create 2 in
  let h = chain () in
  let dmax, avg = HP.sampled_diameter_and_average_path rng h ~samples:30 in
  checkb "sampled diameter bounded" true (dmax <= 3);
  checkb "sampled average positive" true (avg > 0.0)

let test_sampled_domains_agree () =
  let ds = Hp_data.Cellzome.generate ~seed:2004 () in
  let sweep domains =
    HP.sampled_diameter_and_average_path ~domains (U.Prng.create 7) ds.hypergraph
      ~samples:40
  in
  Alcotest.(check (pair int (float 1e-9)))
    "sampled sweep identical across domain counts" (sweep 1) (sweep 4)

let test_sampled_deadline_abort () =
  let ds = Hp_data.Cellzome.generate ~seed:2004 () in
  (* An already-blown budget (stride 1: every check reads the clock)
     must abort the sampled sweep instead of running it to completion
     — this used to be impossible because the sweep hardcoded
     [Deadline.never]. *)
  let deadline = U.Deadline.after ~stride:1 1e-9 in
  Unix.sleepf 0.002;
  let stats = HP.sweep_stats () in
  (match
     HP.sampled_diameter_and_average_path ~deadline ~stats (U.Prng.create 7)
       ds.hypergraph ~samples:200
   with
  | _ -> Alcotest.fail "expired deadline should abort the sampled sweep"
  | exception U.Deadline.Expired -> ());
  checkb "aborted before finishing every source" true
    (HP.sources_visited stats < 200)

let test_sweep_stats_counts_sources () =
  let h = chain () in
  let stats = HP.sweep_stats () in
  let _ = HP.diameter_and_average_path ~stats h in
  check "one BFS per vertex" (H.n_vertices h) (HP.sources_visited stats);
  let _ = HP.sampled_diameter_and_average_path ~stats (U.Prng.create 3) h ~samples:11 in
  check "sampled sources accumulate" (H.n_vertices h + 11) (HP.sources_visited stats)

let test_sweeps_match_oracle_at_word_edges () =
  (* Pass boundaries: no pass, a partial pass, exactly one full pass,
     one source spilling into a second pass, and 2w+1. *)
  List.iter
    (fun n ->
      checkb (Printf.sprintf "%d vertices" n) true (sweeps_match_oracle (mixed n)))
    [ 0; 1; word - 1; word; word + 1; (2 * word) + 1 ];
  checkb "no vertices, one empty hyperedge" true
    (sweeps_match_oracle (H.create ~n_vertices:0 [ [] ]));
  checkb "isolated vertices only" true
    (sweeps_match_oracle (H.create ~n_vertices:(word + 5) [ []; [] ]));
  checkb "chain with stragglers" true (sweeps_match_oracle (chain ()))

let test_repeated_sources_in_one_pass () =
  (* Three vertices and 2w+1 samples: a full pass of w draws holds
     some vertex many times.  Each draw is its own source, so a
     repeated vertex must own one bit per draw (OR-ed in) —
     overwriting would count it once. *)
  let h = H.create ~n_vertices:3 [ [ 0; 1 ]; [ 1; 2 ] ] in
  let samples = (2 * word) + 1 in
  checkb "sampled sweep equals the per-draw oracle" true
    (sweeps_match_oracle ~seed:5 ~samples h);
  let stats = HP.sweep_stats () in
  ignore (HP.sampled_diameter_and_average_path ~stats (U.Prng.create 5) h ~samples);
  check "every draw counted" samples (HP.sources_visited stats)

let test_cancel_aborts_single_pass () =
  (* One pass of [word] sampled sources on a 100k-vertex chain runs for
     tens of thousands of levels.  A cancel from another domain must
     stop it at a level check, before the pass completes. *)
  let n = 100_000 in
  let h = H.create ~n_vertices:n (List.init (n - 1) (fun i -> [ i; i + 1 ])) in
  let deadline = U.Deadline.after 3600.0 in
  let canceller =
    Domain.spawn (fun () ->
        Unix.sleepf 0.002;
        U.Deadline.cancel deadline)
  in
  let stats = HP.sweep_stats () in
  let aborted =
    match
      HP.sampled_diameter_and_average_path ~deadline ~stats (U.Prng.create 1) h
        ~samples:word
    with
    | _ -> false
    | exception U.Deadline.Expired -> true
  in
  Domain.join canceller;
  checkb "cancel aborts the pass" true aborted;
  check "the aborted pass is not counted" 0 (HP.sources_visited stats);
  (* The abort left this domain's arena dirty; the next pass must not
     see it. *)
  Alcotest.(check (pair int (float 0.0)))
    "a pass after the abort equals the oracle"
    (oracle h (drawn_sources ~seed:1 h ~samples:word))
    (HP.sampled_diameter_and_average_path (U.Prng.create 1) h ~samples:word)

let test_failpoint_once_per_pass () =
  U.Fault.arm "path.bfs" (U.Fault.Sleep_ms 0);
  Fun.protect ~finally:U.Fault.reset @@ fun () ->
  ignore (HP.diameter_and_average_path ~domains:2 (mixed ((2 * word) + 1)));
  check "three passes, three hits" 3 (U.Fault.hits "path.bfs")

let prop_parallel_diameter_agrees =
  QCheck.Test.make ~name:"diameter: multi-domain sweep agrees with sequential"
    ~count:100 (Th.arbitrary_hypergraph ())
    (fun h ->
      HP.diameter_and_average_path ~domains:1 h
      = HP.diameter_and_average_path ~domains:3 h)

let prop_exact_sweep_domain_invariant =
  (* The required invariance set: 1 (sequential), 2 (even split), 7
     (odd split exercising the remainder-first chunking) — each against
     the per-source [bfs] oracle, for the exact sweep and for a sampled
     one whose 40 draws over at most 10 vertices repeat. *)
  QCheck.Test.make ~name:"diameter: identical at domains 1, 2 and 7" ~count:100
    (Th.arbitrary_hypergraph ())
    (fun h -> sweeps_match_oracle ~samples:40 h)

let test_scratch_aliasing () =
  (* Sweeps over graphs of different sizes interleaved on one domain
     share its word arena: the larger graph grows it mid-stream, and
     the smaller one then runs on a stale, oversized arena whose tail
     it never clears.  Every sweep must still equal the oracle. *)
  let small = mixed (word + 1) in
  let large = (Hp_data.Cellzome.generate ~seed:2004 ()).hypergraph in
  let exact h = HP.diameter_and_average_path ~domains:1 h in
  let sampled h =
    HP.sampled_diameter_and_average_path ~domains:1 (U.Prng.create 9) h ~samples:70
  in
  let expect h =
    (oracle h (all_sources h), oracle h (drawn_sources ~seed:9 h ~samples:70))
  in
  let small_expected = expect small and large_expected = expect large in
  List.iteri
    (fun i (h, expected) ->
      Alcotest.(check (pair (pair int (float 0.0)) (pair int (float 0.0))))
        (Printf.sprintf "sweep %d equals the oracle" i)
        expected
        (exact h, sampled h))
    [ (small, small_expected); (large, large_expected); (small, small_expected);
      (large, large_expected); (small, small_expected) ];
  Alcotest.(check (array int)) "bfs unaffected by the sweeps"
    [| 0; 1; 2; 3; -1; -1 |] (HP.bfs (chain ()) 0)

let test_parallel_diameter_real () =
  let ds = Hp_data.Cellzome.generate ~seed:2004 () in
  Alcotest.(check (pair int (float 1e-9)))
    "yeast sweep identical across domain counts"
    (HP.diameter_and_average_path ~domains:1 ds.hypergraph)
    (HP.diameter_and_average_path ~domains:4 ds.hypergraph)

let prop_distance_symmetric =
  QCheck.Test.make ~name:"hypergraph distance is symmetric" ~count:150
    (Th.arbitrary_hypergraph ())
    (fun h ->
      let n = H.n_vertices h in
      let ok = ref true in
      for u = 0 to n - 1 do
        let du = HP.bfs h u in
        for v = 0 to n - 1 do
          if (HP.bfs h v).(u) <> du.(v) then ok := false
        done
      done;
      !ok)

let prop_distance_matches_bipartite =
  (* Hypergraph distance counts hyperedges, i.e. exactly half the hop
     distance in the bipartite graph B(H). *)
  QCheck.Test.make ~name:"hypergraph distance = bipartite distance / 2" ~count:150
    (Th.arbitrary_hypergraph ())
    (fun h ->
      let b = HC.bipartite_graph h in
      let n = H.n_vertices h in
      let ok = ref true in
      for u = 0 to n - 1 do
        let dh = HP.bfs h u in
        let db = GA.bfs_distances b u in
        for v = 0 to n - 1 do
          let expected = if db.(v) < 0 then -1 else db.(v) / 2 in
          if dh.(v) <> expected then ok := false
        done
      done;
      !ok)

let prop_triangle_inequality =
  QCheck.Test.make ~name:"hypergraph distance satisfies triangle inequality"
    ~count:100 (Th.arbitrary_hypergraph ())
    (fun h ->
      let n = H.n_vertices h in
      let d = Array.init n (fun v -> HP.bfs h v) in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          for c = 0 to n - 1 do
            if d.(a).(b) >= 0 && d.(b).(c) >= 0 then
              if d.(a).(c) < 0 || d.(a).(c) > d.(a).(b) + d.(b).(c) then ok := false
          done
        done
      done;
      !ok)

let prop_components_consistent =
  QCheck.Test.make ~name:"components agree with reachability" ~count:150
    (Th.arbitrary_hypergraph ())
    (fun h ->
      let vlabel, _, _ = HP.components h in
      let n = H.n_vertices h in
      let ok = ref true in
      for u = 0 to n - 1 do
        let d = HP.bfs h u in
        for v = 0 to n - 1 do
          let reachable = d.(v) >= 0 in
          if reachable <> (vlabel.(u) = vlabel.(v)) then ok := false
        done
      done;
      !ok)

let () =
  Alcotest.run "hp_hypergraph_path"
    [
      ( "known cases",
        [
          Alcotest.test_case "bfs chain" `Quick test_bfs_chain;
          Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "component summary" `Quick test_component_summary;
          Alcotest.test_case "largest component" `Quick test_largest_component;
          Alcotest.test_case "diameter and apl" `Quick test_diameter;
          Alcotest.test_case "empty hyperedge component" `Quick test_empty_edge_component;
          Alcotest.test_case "sampled stats" `Quick test_sampled;
          Alcotest.test_case "sampled multi-domain" `Quick test_sampled_domains_agree;
          Alcotest.test_case "sampled deadline abort" `Quick test_sampled_deadline_abort;
          Alcotest.test_case "sweep stats" `Quick test_sweep_stats_counts_sources;
          Alcotest.test_case "sweeps match oracle at word edges" `Quick
            test_sweeps_match_oracle_at_word_edges;
          Alcotest.test_case "repeated sources in one pass" `Quick
            test_repeated_sources_in_one_pass;
          Alcotest.test_case "cancel aborts a single pass" `Quick
            test_cancel_aborts_single_pass;
          Alcotest.test_case "path.bfs fires once per pass" `Quick
            test_failpoint_once_per_pass;
        ] );
      ( "properties",
        [
          Th.prop prop_parallel_diameter_agrees;
          Th.prop prop_exact_sweep_domain_invariant;
          Alcotest.test_case "scratch arena aliasing" `Quick test_scratch_aliasing;
          Alcotest.test_case "parallel yeast sweep" `Quick test_parallel_diameter_real;
          Th.prop prop_distance_symmetric;
          Th.prop prop_distance_matches_bipartite;
          Th.prop prop_triangle_inequality;
          Th.prop prop_components_consistent;
        ] );
    ]
