(* Differential suite for incremental k-core maintenance
   (Hypergraph_maintain): replay randomized and adversarial mutation
   schedules through a maintainer and assert, after EVERY mutation,
   that the maintained decomposition is bit-identical to a full
   one-pass re-peel of the current hypergraph, whichever rung of the
   repair ladder (subcore cascade, else full re-peel) served it.
   Schedule families:

   - default budget: small graphs, so no repair may blow the budget
     (structural bails still take the full re-peel);
   - adversarial budget (1): the band analysis itself is budget-free,
     so the answers must stay bit-identical while any region walk
     that starts blows the budget and is counted in budget_fallbacks;
   - clique-of-complexes: one giant dense overlap component, where
     the cascade must stay correct (and mostly local) through targeted
     mutation bursts;
   - empty-hyperedge schedules: empty edges are a whole-hypergraph
     property in Hypergraph_reduce, so their presence must force the
     re-peel path until they are deleted again;
   - batched application: the same schedules chopped into bursts
     applied via apply_batch (one cascade per burst — the WAL-replay
     and rewiring path), including the whole schedule as one batch.

   The generator is the WAL crash suite's: valid by construction, so
   every prefix is a reachable server state.  Final states are also
   cross-checked against decompose at 1, 2 and 7 domains.  After every
   mutation the maintainer's overlap graph, advanced to the current
   hypergraph, must equal a fresh count of it at 1, 2 and 7 domains.
   Each re-peel reason (a new complex containing a live one, a
   deletion resurfacing a contained complex, a band floor of 0, an
   entangled burst, a member created in the same burst, an empty
   hyperedge, a blown budget) also has a hand-built case pinning it
   to exactly one full re-peel counted under that reason. *)

module W = Hp_wal.Wal
module L = Hp_wal.Live
module H = Hp_hypergraph.Hypergraph
module HIO = Hp_hypergraph.Hypergraph_io
module HC = Hp_hypergraph.Hypergraph_core
module HM = Hp_hypergraph.Hypergraph_maintain
module Prng = Hp_util.Prng

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let base_text = "# inc base\nc1: a b c\nc2: b c d\nc3: c d e\n"

let gen_ops rng ~nv0 ~ne0 ?(empty_every = 0) n =
  let nv = ref nv0 and ne = ref ne0 in
  List.init n (fun i ->
      let pick = Prng.int rng 10 in
      if empty_every > 0 && i mod empty_every = empty_every - 1 then begin
        incr ne;
        W.Add_edge { name = Printf.sprintf "e%d" i; members = [||] }
      end
      else if pick < 4 then begin
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

(* The graph the next re-peel starts from must be the one a fresh
   count of the current hypergraph builds, at any domain count. *)
let assert_overlap name maint =
  let g = HM.overlap maint in
  List.iter
    (fun d ->
      checkb
        (Printf.sprintf "%s: kept overlap graph at %d domains" name d)
        true
        (HC.equal_overlap g (HC.overlap_graph ~domains:d (HM.hypergraph maint))))
    [ 1; 2; 7 ]

let assert_maintained name maint after =
  assert_overlap name maint;
  let got = HM.decomposition maint in
  let want = HC.decompose ~domains:1 after in
  checkb (name ^ ": hypergraph") true
    (H.equal_structure (HM.hypergraph maint) after);
  check (name ^ ": max core") want.HC.max_core got.HC.max_core;
  Alcotest.(check (array int))
    (name ^ ": vertex cores") want.HC.vertex_core got.HC.vertex_core;
  Alcotest.(check (array int))
    (name ^ ": edge cores") want.HC.edge_core got.HC.edge_core

(* The maintained answer must also agree with the parallel-built
   decompositions — the 1/2/7-domain cross-check. *)
let assert_domains name maint =
  let got = HM.decomposition maint in
  let h = HM.hypergraph maint in
  List.iter
    (fun d ->
      let want = HC.decompose ~domains:d h in
      Alcotest.(check (array int))
        (Printf.sprintf "%s: vertex cores at %d domains" name d)
        want.HC.vertex_core got.HC.vertex_core;
      Alcotest.(check (array int))
        (Printf.sprintf "%s: edge cores at %d domains" name d)
        want.HC.edge_core got.HC.edge_core)
    [ 1; 2; 7 ]

(* Every re-peel is counted under exactly one reason. *)
let assert_reasons_sum name maint =
  let s = HM.stats maint in
  check (name ^ ": re-peels by reason sum to the re-peels") s.HM.full_repeels
    (List.fold_left (fun acc r -> acc + HM.repeels s r) 0 HM.reasons)

(* Replay [ops] through one maintainer, checking bit-identity after
   every mutation; returns the maintainer for stats assertions. *)
let replay ?budget ?(base = HIO.of_string base_text) name ops =
  let live = L.of_hypergraph base in
  let maint = HM.create ?budget base in
  assert_maintained (name ^ " op -1") maint base;
  List.iteri
    (fun i op ->
      (match L.apply live op with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "%s op %d: %s" name i m);
      let after = L.to_hypergraph live in
      (match op with
      | W.Add_vertex _ -> ignore (HM.add_vertex maint ~after)
      | W.Add_edge _ -> ignore (HM.add_edge maint ~after)
      | W.Del_edge { edge } -> ignore (HM.del_edge maint ~after ~edge));
      assert_maintained (Printf.sprintf "%s op %d" name i) maint after)
    ops;
  assert_reasons_sum name maint;
  maint

let op_shape = function
  | W.Add_vertex _ -> HM.Op_add_vertex
  | W.Add_edge _ -> HM.Op_add_edge
  | W.Del_edge { edge } -> HM.Op_del_edge edge

(* Replay [ops] in bursts of [chunk], applying each burst through
   Live op-by-op but repairing once via apply_batch. *)
let replay_batched ?budget ?(base = HIO.of_string base_text) name ~chunk ops =
  let live = L.of_hypergraph base in
  let maint = HM.create ?budget base in
  let rec take k = function
    | [] -> ([], [])
    | rest when k = 0 -> ([], rest)
    | op :: rest ->
      let burst, tail = take (k - 1) rest in
      (op :: burst, tail)
  in
  let rec go i ops =
    match take chunk ops with
    | [], _ -> ()
    | burst, tail ->
      List.iteri
        (fun j op ->
          match L.apply live op with
          | Ok _ -> ()
          | Error m -> Alcotest.failf "%s burst %d op %d: %s" name i j m)
        burst;
      let after = L.to_hypergraph live in
      ignore (HM.apply_batch maint ~after ~ops:(List.map op_shape burst));
      assert_maintained (Printf.sprintf "%s burst %d" name i) maint after;
      go (i + 1) tail
  in
  go 0 ops;
  assert_reasons_sum name maint;
  maint

let test_randomized_schedules () =
  let casc = ref 0 and full = ref 0 in
  for i = 0 to 99 do
    let rng = Prng.create (0x14C0 + i) in
    let n = 16 + Prng.int rng 17 in
    let ops = gen_ops rng ~nv0:5 ~ne0:3 n in
    let m_sub = replay (Printf.sprintf "subcore %d" i) ops in
    casc := !casc + (HM.stats m_sub).HM.cascade_repairs;
    full := !full + (HM.stats m_sub).HM.full_repeels;
    (* The graphs are far smaller than the default budget, so no
       re-peel may be a budget fallback. *)
    check "subcore: no fallback below budget" 0
      (HM.stats m_sub).HM.budget_fallbacks;
    if i mod 10 = 0 then assert_domains (Printf.sprintf "subcore %d" i) m_sub
  done;
  Printf.printf "randomized schedules: %d cascades, %d full re-peels\n%!"
    !casc !full;
  checkb "cascades happened" true (!casc > 0)

let test_adversarial_budget () =
  (* Budget 1: the seed alone exhausts the frontier.  The band
     analysis costs no budget, so only the repairs that actually start
     a region walk fall back; identity is asserted per-op by [replay]
     and the fallback counter must fire. *)
  let fallbacks = ref 0 in
  for i = 0 to 19 do
    let rng = Prng.create (0xB1DE + i) in
    let n = 12 + Prng.int rng 9 in
    let ops = gen_ops rng ~nv0:5 ~ne0:3 n in
    let m_sub = replay ~budget:1 (Printf.sprintf "budget-1 sub %d" i) ops in
    fallbacks := !fallbacks + (HM.stats m_sub).HM.budget_fallbacks
  done;
  checkb "subcore: budget fallbacks fired" true (!fallbacks > 0)

(* One giant dense overlap component: [nc] complexes of size [k] laid
   around a ring of [nv] proteins with heavy pairwise overlap (stride
   smaller than k), so every hyperedge is overlap-connected to the
   whole structure. *)
let clique_of_complexes ~nv ~nc ~k ~stride =
  let lines = Buffer.create 1024 in
  for v = 0 to nv - 1 do
    Buffer.add_string lines (Printf.sprintf "vertex p%d\n" v)
  done;
  for c = 0 to nc - 1 do
    Buffer.add_string lines (Printf.sprintf "cx%d:" c);
    for j = 0 to k - 1 do
      Buffer.add_string lines (Printf.sprintf " p%d" ((c * stride + j) mod nv))
    done;
    Buffer.add_char lines '\n'
  done;
  HIO.of_string (Buffer.contents lines)

let gen_dense_ops rng ~nv ~ne0 n =
  (* Mutation bursts aimed at the dense region: added complexes reuse
     ring vertices, deletions strike anywhere (including the dense
     originals). *)
  let ne = ref ne0 in
  List.init n (fun i ->
      let pick = Prng.int rng 10 in
      if pick < 6 || !ne = 0 then begin
        let k = 3 + Prng.int rng 4 in
        let start = Prng.int rng nv in
        let members = Array.init k (fun j -> (start + j) mod nv) in
        incr ne;
        W.Add_edge { name = Printf.sprintf "mx%d" i; members }
      end
      else begin
        decr ne;
        W.Del_edge { edge = Prng.int rng (!ne + 1) }
      end)

let test_clique_of_complexes () =
  let base = clique_of_complexes ~nv:40 ~nc:40 ~k:6 ~stride:1 in
  let casc = ref 0 in
  for i = 0 to 9 do
    let rng = Prng.create (0xC11E + i) in
    let ops = gen_dense_ops rng ~nv:40 ~ne0:40 (20 + Prng.int rng 11) in
    let m_sub = replay ~base (Printf.sprintf "clique sub %d" i) ops in
    casc := !casc + (HM.stats m_sub).HM.cascade_repairs;
    check "clique subcore: no fallback" 0
      (HM.stats m_sub).HM.budget_fallbacks;
    if i mod 5 = 0 then assert_domains (Printf.sprintf "clique %d" i) m_sub
  done;
  checkb "cascades fired on the giant component" true (!casc > 0)

let test_empty_edge_schedules () =
  (* An empty hyperedge's survival is decided against the WHOLE
     hypergraph, so schedules that keep inserting them must force the
     re-peel path — and stay correct throughout. *)
  let repeels = ref 0 in
  for i = 0 to 9 do
    let rng = Prng.create (0xE4417 + i) in
    let n = 12 + Prng.int rng 9 in
    let ops = gen_ops rng ~nv0:5 ~ne0:3 ~empty_every:4 n in
    let maint = replay (Printf.sprintf "empty-edge %d" i) ops in
    repeels := !repeels + (HM.stats maint).HM.full_repeels
  done;
  checkb "empty edges forced re-peels" true (!repeels > 0)

let test_batched_application () =
  (* The same randomized schedules, applied in bursts through
     apply_batch: bit-identity after every burst, across burst sizes
     from single ops to the whole schedule as one batch (the
     WAL-replay recovery shape). *)
  let casc = ref 0 in
  for i = 0 to 39 do
    let rng = Prng.create (0xBA7C + i) in
    let n = 16 + Prng.int rng 17 in
    let ops = gen_ops rng ~nv0:5 ~ne0:3 n in
    let chunk = 1 + Prng.int rng 8 in
    let m =
      replay_batched (Printf.sprintf "batched %d (chunk %d)" i chunk) ~chunk
        ops
    in
    casc := !casc + (HM.stats m).HM.cascade_repairs;
    let m1 =
      replay_batched (Printf.sprintf "one-batch %d" i) ~chunk:(List.length ops)
        ops
    in
    if i mod 10 = 0 then assert_domains (Printf.sprintf "batched %d" i) m1
  done;
  (* Dense bursts over the giant component, including empty-edge
     bursts that must force the batch onto the re-peel path. *)
  let base = clique_of_complexes ~nv:40 ~nc:40 ~k:6 ~stride:1 in
  for i = 0 to 4 do
    let rng = Prng.create (0xBA7D + i) in
    let ops = gen_dense_ops rng ~nv:40 ~ne0:40 (20 + Prng.int rng 11) in
    ignore
      (replay_batched ~base (Printf.sprintf "batched clique %d" i) ~chunk:5 ops)
  done;
  for i = 0 to 4 do
    let rng = Prng.create (0xBA7E + i) in
    let n = 12 + Prng.int rng 9 in
    let ops = gen_ops rng ~nv0:5 ~ne0:3 ~empty_every:4 n in
    ignore (replay_batched (Printf.sprintf "batched empty %d" i) ~chunk:4 ops)
  done;
  checkb "batched cascades happened" true (!casc > 0)

(* A burst with no sound band floor: the cascade must bail to exactly
   one full re-peel, counted under [reason] and no other, and stay
   bit-identical. *)
let assert_bail ?budget name ~base ~reason ops =
  let live = L.of_hypergraph base in
  let maint = HM.create ?budget base in
  List.iter
    (fun op ->
      match L.apply live op with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "%s: %s" name m)
    ops;
  let after = L.to_hypergraph live in
  let outcome = HM.apply_batch maint ~after ~ops:(List.map op_shape ops) in
  checkb
    (Printf.sprintf "%s: re-peel for %s" name (HM.reason_name reason))
    true (outcome = HM.Repeel reason);
  let s = HM.stats maint in
  check (name ^ ": one full re-peel") 1 s.HM.full_repeels;
  List.iter
    (fun r ->
      check
        (Printf.sprintf "%s: %s re-peels" name (HM.reason_name r))
        (if r = reason then 1 else 0)
        (HM.repeels s r))
    HM.reasons;
  assert_maintained name maint after

let test_add_swallow_bail () =
  (* The new complex {0,1,2,3} strictly contains the live {0,1,2} and
     {1,2,3}: it swallows them at reduction, so no floor is sound. *)
  let base = H.create ~n_vertices:5 [ [ 0; 1; 2 ]; [ 1; 2; 3 ]; [ 2; 3; 4 ] ] in
  assert_bail "add-swallow" ~base ~reason:HM.Swallow
    [ W.Add_edge { name = "big"; members = [| 0; 1; 2; 3 |] } ]

let test_resurface_bail () =
  (* {1,2} is non-maximal inside {0,1,2,3}; deleting the container
     resurfaces it at reduction. *)
  let base = H.create ~n_vertices:5 [ [ 0; 1; 2; 3 ]; [ 1; 2 ]; [ 2; 3; 4 ] ] in
  assert_bail "resurface" ~base ~reason:HM.Resurface [ W.Del_edge { edge = 0 } ]

let test_zero_floor_bail () =
  (* Vertices 5 and 6 are isolated (core 0), so an edge over them has
     band floor 0: nothing below it is provably unchanged. *)
  let base = H.create ~n_vertices:7 [ [ 0; 1; 2 ]; [ 1; 2; 3 ]; [ 2; 3; 4 ] ] in
  assert_bail "zero floor" ~base ~reason:HM.Zero_floor
    [ W.Add_edge { name = "iso"; members = [| 5; 6 |] } ]

let test_other_bail_reasons () =
  (* Two triangles of complexes: every vertex sits at core 2, so no
     floor reaches 0 before the reason under test shows. *)
  let base =
    H.create ~n_vertices:6
      [ [ 0; 1; 2 ]; [ 1; 2; 3 ]; [ 0; 2; 3 ]; [ 3; 4; 5 ]; [ 2; 4; 5 ] ]
  in
  assert_bail "entangled" ~base ~reason:HM.Entangled
    [ W.Add_edge { name = "tmp"; members = [| 0; 1 |] }; W.Del_edge { edge = 5 } ];
  assert_bail "new member" ~base ~reason:HM.New_member
    [
      W.Add_vertex { name = "fresh" };
      W.Add_edge { name = "over-fresh"; members = [| 1; 6 |] };
    ];
  assert_bail "empty added" ~base ~reason:HM.Empty_edge
    [ W.Add_edge { name = "empty"; members = [||] } ];
  assert_bail "empty present"
    ~base:(H.create ~n_vertices:4 [ [ 0; 1; 2 ]; [ 1; 2; 3 ]; [] ])
    ~reason:HM.Empty_edge [ W.Del_edge { edge = 0 } ];
  (* Budget 1: the region walk of a cascade that would otherwise go on
     blows at its second visit. *)
  assert_bail ~budget:1 "budget" ~base ~reason:HM.Budget
    [ W.Add_edge { name = "cross"; members = [| 1; 4 |] } ]

let test_isolating_delete () =
  (* DELEDGE of the last hyperedge containing a vertex: the vertex
     survives at degree 0 and every maintained answer must match a
     fresh parse of the equivalent dataset. *)
  let base = HIO.of_string "only: a b\nc2: b c\n" in
  let live = L.of_hypergraph base in
  let maint = HM.create base in
  (match L.apply live (W.Del_edge { edge = 0 }) with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  let after = L.to_hypergraph live in
  ignore (HM.del_edge maint ~after ~edge:0);
  assert_maintained "isolating delete" maint after;
  check "vertex a survives" 3 (H.n_vertices after);
  check "degree 0" 0 (H.vertex_degree after 0);
  let fresh = HIO.of_string "c2: b c\nvertex a\n" in
  let da = HC.decompose ~domains:1 fresh in
  let dm = HM.decomposition maint in
  check "max core matches fresh parse" da.HC.max_core dm.HC.max_core;
  (* Same multiset of core numbers; ids differ (parse orders vertices
     by first mention). *)
  let sorted a = List.sort compare (Array.to_list a) in
  checkb "vertex core multiset" true
    (sorted da.HC.vertex_core = sorted dm.HC.vertex_core)

let test_grow_from_empty () =
  (* A maintainer over the empty hypergraph, grown one op at a time —
     the ADDVERTEX fast path and first-edge transitions. *)
  let base = H.create ~n_vertices:0 [] in
  let live = L.of_hypergraph base in
  let maint = HM.create base in
  let ops =
    [
      W.Add_vertex { name = "a" };
      W.Add_vertex { name = "b" };
      W.Add_edge { name = "e0"; members = [| 0; 1 |] };
      W.Add_vertex { name = "c" };
      W.Add_edge { name = "e1"; members = [| 1; 2 |] };
      W.Add_edge { name = "e2"; members = [| 0; 2 |] };
      W.Del_edge { edge = 1 };
    ]
  in
  List.iteri
    (fun i op ->
      (match L.apply live op with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "grow op %d: %s" i m);
      let after = L.to_hypergraph live in
      (match op with
      | W.Add_vertex _ -> ignore (HM.add_vertex maint ~after)
      | W.Add_edge _ -> ignore (HM.add_edge maint ~after)
      | W.Del_edge { edge } -> ignore (HM.del_edge maint ~after ~edge));
      assert_maintained (Printf.sprintf "grow op %d" i) maint after)
    ops;
  let s = HM.stats maint in
  checkb "no budget fallback" true (s.HM.budget_fallbacks = 0)

let test_vertex_burst () =
  (* A burst of vertex appends alone repairs in O(1), as one cascade
     whose region is the appended vertices, even beside an empty
     hyperedge (which sends every other burst to the re-peel).
     ADDVERTEX is its one-op case. *)
  let base = H.create ~n_vertices:4 [ [ 0; 1; 2 ]; [ 1; 2; 3 ]; [] ] in
  let live = L.of_hypergraph base in
  let maint = HM.create base in
  let append names =
    List.iter
      (fun name ->
        match L.apply live (W.Add_vertex { name }) with
        | Ok _ -> ()
        | Error m -> Alcotest.failf "append %s: %s" name m)
      names;
    L.to_hypergraph live
  in
  let after = append [ "x"; "y"; "z" ] in
  checkb "burst of 3 is Cascade 3" true
    (HM.apply_batch maint ~after ~ops:(List.init 3 (fun _ -> HM.Op_add_vertex))
    = HM.Cascade 3);
  assert_maintained "burst of 3" maint after;
  let after = append [ "w" ] in
  checkb "ADDVERTEX is Cascade 1" true (HM.add_vertex maint ~after = HM.Cascade 1);
  assert_maintained "one vertex" maint after;
  let s = HM.stats maint in
  check "one cascade per burst" 2 s.HM.cascade_repairs;
  check "region: the appended vertices" 4 s.HM.repair_visited;
  check "no re-peel" 0 s.HM.full_repeels

let () =
  Alcotest.run "hp_kcore_inc"
    [
      ( "incremental maintenance",
        [
          Alcotest.test_case "100 randomized schedules" `Slow
            test_randomized_schedules;
          Alcotest.test_case "adversarial budget forces re-peel" `Quick
            test_adversarial_budget;
          Alcotest.test_case "clique of complexes" `Slow
            test_clique_of_complexes;
          Alcotest.test_case "empty hyperedges force re-peel" `Quick
            test_empty_edge_schedules;
          Alcotest.test_case "batched application" `Slow
            test_batched_application;
          Alcotest.test_case "add-swallow bails to one re-peel" `Quick
            test_add_swallow_bail;
          Alcotest.test_case "resurface bails to one re-peel" `Quick
            test_resurface_bail;
          Alcotest.test_case "zero floor bails to one re-peel" `Quick
            test_zero_floor_bail;
          Alcotest.test_case "every other re-peel reason" `Quick
            test_other_bail_reasons;
          Alcotest.test_case "isolating delete" `Quick test_isolating_delete;
          Alcotest.test_case "grow from empty" `Quick test_grow_from_empty;
          Alcotest.test_case "vertex burst is one O(1) cascade" `Quick
            test_vertex_burst;
        ] );
    ]
