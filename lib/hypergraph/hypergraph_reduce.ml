module U = Hp_util
module H = Hypergraph

type pairs = { keys : int array; counts : int array; len : int }

(* Growable flat int buffer; one per domain chunk, so pushes are
   contention-free. *)
type buf = { mutable a : int array; mutable n : int }

let push b x =
  if b.n = Array.length b.a then begin
    let bigger = Array.make (2 * max 1 b.n) 0 in
    Array.blit b.a 0 bigger 0 b.n;
    b.a <- bigger
  end;
  b.a.(b.n) <- x;
  b.n <- b.n + 1

(* Sort-based pairwise-overlap counting: each domain chunk emits one
   flat buffer holding a key f*m+g (f<g) per shared vertex of the
   pair, the buffers are radix-sorted in parallel, and a k-way
   run-length merge yields each distinct pair with its multiplicity —
   the overlap count — in ascending key order.  No hashtables: the
   work is the paper's O(sum d(v)^2) preprocessing term plus O(P) sort
   passes over the P emitted keys. *)
let overlap_pairs ?(domains = 1) h =
  let m = H.n_edges h and nv = H.n_vertices h in
  (* Each chunk's buffer starts at its even share of the K emitted
     keys — exactly K when the fold runs as one chunk — so it rarely
     or never grows. *)
  let k = ref 0 in
  for v = 0 to nv - 1 do
    let d = H.vertex_degree h v in
    k := !k + (d * (d - 1) / 2)
  done;
  let chunks = max 1 (min (U.Parallel.effective_domains domains) nv) in
  let bufs =
    U.Parallel.fold_range ~domains ~n:nv
      ~create:(fun () -> [ { a = Array.make ((!k / chunks) + 1) 0; n = 0 } ])
      ~fold:(fun acc v ->
        let b = List.hd acc in
        let adj = H.vertex_edges h v in
        let d = Array.length adj in
        for i = 0 to d - 1 do
          let fi = adj.(i) * m in
          for j = i + 1 to d - 1 do
            push b (fi + adj.(j))
          done
        done;
        acc)
      ~combine:(fun a b -> a @ b)
    |> Array.of_list
  in
  (* Parallel per-buffer radix sort (each worker reuses its own
     domain-local Intsort scratch). *)
  U.Parallel.fold_range ~domains ~n:(Array.length bufs)
    ~create:(fun () -> ())
    ~fold:(fun () i -> U.Intsort.sort ~len:bufs.(i).n bufs.(i).a)
    ~combine:(fun () () -> ());
  let keys = { a = Array.make 1024 0; n = 0 } in
  let counts = { a = Array.make 1024 0; n = 0 } in
  U.Intsort.merge_runs
    (Array.map (fun b -> (b.a, b.n)) bufs)
    (fun key count ->
      push keys key;
      push counts count);
  { keys = keys.a; counts = counts.a; len = keys.n }

let overlaps h =
  let m = H.n_edges h in
  let p = overlap_pairs h in
  let acc = ref [] in
  for i = p.len - 1 downto 0 do
    acc := (p.keys.(i) / m, p.keys.(i) mod m, p.counts.(i)) :: !acc
  done;
  !acc

(* An empty hyperedge is contained in every other hyperedge, so one
   survives only in an all-empty input: the smallest id, 0. *)
let empty_survivor h =
  let m = H.n_edges h in
  let rec all_empty e = e = m || (H.edge_size h e = 0 && all_empty (e + 1)) in
  if m > 0 && all_empty 0 then 0 else -1

let non_maximal_edges h =
  let m = H.n_edges h in
  let doomed = Array.make m false in
  let keep_empty = empty_survivor h in
  for e = 0 to m - 1 do
    if H.edge_size h e = 0 && e <> keep_empty then doomed.(e) <- true
  done;
  let p = overlap_pairs h in
  for i = 0 to p.len - 1 do
    let f = p.keys.(i) / m and g = p.keys.(i) mod m and c = p.counts.(i) in
    let df = H.edge_size h f and dg = H.edge_size h g in
    if c = df && c = dg then
      (* Identical member sets: keep the smaller id (f < g). *)
      doomed.(g) <- true
    else if c = df && df < dg then doomed.(f) <- true
    else if c = dg && dg < df then doomed.(g) <- true
  done;
  let buf = U.Dynarray.create ~dummy:0 () in
  Array.iteri (fun e b -> if b then U.Dynarray.push buf e) doomed;
  U.Dynarray.to_array buf

let reduce h =
  let bad = non_maximal_edges h in
  let keep =
    U.Sorted.diff (Array.init (H.n_edges h) Fun.id) bad
  in
  let vertices = Array.init (H.n_vertices h) Fun.id in
  let h', _, emap = H.sub h ~vertices ~edges:keep in
  (h', emap)
