module U = Hp_util
module H = Hypergraph

type strategy = Overlap | Naive

type stats = {
  vertices_deleted : int;
  edges_deleted : int;
  maximality_checks : int;
  peel_rounds : int;
}

type result = {
  core : Hypergraph.t;
  vertex_ids : int array;
  edge_ids : int array;
  stats : stats;
}

(* ------------------------------------------------------------------ *)
(* Overlap bookkeeping.                                               *)

(* Flat CSR overlap graph: one node per hyperedge, one (symmetric)
   entry per overlapping pair.  [adj.(adj_off.(f) .. adj_off.(f+1)-1)]
   are f's partners in ascending id order; [ocount] holds the live
   shared-vertex count of the pair in BOTH directions, and [twin]
   maps a slot to its mirror in the partner's slice, so a symmetric
   count update is two array writes.  A pair whose count reaches 0 —
   or whose endpoint is deleted — has both slots zeroed and is skipped
   by every later scan; slices never shrink, "membership" is just
   [ocount > 0].  Invariant: [ocount.(s) > 0] implies both endpoints
   of the pair are alive ([delete_edge] zeroes the whole slice). *)
type csr = {
  adj_off : int array;  (* m+1 slice offsets *)
  adj : int array;      (* partner hyperedge ids, sorted per slice *)
  ocount : int array;   (* live overlap count per slot; 0 = dissolved *)
  twin : int array;     (* slot of the mirrored (g,f) entry *)
}

(* Mutable peeling state over the input hypergraph.  The peels
   below share it: the per-k algorithm of Figure 4 seeds a worklist
   with low-degree vertices, while the one-pass decomposition drains
   minimum-degree vertices from a heap.  They observe deletions
   through the [on_vertex_degree] / [on_edge_delete] hooks. *)
(* Incidence is read straight off the immutable CSR arrays
   ([H.vertex_edges] / [H.edge_members]) filtered through the alive
   flags: the alive members of edge e are exactly its static members
   whose [valive] flag still holds, and symmetrically for a vertex's
   alive incident edges.  (Deletion order makes this exact: a vertex's
   flag drops before its edges are rechecked, and an edge's flag drops
   before its members' degrees fall.) *)
type state = {
  h : H.t;                                (* static incidence (CSR arrays) *)
  valive : bool array;
  ealive : bool array;
  vdeg : int array;
  edeg : int array;
  overlap : csr option;                   (* [None] for [Naive] *)
  abuf : int array;                       (* [delete_vertex]'s scratch *)
  mutable on_vertex_degree : int -> unit; (* fires after a degree drop *)
  mutable on_edge_delete : int -> unit;
  mutable vdel : int;
  mutable edel : int;
  mutable checks : int;
}

(* Twin slots of a CSR whose slices are sorted: visiting each pair
   (f, g), f < g, in ascending f, g's slots for partners below g come
   up in slice order, so one cursor per slice pairs every slot with
   its mirror.  Shared by the two ways a graph is made: counted from
   scratch ([build_csr]) or advanced from the previous one
   ([advance_overlap]). *)
let link_twins ~adj_off ~adj ~twin =
  let m = Array.length adj_off - 1 in
  let pos = Array.sub adj_off 0 (max m 1) in
  for f = 0 to m - 1 do
    for s = adj_off.(f) to adj_off.(f + 1) - 1 do
      let g = adj.(s) in
      if g > f then begin
        let sg = pos.(g) in
        pos.(g) <- sg + 1;
        twin.(s) <- sg;
        twin.(sg) <- s
      end
    done
  done

(* Slice offsets from per-hyperedge partner counts. *)
let offsets deg m =
  let adj_off = Array.make (m + 1) 0 in
  for f = 0 to m - 1 do
    adj_off.(f + 1) <- adj_off.(f) + deg.(f)
  done;
  adj_off

(* CSR assembly from {!Hypergraph_reduce.overlap_pairs}: degree count,
   offset prefix sum, symmetric fill.  Pairs arrive in ascending key
   order, so every slice is appended in ascending partner order — for
   edge f the pairs (p, f) with p < f all sort before any (f, g) — and
   the slices support binary search with no per-slice sort. *)
let build_csr ~domains h =
  let m = H.n_edges h in
  let p = Hypergraph_reduce.overlap_pairs ~domains h in
  let deg = Array.make (max m 1) 0 in
  for i = 0 to p.len - 1 do
    let key = p.keys.(i) in
    let f = key / m and g = key mod m in
    deg.(f) <- deg.(f) + 1;
    deg.(g) <- deg.(g) + 1
  done;
  let adj_off = offsets deg m in
  let total = adj_off.(m) in
  let adj = Array.make (max total 1) 0 in
  let ocount = Array.make (max total 1) 0 in
  let twin = Array.make (max total 1) 0 in
  let pos = Array.sub adj_off 0 (max m 1) in
  for i = 0 to p.len - 1 do
    let key = p.keys.(i) and c = p.counts.(i) in
    let f = key / m and g = key mod m in
    let sf = pos.(f) and sg = pos.(g) in
    pos.(f) <- sf + 1;
    pos.(g) <- sg + 1;
    adj.(sf) <- g;
    adj.(sg) <- f;
    ocount.(sf) <- c;
    ocount.(sg) <- c
  done;
  link_twins ~adj_off ~adj ~twin;
  { adj_off; adj; ocount; twin }

type overlap = csr

let overlap_graph ?(domains = 1) h = build_csr ~domains h

(* Hyperedges never change their members, so a pair of survivors
   keeps its count, and renumbering a slice through the monotone
   old-to-new map keeps it sorted.  Only an added hyperedge's pairs
   are new: counted from its members' incidence rows in [after], they
   make its own slice and are appended to its surviving partners'
   slices, above every survivor id and in ascending order. *)
let advance_overlap g ~origin after =
  let fail what = invalid_arg ("Hypergraph_core.advance_overlap: " ^ what) in
  let m_old = Array.length g.adj_off - 1 and m = H.n_edges after in
  if Array.length origin <> m then fail "origin length";
  let nsurv = ref 0 in
  while !nsurv < m && origin.(!nsurv) >= 0 do
    incr nsurv
  done;
  let nsurv = !nsurv in
  let renum = Array.make (max m_old 1) (-1) in
  for j = 0 to m - 1 do
    let o = origin.(j) in
    if j >= nsurv then (if o <> -1 then fail "added hyperedges must take the top ids")
    else if o >= m_old || (j > 0 && o <= origin.(j - 1)) then
      fail "origin not increasing"
    else renum.(o) <- j
  done;
  (* A survivor loses one slot per deleted partner: read off the
     deleted hyperedges' slices, not every slice. *)
  let deg = Array.make (max m 1) 0 in
  for j = 0 to nsurv - 1 do
    let o = origin.(j) in
    deg.(j) <- g.adj_off.(o + 1) - g.adj_off.(o)
  done;
  for d = 0 to m_old - 1 do
    if renum.(d) < 0 then
      for s = g.adj_off.(d) to g.adj_off.(d + 1) - 1 do
        let p = renum.(g.adj.(s)) in
        if p >= 0 then deg.(p) <- deg.(p) - 1
      done
  done;
  let cnt = Array.make (max m 1) 0 in
  let touched = U.Dynarray.create ~dummy:0 () in
  let added =
    Array.init (m - nsurv) (fun a ->
        let f = nsurv + a in
        U.Dynarray.clear touched;
        Array.iter
          (fun v ->
            Array.iter
              (fun p ->
                if p <> f then begin
                  if cnt.(p) = 0 then U.Dynarray.push touched p;
                  cnt.(p) <- cnt.(p) + 1
                end)
              (H.vertex_edges after v))
          (H.edge_members after f);
        let partners = U.Dynarray.to_array touched in
        Array.sort Int.compare partners;
        let counts =
          Array.map
            (fun p ->
              let c = cnt.(p) in
              cnt.(p) <- 0;
              if p < nsurv then deg.(p) <- deg.(p) + 1;
              c)
            partners
        in
        deg.(f) <- Array.length partners;
        (partners, counts))
  in
  let adj_off = offsets deg m in
  let total = adj_off.(m) in
  let adj = Array.make (max total 1) 0 in
  let ocount = Array.make (max total 1) 0 in
  let twin = Array.make (max total 1) 0 in
  let pos = Array.sub adj_off 0 (max m 1) in
  for j = 0 to nsurv - 1 do
    let o = origin.(j) in
    let s' = ref adj_off.(j) in
    for s = g.adj_off.(o) to g.adj_off.(o + 1) - 1 do
      let p = renum.(g.adj.(s)) in
      if p >= 0 then begin
        adj.(!s') <- p;
        ocount.(!s') <- g.ocount.(s);
        incr s'
      end
    done;
    pos.(j) <- !s'
  done;
  let put f p c =
    let s = pos.(f) in
    pos.(f) <- s + 1;
    adj.(s) <- p;
    ocount.(s) <- c
  in
  Array.iteri
    (fun a (partners, counts) ->
      let f = nsurv + a in
      Array.iteri
        (fun i p ->
          put f p counts.(i);
          if p < nsurv then put p f counts.(i))
        partners)
    added;
  link_twins ~adj_off ~adj ~twin;
  { adj_off; adj; ocount; twin }

let equal_overlap a b =
  let total = a.adj_off.(Array.length a.adj_off - 1) in
  let prefix x = Array.sub x 0 total in
  a.adj_off = b.adj_off
  && prefix a.adj = prefix b.adj
  && prefix a.ocount = prefix b.ocount
  && prefix a.twin = prefix b.twin

(* Slot of partner [g] in [f]'s slice, or -1: binary search over the
   sorted slice. *)
let csr_slot c f g =
  let lo = ref c.adj_off.(f) and hi = ref (c.adj_off.(f + 1) - 1) in
  let res = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) lsr 1 in
    let x = Array.unsafe_get c.adj mid in
    if x = g then begin
      res := mid;
      lo := !hi + 1
    end
    else if x < g then lo := mid + 1
    else hi := mid - 1
  done;
  !res

let dec_overlap c f g =
  let s = csr_slot c f g in
  if s >= 0 then begin
    match c.ocount.(s) with
    | 0 -> () (* pair already dissolved *)
    | n ->
      c.ocount.(s) <- n - 1;
      c.ocount.(c.twin.(s)) <- n - 1
  end

let imax (a : int) b = if a >= b then a else b

let state_of h overlap =
  let vdeg = H.vertex_degrees h in
  {
    h;
    valive = Array.make (H.n_vertices h) true;
    ealive = Array.make (H.n_edges h) true;
    vdeg;
    edeg = H.edge_sizes h;
    overlap;
    abuf = Array.make (Array.fold_left imax 1 vdeg) 0;
    on_vertex_degree = ignore;
    on_edge_delete = ignore;
    vdel = 0;
    edel = 0;
    checks = 0;
  }

let init ~strategy ~domains h =
  state_of h
    (match strategy with
    | Naive -> None
    | Overlap -> Some (build_csr ~domains h))

(* Is the alive, non-empty hyperedge f contained in an alive partner g
   that wins the tie-break (larger, or as large with a smaller id)?
   Every candidate examined counts as one maximality check. *)
let contained st f =
  let df = st.edeg.(f) in
  match st.overlap with
  | Some c ->
    (* Scan f's partner slice: a live slot ([ocount > 0]) has an alive
       partner by the CSR invariant, and containment is count =
       degree.  The scan stops at the first witness. *)
    let found = ref false in
    let s = ref c.adj_off.(f) and stop = c.adj_off.(f + 1) in
    while (not !found) && !s < stop do
      let cnt = Array.unsafe_get c.ocount !s in
      if cnt > 0 then begin
        st.checks <- st.checks + 1;
        if cnt = df then begin
          let g = Array.unsafe_get c.adj !s in
          let dg = st.edeg.(g) in
          if dg > df || (dg = df && g < f) then found := true
        end
      end;
      incr s
    done;
    !found
  | None ->
    (* Candidate containers share every member, so scanning the alive
       edges incident to one alive member of f is complete (edeg f > 0,
       so such a member exists). *)
    let ms = H.edge_members st.h f in
    let anchor = ref (-1) in
    let i = ref 0 in
    while !anchor < 0 do
      if st.valive.(ms.(!i)) then anchor := ms.(!i);
      incr i
    done;
    let subset_of g =
      st.checks <- st.checks + 1;
      Array.for_all
        (fun w -> (not st.valive.(w)) || H.mem st.h ~vertex:w ~edge:g)
        ms
    in
    Array.exists
      (fun g ->
        g <> f && st.ealive.(g)
        && (st.edeg.(g) > df || (st.edeg.(g) = df && g < f))
        && subset_of g)
      (H.vertex_edges st.h !anchor)

let rec delete_edge st f =
  st.ealive.(f) <- false;
  st.edel <- st.edel + 1;
  st.on_edge_delete f;
  Array.iter
    (fun w ->
      if st.valive.(w) then begin
        st.vdeg.(w) <- st.vdeg.(w) - 1;
        st.on_vertex_degree w
      end)
    (H.edge_members st.h f);
  match st.overlap with
  | None -> ()
  | Some c ->
    (* Dissolve every surviving pair (f, g): zero both directions so
       partner scans skip them without consulting [ealive]. *)
    for s = c.adj_off.(f) to c.adj_off.(f + 1) - 1 do
      if c.ocount.(s) > 0 then begin
        c.ocount.(c.twin.(s)) <- 0;
        c.ocount.(s) <- 0
      end
    done

and check_maximality st f =
  if st.ealive.(f) && (st.edeg.(f) = 0 || contained st f) then delete_edge st f

(* Reduction inside the state: delete every non-maximal hyperedge of
   the input before the peel starts, so no reduced copy is built and
   the overlap graph is counted once.  The whole doomed set is decided
   from the initial counts (containment is transitive, so a hyperedge
   inside a doomed one is inside a surviving one too), then deleted.
   Runs before any hook is installed, so it fires none; and it is
   reduction, not peel work, so it counts no maximality checks.  Empty
   hyperedges follow {!Hypergraph_reduce.empty_survivor}. *)
let drop_non_maximal st =
  let keep_empty = Hypergraph_reduce.empty_survivor st.h in
  let checks = st.checks in
  let doomed =
    Array.init (Array.length st.ealive) (fun f ->
        if st.edeg.(f) = 0 then f <> keep_empty else contained st f)
  in
  st.checks <- checks;
  Array.iteri (fun f d -> if d then delete_edge st f) doomed

let delete_vertex st v =
  st.valive.(v) <- false;
  st.vdel <- st.vdel + 1;
  (* The alive hyperedges of v, collected into the state's buffer in
     descending id order: the order their maximality is checked in
     below, which decides which of two equal restrictions survives.
     Nothing below re-enters [delete_vertex], so one buffer serves. *)
  let affected = st.abuf in
  let row = H.vertex_edges st.h v in
  let n = ref 0 in
  for i = Array.length row - 1 downto 0 do
    let e = Array.unsafe_get row i in
    if st.ealive.(e) then begin
      affected.(!n) <- e;
      incr n
    end
  done;
  let n = !n in
  (* Overlap bookkeeping: every pair of alive edges containing v loses
     one common vertex. *)
  (match st.overlap with
  | None -> ()
  | Some c ->
    for i = 0 to n - 2 do
      let f = affected.(i) in
      for j = i + 1 to n - 1 do
        dec_overlap c f affected.(j)
      done
    done);
  (* [valive.(v)] is already down, so the flag-filtered member views
     exclude v; only the degree counters need the explicit update. *)
  for i = 0 to n - 1 do
    let f = affected.(i) in
    st.edeg.(f) <- st.edeg.(f) - 1
  done;
  (* Only hyperedges whose degree was just decremented can have become
     non-maximal (paper Section 3). *)
  for i = 0 to n - 1 do
    check_maximality st affected.(i)
  done

let alive_ids flags =
  let buf = U.Dynarray.create ~dummy:0 () in
  Array.iteri (fun i alive -> if alive then U.Dynarray.push buf i) flags;
  U.Dynarray.to_array buf


let k_core ?(strategy = Overlap) ?(domains = 1) ?(deadline = U.Deadline.never) h k =
  if k < 0 then invalid_arg "Hypergraph_core.k_core: negative k";
  if k = 0 then begin
    let reduced, emap = Hypergraph_reduce.reduce h in
    {
      core = reduced;
      vertex_ids = Array.init (H.n_vertices h) Fun.id;
      edge_ids = emap;
      stats =
        {
          vertices_deleted = 0;
          edges_deleted = H.n_edges h - H.n_edges reduced;
          maximality_checks = 0;
          peel_rounds = 0;
        };
    }
  end
  else begin
    let st = init ~strategy ~domains h in
    drop_non_maximal st;
    let queue = Queue.create () in
    st.on_vertex_degree <- (fun w -> if st.vdeg.(w) < k then Queue.add w queue);
    (* A surviving empty hyperedge (the sole one of an all-empty
       input) is deleted for any k >= 1 — the paper's "special case of
       a hyperedge becoming empty". *)
    for e = 0 to H.n_edges h - 1 do
      if st.ealive.(e) && st.edeg.(e) = 0 then delete_edge st e
    done;
    for v = 0 to H.n_vertices h - 1 do
      if st.vdeg.(v) < k then Queue.add v queue
    done;
    (* Drain the worklist in FIFO batches: everything queued at the top
       of a batch was exposed by the previous one, so the batch count is
       the cascade depth (the profiling gauge behind [peel_rounds]).
       Deletion order is exactly the plain FIFO drain's. *)
    let rounds = ref 0 in
    while not (Queue.is_empty queue) do
      incr rounds;
      let batch = Queue.length queue in
      for _ = 1 to batch do
        (* The cascade is the long pole on large inputs; abort promptly
           when the caller's budget is blown. *)
        U.Deadline.check deadline;
        U.Fault.point "core.peel";
        let v = Queue.take queue in
        if st.valive.(v) then delete_vertex st v
      done
    done;
    let core, vertex_ids, edge_ids =
      H.sub h ~vertices:(alive_ids st.valive) ~edges:(alive_ids st.ealive)
    in
    {
      core;
      vertex_ids;
      edge_ids;
      stats =
        {
          vertices_deleted = st.vdel;
          edges_deleted = st.edel;
          maximality_checks = st.checks;
          peel_rounds = !rounds;
        };
    }
  end

type decomposition = {
  vertex_core : int array;
  edge_core : int array;
  max_core : int;
}

let decompose_iterated ?(strategy = Overlap) ?(domains = 1)
    ?(deadline = U.Deadline.never) h =
  let nv = H.n_vertices h and m = H.n_edges h in
  let vertex_core = Array.make nv 0 in
  let edge_core = Array.make m (-1) in
  (* Edges surviving the initial reduction are at least in the 0-core. *)
  let r0 = k_core ~strategy ~domains ~deadline h 0 in
  Array.iter (fun e -> edge_core.(e) <- 0) r0.edge_ids;
  (* Iterate k upward, peeling the previous core (cores are nested; see
     the property tests). *)
  let rec loop k cur vids eids =
    let r = k_core ~strategy ~domains ~deadline cur k in
    if H.n_vertices r.core = 0 then k - 1
    else begin
      let vids' = Array.map (fun i -> vids.(i)) r.vertex_ids in
      let eids' = Array.map (fun i -> eids.(i)) r.edge_ids in
      Array.iter (fun v -> vertex_core.(v) <- k) vids';
      Array.iter (fun e -> edge_core.(e) <- k) eids';
      loop (k + 1) r.core vids' eids'
    end
  in
  let max_core = loop 1 r0.core (Array.init nv Fun.id) r0.edge_ids in
  { vertex_core; edge_core; max_core = max max_core 0 }

(* The canonical one-pass drain: pop the (key, id)-lexicographic
   minimum of key(v) = max(degree(v), level) until the structure is
   empty.  A lazy {!Hp_util.Int_heap} carries packed [key * nv + id]
   entries; [key] holds each live vertex's last pushed key, so a
   popped entry is current exactly when it matches.  Keys are monotone
   per vertex: a live vertex always satisfies key(v) >= level (an
   entry keyed below the level would have been consumed before the
   level rose past it), so re-keying on a degree drop can only lower
   the key, and the stale higher-keyed entries pop after the vertex is
   already gone.

   Popping the lexicographic minimum makes the sweep a pure function
   of the peeling state, and — because the clamp level observed by a
   re-key equals the key of the same-component pop in progress —
   component-local: the sweep of any union of overlap components,
   started at the level floor [level0], reproduces the full sweep's
   pops, levels and edge-deletion levels restricted to those
   components.  That is the property the subcore cascade
   ({!Hypergraph_maintain}) resumes from. *)
let canonical_drain ~deadline st ~level0 ~vertex_core ~record_edge =
  let nv = Array.length st.valive in
  let stride = imax nv 1 in
  let key = Array.make stride 0 in
  let heap = U.Int_heap.create ~capacity:(nv + 16) () in
  let level = ref level0 in
  for v = 0 to nv - 1 do
    if st.valive.(v) then begin
      let k = imax st.vdeg.(v) level0 in
      key.(v) <- k;
      U.Int_heap.push heap ((k * stride) + v)
    end
  done;
  st.on_vertex_degree <-
    (fun w ->
      (* Degree below the current level cannot lower the core number
         any further; clamp so the key stays monotone. *)
      let k = imax st.vdeg.(w) !level in
      if k < key.(w) then begin
        key.(w) <- k;
        U.Int_heap.push heap ((k * stride) + w)
      end);
  st.on_edge_delete <- (fun f -> record_edge f !level);
  (* Packed entries are non-negative, so -1 means the heap is empty. *)
  let packed = ref (U.Int_heap.pop_min_or heap (-1)) in
  while !packed >= 0 do
    let k = !packed / stride and v = !packed mod stride in
    if st.valive.(v) && key.(v) = k then begin
      U.Deadline.check deadline;
      U.Fault.point "core.peel";
      if k > !level then level := k;
      vertex_core.(v) <- !level;
      delete_vertex st v
    end;
    packed := U.Int_heap.pop_min_or heap (-1)
  done;
  !level

(* The one-pass sweep of a fresh peeling state, also returning the
   state so callers ([max_core]) can surface its counters without a
   second peel. *)
let onepass ~deadline st =
  let nv = H.n_vertices st.h and m = H.n_edges st.h in
  let vertex_core = Array.make nv 0 in
  let edge_core = Array.make m (-1) in
  drop_non_maximal st;
  (* Hyperedges surviving reduction are at least in the 0-core; the
     dropped ones keep -1. *)
  Array.iteri (fun e alive -> if alive then edge_core.(e) <- 0) st.ealive;
  (* A surviving empty hyperedge belongs to the 0-core only (its
     pre-assigned level 0 stands: the hooks are installed later, inside
     the drain). *)
  for e = 0 to m - 1 do
    if st.ealive.(e) && st.edeg.(e) = 0 then delete_edge st e
  done;
  let max_core =
    canonical_drain ~deadline st ~level0:0 ~vertex_core
      ~record_edge:(fun f lvl -> edge_core.(f) <- lvl)
  in
  ({ vertex_core; edge_core; max_core }, st)

let decompose_onepass_state ~strategy ~domains ~deadline h =
  onepass ~deadline (init ~strategy ~domains h)

let decompose_over ?(deadline = U.Deadline.never) g h =
  if Array.length g.adj_off <> H.n_edges h + 1 then
    invalid_arg "Hypergraph_core.decompose_over: graph of another hypergraph";
  (* The drain lowers pair counts as it peels: it gets its own copy,
     and shares the slices, offsets and twins, which it only reads. *)
  fst (onepass ~deadline (state_of h (Some { g with ocount = Array.copy g.ocount })))

let resume_peel ?(strategy = Overlap) ?(domains = 1)
    ?(deadline = U.Deadline.never) ~level h =
  if level < 0 then invalid_arg "Hypergraph_core.resume_peel: negative level";
  let nv = H.n_vertices h and m = H.n_edges h in
  let vertex_core = Array.make nv level in
  let edge_core = Array.make m (-1) in
  let st = init ~strategy ~domains h in
  (* No reduction pass: the input is a peel boundary — already reduced
     and containment-free by construction.  Hooks go in BEFORE the
     degree-0 scan so that a degenerate empty hyperedge records the
     floor level instead of escaping with -1. *)
  let level_ref = ref level in
  st.on_edge_delete <- (fun f -> edge_core.(f) <- !level_ref);
  for e = 0 to m - 1 do
    if st.edeg.(e) = 0 then delete_edge st e
  done;
  st.on_edge_delete <- ignore;
  let max_core =
    canonical_drain ~deadline st ~level0:level ~vertex_core
      ~record_edge:(fun f lvl -> edge_core.(f) <- lvl)
  in
  { vertex_core; edge_core; max_core }

let decompose_onepass ?(strategy = Overlap) ?(domains = 1)
    ?(deadline = U.Deadline.never) h =
  fst (decompose_onepass_state ~strategy ~domains ~deadline h)

let decompose = decompose_onepass

let core_of_decomposition h (d : decomposition) k =
  (* The decomposition already knows every core: vertices with
     [vertex_core >= k] and edges deleted at level >= k ARE the k-core
     (when the one-pass level first reaches k, the alive structure is
     exactly the k-core, and restricting a surviving edge to surviving
     vertices reproduces its alive member set).  Build the
     subhypergraph from those id sets instead of re-peeling.

     Edge identity: which original hyperedge survives the peel to
     claim a given core member-set depends on deletion order (two
     hyperedges can shrink to the same restriction).  Canonicalize by
     re-mapping each surviving restriction to the smallest original
     hyperedge id whose restriction to the core vertex set equals it —
     a choice independent of any peel order. *)
  if k < 0 then invalid_arg "Hypergraph_core.core_of_decomposition: negative k";
  let nv = H.n_vertices h and m = H.n_edges h in
  let vkeep = U.Dynarray.create ~dummy:0 () in
  Array.iteri (fun v c -> if c >= k then U.Dynarray.push vkeep v) d.vertex_core;
  let vkeep = U.Dynarray.to_array vkeep in
  let incore = Array.make nv false in
  Array.iter (fun v -> incore.(v) <- true) vkeep;
  let restrict e =
    let members = H.edge_members h e in
    let cnt = ref 0 in
    Array.iter (fun v -> if incore.(v) then incr cnt) members;
    if !cnt = Array.length members then members
    else begin
      let r = Array.make !cnt 0 and i = ref 0 in
      Array.iter
        (fun v ->
          if incore.(v) then begin
            r.(!i) <- v;
            incr i
          end)
        members;
      r
    end
  in
  (* Smallest original hyperedge per non-empty restriction (ids are
     scanned ascending, so first write wins). *)
  let reps = Hashtbl.create (2 * m) in
  for e = 0 to m - 1 do
    let r = restrict e in
    if Array.length r > 0 && not (Hashtbl.mem reps r) then Hashtbl.add reps r e
  done;
  let alive = ref 0 in
  let ekeep = U.Dynarray.create ~dummy:0 () in
  Array.iteri
    (fun e c ->
      if c >= k then begin
        incr alive;
        let r = restrict e in
        (* A surviving empty restriction only happens for the 0-core's
           sole-empty-hyperedge special case; it represents itself. *)
        let rep = if Array.length r = 0 then e else Hashtbl.find reps r in
        U.Dynarray.push ekeep rep
      end)
    d.edge_core;
  let ekeep = U.Sorted.of_array (U.Dynarray.to_array ekeep) in
  let core, _, _ = H.sub h ~vertices:vkeep ~edges:ekeep in
  {
    core;
    vertex_ids = vkeep;
    edge_ids = ekeep;
    stats =
      {
        vertices_deleted = nv - Array.length vkeep;
        edges_deleted = m - !alive;
        maximality_checks = 0;
        (* Assembled from the arrays: no FIFO cascade structure. *)
        peel_rounds = 0;
      };
  }

let max_core ?(strategy = Overlap) ?(domains = 1) ?(deadline = U.Deadline.never) h =
  let d, st = decompose_onepass_state ~strategy ~domains ~deadline h in
  let r = core_of_decomposition h d d.max_core in
  (d.max_core, { r with stats = { r.stats with maximality_checks = st.checks } })

let core_profile d =
  (* Single pass: histogram the core numbers, then suffix-sum so level
     k counts everything with core >= k — O(nv + ne + max_core)
     instead of rescanning both arrays once per level. *)
  let mc = d.max_core in
  let vcnt = Array.make (mc + 1) 0 in
  let ecnt = Array.make (mc + 1) 0 in
  Array.iter (fun c -> vcnt.(c) <- vcnt.(c) + 1) d.vertex_core;
  Array.iter
    (fun c -> if c >= 0 then ecnt.(c) <- ecnt.(c) + 1)
    d.edge_core;
  for k = mc - 1 downto 0 do
    vcnt.(k) <- vcnt.(k) + vcnt.(k + 1);
    ecnt.(k) <- ecnt.(k) + ecnt.(k + 1)
  done;
  Array.init (mc + 1) (fun k -> (k, vcnt.(k), ecnt.(k)))

type round_stats = {
  rounds : int;
  batch_sizes : int array;
  core_vertices : int;
  core_edges : int;
}

let peel_rounds ?(strategy = Overlap) ?(domains = 1)
    ?(deadline = U.Deadline.never) h k =
  if k < 0 then invalid_arg "Hypergraph_core.peel_rounds: negative k";
  let nv = H.n_vertices h in
  let st = init ~strategy ~domains h in
  drop_non_maximal st;
  for e = 0 to H.n_edges h - 1 do
    if st.ealive.(e) && st.edeg.(e) = 0 then delete_edge st e
  done;
  let batches = U.Dynarray.create ~dummy:0 () in
  let continue = ref (k > 0) in
  while !continue do
    let batch = ref [] in
    for v = 0 to nv - 1 do
      if st.valive.(v) && st.vdeg.(v) < k then batch := v :: !batch
    done;
    match !batch with
    | [] -> continue := false
    | vs ->
      U.Dynarray.push batches (List.length vs);
      List.iter
        (fun v ->
          (* Same budget discipline as the other drivers: the cascade
             inside a round is where the time goes. *)
          U.Deadline.check deadline;
          U.Fault.point "core.peel";
          if st.valive.(v) then delete_vertex st v)
        vs
  done;
  let core_vertices = Array.fold_left (fun a b -> if b then a + 1 else a) 0 st.valive in
  let core_edges = Array.fold_left (fun a b -> if b then a + 1 else a) 0 st.ealive in
  {
    rounds = U.Dynarray.length batches;
    batch_sizes = U.Dynarray.to_array batches;
    core_vertices;
    core_edges;
  }
