module U = Hp_util
module H = Hypergraph

(* Plain BFS on the bipartite view, alternating vertex and hyperedge
   layers: vertex distance d corresponds to d hyperedges along the
   path.  This is the oracle the sweeps below are tested and timed
   against, so it stays per-source and obvious. *)
let bfs h src =
  let nv = H.n_vertices h in
  let dist = Array.make nv (-1) in
  let expanded = Array.make (H.n_edges h) false in
  (* Every vertex is enqueued at most once, so one array of |V| holds
     the whole queue. *)
  let queue = Array.make nv 0 in
  dist.(src) <- 0;
  queue.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    let d = dist.(v) + 1 in
    Array.iter
      (fun e ->
        if not expanded.(e) then begin
          expanded.(e) <- true;
          Array.iter
            (fun w ->
              if dist.(w) < 0 then begin
                dist.(w) <- d;
                queue.(!tail) <- w;
                incr tail
              end)
            (H.edge_members h e)
        end)
      (H.vertex_edges h v)
  done;
  dist

let distance h u v =
  let d = (bfs h u).(v) in
  if d < 0 then None else Some d

let components h =
  let nv = H.n_vertices h and ne = H.n_edges h in
  let ds = U.Disjoint_set.create (nv + ne) in
  for e = 0 to ne - 1 do
    Array.iter (fun v -> ignore (U.Disjoint_set.union ds v (nv + e))) (H.edge_members h e)
  done;
  let vlabel = Array.make nv (-1) and elabel = Array.make ne (-1) in
  let canon = Hashtbl.create 64 in
  let next = ref 0 in
  let label_of node =
    let r = U.Disjoint_set.find ds node in
    match Hashtbl.find_opt canon r with
    | Some l -> l
    | None ->
      let l = !next in
      incr next;
      Hashtbl.add canon r l;
      l
  in
  for v = 0 to nv - 1 do
    vlabel.(v) <- label_of v
  done;
  for e = 0 to ne - 1 do
    elabel.(e) <- label_of (nv + e)
  done;
  (vlabel, elabel, !next)

let n_components h =
  let _, _, c = components h in
  c

let component_summary h =
  let vlabel, elabel, count = components h in
  let nv = Array.make count 0 and ne = Array.make count 0 in
  Array.iter (fun c -> nv.(c) <- nv.(c) + 1) vlabel;
  Array.iter (fun c -> ne.(c) <- ne.(c) + 1) elabel;
  let pairs = Array.init count (fun c -> (nv.(c), ne.(c))) in
  Array.sort (fun a b -> compare b a) pairs;
  pairs

let largest_component h =
  let vlabel, elabel, count = components h in
  if count = 0 then (h, [||], [||])
  else begin
    let sizes = Array.make count 0 in
    Array.iter (fun c -> sizes.(c) <- sizes.(c) + 1) vlabel;
    let best = ref 0 in
    Array.iteri (fun c s -> if s > sizes.(!best) then best := c) sizes;
    let vkeep = U.Dynarray.create ~dummy:0 () in
    Array.iteri (fun v c -> if c = !best then U.Dynarray.push vkeep v) vlabel;
    let ekeep = U.Dynarray.create ~dummy:0 () in
    Array.iteri (fun e c -> if c = !best then U.Dynarray.push ekeep e) elabel;
    H.sub h ~vertices:(U.Dynarray.to_array vkeep) ~edges:(U.Dynarray.to_array ekeep)
  end

(* Profiling hook for the sweeps: completed-source counting is atomic
   because the fold fans out across domains. *)
type sweep_stats = { sources : int Atomic.t }

let sweep_stats () = { sources = Atomic.make 0 }
let sources_visited s = Atomic.get s.sources

(* The sweeps run a bit-parallel multi-source BFS: one pass carries
   [word_bits] sources, source [lo + i] owning bit [i] of one int per
   vertex and per hyperedge.  A level ORs the fresh words of the
   frontier vertices into their hyperedges, then the fresh words of
   those hyperedges into their members; bits a member had not seen
   are the sources that first reach it at this level, so the pass adds
   [level * popcount gain] to the distance sum — the same integers a
   per-source BFS accumulates, with one word operation standing in for
   up to [word_bits] of its steps.

   Each domain owns a grow-only arena of these words and of the two
   frontier lists: a smaller graph reuses a larger arena, and a pass
   clears only the prefix it uses. *)
let word_bits = Sys.int_size

type arena = {
  mutable seen : int array;   (* per vertex: sources that reached it *)
  mutable fresh : int array;  (* per vertex: sources that first reached it this level *)
  mutable eseen : int array;  (* per hyperedge: sources that reached it *)
  mutable efresh : int array; (* per hyperedge: sources that first reached it this level *)
  mutable frontier : int array; (* vertices with a nonzero [fresh] word *)
  mutable touched : int array;  (* hyperedges with a nonzero [efresh] word *)
}

let arena_key : arena Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { seen = [||]; fresh = [||]; eseen = [||]; efresh = [||]; frontier = [||];
        touched = [||] })

let arena ~nv ~ne =
  let a = Domain.DLS.get arena_key in
  if Array.length a.seen < nv then begin
    a.seen <- Array.make nv 0;
    a.fresh <- Array.make nv 0;
    a.frontier <- Array.make nv 0
  end;
  if Array.length a.eseen < ne then begin
    a.eseen <- Array.make ne 0;
    a.efresh <- Array.make ne 0;
    a.touched <- Array.make ne 0
  end;
  a

(* SWAR population count; exact on all [Sys.int_size] bits, sign bit
   included (the per-byte sums never exceed 63, so the final multiply
   cannot carry out of the top byte). *)
let popcount x =
  let x = x - ((x lsr 1) land 0x5555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  (x * 0x0101_0101_0101_0101) lsr 56

(* One pass over sources [source_of lo .. source_of (hi - 1)],
   returning (sum of finite distances to other vertices, count of
   such ordered pairs, max distance).  A source drawn twice owns two
   bits, both OR-ed into its vertex, so it counts twice exactly as two
   per-source BFS runs would.  A level touches only the frontier and
   the hyperedges it reaches, so a vertex pays its degree once per
   level at which it gains bits: at most once per source, as in
   per-source BFS, and once in all when the sources arrive together.
   The deadline is checked at every level, so an abort waits for at
   most one level, O(|I|) word operations. *)
let run_pass ~deadline h ~lo ~hi ~source_of =
  let nv = H.n_vertices h and ne = H.n_edges h in
  let { seen; fresh; eseen; efresh; frontier; touched } = arena ~nv ~ne in
  (* An aborted pass may leave any word set, so clear all four. *)
  Array.fill seen 0 nv 0;
  Array.fill fresh 0 nv 0;
  Array.fill eseen 0 ne 0;
  Array.fill efresh 0 ne 0;
  let nf = ref 0 in
  for i = lo to hi - 1 do
    let s = source_of i and bit = 1 lsl (i - lo) in
    if fresh.(s) = 0 then begin
      frontier.(!nf) <- s;
      incr nf
    end;
    seen.(s) <- seen.(s) lor bit;
    fresh.(s) <- fresh.(s) lor bit
  done;
  let sum = ref 0 and pairs = ref 0 and dmax = ref 0 and level = ref 0 in
  while !nf > 0 do
    U.Deadline.check deadline;
    incr level;
    (* Frontier words into their hyperedges. *)
    let nt = ref 0 in
    for i = 0 to !nf - 1 do
      let v = Array.unsafe_get frontier i in
      let b = Array.unsafe_get fresh v in
      Array.unsafe_set fresh v 0;
      let edges = H.vertex_edges h v in
      for j = 0 to Array.length edges - 1 do
        let e = Array.unsafe_get edges j in
        let e_seen = Array.unsafe_get eseen e in
        let gain = b land lnot e_seen in
        if gain <> 0 then begin
          let e_fresh = Array.unsafe_get efresh e in
          if e_fresh = 0 then begin
            Array.unsafe_set touched !nt e;
            incr nt
          end;
          Array.unsafe_set efresh e (e_fresh lor gain);
          Array.unsafe_set eseen e (e_seen lor gain)
        end
      done
    done;
    (* Hyperedge words into their members: the next frontier. *)
    nf := 0;
    for i = 0 to !nt - 1 do
      let e = Array.unsafe_get touched i in
      let b = Array.unsafe_get efresh e in
      Array.unsafe_set efresh e 0;
      let members = H.edge_members h e in
      for j = 0 to Array.length members - 1 do
        let w = Array.unsafe_get members j in
        let w_seen = Array.unsafe_get seen w in
        let gain = b land lnot w_seen in
        if gain <> 0 then begin
          let w_fresh = Array.unsafe_get fresh w in
          if w_fresh = 0 then begin
            Array.unsafe_set frontier !nf w;
            incr nf
          end;
          Array.unsafe_set fresh w (w_fresh lor gain);
          Array.unsafe_set seen w (w_seen lor gain)
        end
      done
    done;
    let reached = ref 0 in
    for i = 0 to !nf - 1 do
      reached := !reached + popcount (Array.unsafe_get fresh (Array.unsafe_get frontier i))
    done;
    if !reached > 0 then begin
      sum := !sum + (!level * !reached);
      pairs := !pairs + !reached;
      dmax := !level
    end
  done;
  (!sum, !pairs, !dmax)

(* Passes are independent, so the sweep fans them out across domains:
   the hypergraph is only read.  The deadline is checked before every
   pass and at every level — [Deadline.Expired] raised in a worker
   domain is re-raised by the fork-join, so an over-budget sweep
   aborts across all domains.  A pass's sources are counted once it
   completes. *)
let pair_stats_over ~domains ~deadline ?stats h ~n_sources ~source_of =
  let fold (sum, pairs, dmax) p =
    U.Deadline.check deadline;
    U.Fault.point "path.bfs";
    let lo = p * word_bits in
    let hi = min n_sources (lo + word_bits) in
    let s, q, d = run_pass ~deadline h ~lo ~hi ~source_of in
    (match stats with
    | Some st -> ignore (Atomic.fetch_and_add st.sources (hi - lo))
    | None -> ());
    (sum + s, pairs + q, max dmax d)
  in
  let sum, pairs, dmax =
    U.Parallel.fold_range ~domains
      ~n:((n_sources + word_bits - 1) / word_bits)
      ~create:(fun () -> (0, 0, 0))
      ~fold
      ~combine:(fun (a, b, c) (d, e, f) -> (a + d, b + e, max c f))
  in
  let avg = if pairs = 0 then 0.0 else float_of_int sum /. float_of_int pairs in
  (dmax, avg)

let diameter_and_average_path ?(domains = 1) ?(deadline = U.Deadline.never)
    ?stats h =
  pair_stats_over ~domains ~deadline ?stats h ~n_sources:(H.n_vertices h)
    ~source_of:Fun.id

let sampled_diameter_and_average_path ?(domains = 1)
    ?(deadline = U.Deadline.never) ?stats rng h ~samples =
  let nv = H.n_vertices h in
  if nv = 0 then (0, 0.0)
  else begin
    (* Sources are drawn up front so the estimate is a function of the
       rng alone — the same seed yields the same answer at any domain
       count (the combine is commutative). *)
    let sources = Array.init samples (fun _ -> U.Prng.int rng nv) in
    pair_stats_over ~domains ~deadline ?stats h ~n_sources:samples
      ~source_of:(fun i -> sources.(i))
  end
