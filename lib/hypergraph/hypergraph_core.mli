(** The k-core of a hypergraph (paper Section 3, Figure 4).

    The k-core of H is the maximal subhypergraph that is reduced (every
    hyperedge maximal) and in which every vertex belongs to at least k
    hyperedges.  The algorithm deletes vertices of degree < k; removing
    a vertex shrinks the hyperedges containing it, and a hyperedge that
    stops being maximal — including the special case of becoming
    empty — is deleted outright, which lowers the degrees of its
    remaining members and can cascade.

    Maximality is detected without comparing vertex lists, by
    maintaining pairwise hyperedge overlaps: after a deletion, a
    hyperedge f is contained in a partner g exactly when its current
    degree equals its current overlap with g (the paper's key
    observation).  The default strategy stores the overlaps as a flat
    CSR overlap graph — per-edge partner slices with parallel count
    and twin-slot arrays, built once per peel by parallel sort-based
    counting ({!Hypergraph_reduce.overlap_pairs}, DESIGN.md section
    10), or advanced from a kept one ({!advance_overlap}) — so the
    per-deletion bookkeeping is array scans and a binary search.  The
    [Naive] strategy re-scans member lists instead; it is the oracle
    for differential testing and the E11/E22 benches.

    Every peel reduces the input inside its peeling state: before
    the peel starts, the non-maximal hyperedges are deleted from the
    state (alive flag down, member degrees lowered), with no reduced
    copy.  [Overlap] reads containment off the overlap graph it has
    just built, [Naive] off the same anchored subset test it peels
    with.  Ids in every result refer to the input hypergraph.

    Uniqueness caveat: the k-core is unique as a SET SYSTEM, but when
    two hyperedges shrink to the same restriction during peeling,
    either original may survive the peel — so raw peel output
    ([k_core]) has deletion-order-dependent edge identity (vertex core
    numbers and the multiset of edge core levels do not).
    [max_core] and [core_of_decomposition] canonicalize: every
    surviving member-set is represented by the smallest original
    hyperedge id whose restriction to the core vertex set equals it,
    independent of peel order.

    Every driver accepts a cooperative [?deadline]
    ({!Hp_util.Deadline}): the peeling loop checks it each iteration
    and raises [Deadline.Expired] when the budget is blown, so a
    server can abort an over-budget request mid-computation instead of
    discovering the overrun after the fact. *)

type strategy =
  | Overlap
      (** overlap-count maximality (the paper's algorithm) over the
          flat CSR overlap graph — the fast default *)
  | Naive    (** subset re-scan maximality (oracle / ablation) *)

type stats = {
  vertices_deleted : int;
  edges_deleted : int;
  maximality_checks : int;
  (** Number of (hyperedge, candidate container) containment tests. *)
  peel_rounds : int;
  (** FIFO cascade depth of the peel: the number of worklist batches
      drained, where each batch holds the vertices exposed by the
      previous one.  0 when nothing was peeled (k = 0, or no vertex
      ever fell below k). *)
}

type result = {
  core : Hypergraph.t;
  vertex_ids : int array;  (** new-to-old vertex id map into the input *)
  edge_ids : int array;    (** new-to-old hyperedge id map into the input *)
  stats : stats;
}

val k_core :
  ?strategy:strategy ->
  ?domains:int ->
  ?deadline:Hp_util.Deadline.t ->
  Hypergraph.t ->
  int ->
  result
(** [k_core h k] for k >= 0.  The 0-core is the reduced input with all
    vertices.  Raises [Invalid_argument] for negative k and
    [Hp_util.Deadline.Expired] when [deadline] (default
    {!Hp_util.Deadline.never}) passes mid-peel. *)

type decomposition = {
  vertex_core : int array;
  (** Largest k such that the vertex is in the k-core (>= 0). *)
  edge_core : int array;
  (** Largest k such that the hyperedge is in the k-core; [-1] for
      hyperedges dropped when reducing the input. *)
  max_core : int;
  (** Largest k with a non-empty k-core; 0 when the 1-core is empty. *)
}

val decompose :
  ?strategy:strategy ->
  ?domains:int ->
  ?deadline:Hp_util.Deadline.t ->
  Hypergraph.t ->
  decomposition
(** Alias for [decompose_onepass]. *)

val decompose_iterated :
  ?strategy:strategy ->
  ?domains:int ->
  ?deadline:Hp_util.Deadline.t ->
  Hypergraph.t ->
  decomposition
(** Runs [k_core] for k = 1, 2, ... on the shrinking core, exactly as
    the paper describes the maximum-core search.  Cost grows with the
    maximum core index; kept as the reference implementation. *)

val decompose_onepass :
  ?strategy:strategy ->
  ?domains:int ->
  ?deadline:Hp_util.Deadline.t ->
  Hypergraph.t ->
  decomposition
(** Single minimum-degree peel (the hypergraph analogue of the
    Batagelj-Zaversnik sweep): an {!Hp_util.Int_heap} drains vertices
    in (key, id)-lexicographic order, where key is the degree clamped
    below by the current level; the level only rises, every vertex is
    deleted once, and the core numbers fall out of the deletion
    levels.  Agrees with [decompose_iterated] (property-tested)
    at a fraction of the cost for deep cores. *)

(** {1 The overlap graph, kept across peels}

    The maintainer ({!Hypergraph_maintain}) keeps the overlap graph of
    the hypergraph it last peeled and starts every full re-peel from
    it, instead of recounting every pair.  There is one builder
    ({!overlap_graph}), one advance ({!advance_overlap}) and one drain
    ({!decompose_over}); {!decompose} still builds its own graph.

    A caller that re-peels again and again passes the buffers it keeps
    across peels: a spare graph for the advance to write into, and a
    {!workspace} for the advance's and the drain's scratch.  They are
    private to that caller, which must not share them between two peels
    running at once (the maintainer is used under its writer's lock).
    A peel never writes an array it has returned: every
    {!decomposition} it returns is freshly allocated, so a reader may
    keep a published decomposition while later peels run. *)

type overlap
(** The static overlap graph of a hypergraph: per-hyperedge partner
    slices, sorted, with each pair's shared-vertex count and the slot
    of its mirror in the partner's slice.  Never mutated once built. *)

val overlap_graph : ?domains:int -> Hypergraph.t -> overlap
(** Count every overlapping pair ({!Hypergraph_reduce.overlap_pairs})
    and assemble the graph: what every [Overlap] peel builds first.
    The result does not depend on [domains] (default 1). *)

type workspace
(** The per-vertex and per-hyperedge scratch of {!advance_overlap} and
    {!decompose_over}: the id map and cursors of the advance, and the
    drain's working pair counts, alive flags, degrees, keys and heap,
    and reduction verdicts.  Grown to fit, never returned.  Every
    other peel works in a fresh one. *)

val workspace : unit -> workspace
(** An empty workspace; the first peel sizes it. *)

val advance_overlap :
  ?into:overlap ->
  ws:workspace ->
  overlap ->
  origin:int array ->
  Hypergraph.t ->
  overlap
(** [advance_overlap g ~origin after] is [overlap_graph after], given
    [g], the graph of a hypergraph [after] descends from by hyperedge
    appends and deletions (vertex appends change no pair).
    [origin.(j)] is the id in [g]'s hypergraph of [after]'s hyperedge
    [j], or [-1] for one added since: survivors keep their relative
    order and added hyperedges take the top ids, as in
    {!Hypergraph_maintain.apply_batch}.  Surviving pairs keep their
    counts; only added hyperedges' pairs are counted, from their
    members' incidence rows.  O(pairs + the added hyperedges'
    two-step neighbourhoods).  [g] is left as it is.  Raises
    [Invalid_argument] when [origin] is not of that shape.

    [into] is a spare graph the caller no longer reads, neither [g]
    nor any graph sharing its arrays: its slot arrays are overwritten
    and become the result's where they are large enough, and the
    result's are allocated with slack where they are not.  So a caller
    that swaps the result and its previous graph at every advance
    allocates slot arrays only as the graph grows.  [ws] holds the
    advance's per-hyperedge scratch, so the advance allocates only the
    result's slice offsets and its added hyperedges' partner lists. *)

val equal_overlap : overlap -> overlap -> bool
(** Same slices, counts and twin slots. *)

val decompose_over :
  ?deadline:Hp_util.Deadline.t ->
  ws:workspace ->
  overlap ->
  Hypergraph.t ->
  decomposition
(** [decompose_over ~ws g h] is [decompose ~domains:1 h] for [g] the
    overlap graph of [h], without recounting the pairs: the drain
    lowers a copy of [g]'s counts and leaves [g] as it is.  The copy
    and the peel's scratch live in [ws], so the call allocates little
    beyond the two arrays it returns.  Raises [Invalid_argument] when
    [g] has a different hyperedge count. *)

val resume_peel :
  ?strategy:strategy ->
  ?domains:int ->
  ?deadline:Hp_util.Deadline.t ->
  level:int ->
  Hypergraph.t ->
  decomposition
(** Resume the canonical one-pass sweep from a peel boundary: [h] must
    be (a union of overlap components of) the alive structure of some
    sweep at the moment its level first reached [level] — vertices and
    hyperedges that survive to core [level], hyperedges restricted to
    surviving vertices, no reduction applied (a boundary is already
    reduced and containment-free).  Every returned core number is
    >= [level], and — because the sweep pops the (key, id)-minimum and
    its effects are component-local — the result is bit-identical to
    the full sweep's values on those components.  This is the repair
    kernel of the subcore cascade in {!Hypergraph_maintain}.  Raises
    [Invalid_argument] for negative [level]. *)

val max_core :
  ?strategy:strategy ->
  ?domains:int ->
  ?deadline:Hp_util.Deadline.t ->
  Hypergraph.t ->
  int * result
(** The maximum core and its index: the k-core for the largest k such
    that the core still has vertices.  Built directly from the
    one-pass decomposition's [vertex_core]/[edge_core] arrays via
    {!core_of_decomposition} — no second peel — so [stats] reports the
    decomposition's counters: [maximality_checks] is the sweep's
    total, and [peel_rounds] is 0 (the minimum-degree sweep has no
    FIFO cascade structure).  Edge identity is canonical per the
    uniqueness caveat above: duplicate member-sets are represented by
    the smallest original hyperedge id. *)

val core_of_decomposition : Hypergraph.t -> decomposition -> int -> result
(** [core_of_decomposition h d k] assembles the k-core of [h] from an
    already-computed decomposition without re-peeling: vertices with
    [vertex_core >= k], hyperedges with [edge_core >= k], and a
    canonical edge identity — each surviving member-set is represented
    by the smallest original hyperedge id whose restriction to the
    core vertex set equals it.  [stats] counts only what the id sets
    imply ([maximality_checks] and [peel_rounds] are 0).  This is the
    serving path for incrementally maintained decompositions
    ({!Hypergraph_maintain}): O(vertices + total member size) per
    query instead of a full peel.  Raises [Invalid_argument] for
    negative [k]. *)

val core_extent : decomposition -> int -> int array * int
(** [core_extent d k] is what a k-core reply needs of
    [core_of_decomposition h d k], in O(vertices + hyperedges) and
    without building it: the ids of the vertices with
    [vertex_core >= k], ascending (its [vertex_ids]), and the number
    of hyperedges with [edge_core >= k] (its core's hyperedge count —
    when the sweep's level first reaches k those are the alive
    hyperedges, pairwise non-nested, so their restrictions to the core
    are distinct).  Raises [Invalid_argument] for negative [k]. *)

val core_profile : decomposition -> (int * int * int) array
(** Per level k = 0 .. max_core: [(k, vertices in the k-core, edges in
    the k-core)] — the series behind a core-decomposition plot, and the
    statistic compared against null models in the E17 bench. *)

type round_stats = {
  rounds : int;
  (** Number of synchronous peeling rounds until the k-core fixpoint —
      the parallel depth of the computation. *)
  batch_sizes : int array;
  (** Vertices deleted in each round. *)
  core_vertices : int;
  core_edges : int;
}

val peel_rounds :
  ?strategy:strategy ->
  ?domains:int ->
  ?deadline:Hp_util.Deadline.t ->
  Hypergraph.t ->
  int ->
  round_stats
(** Batch-synchronous variant of the k-core peel: each round deletes
    every vertex currently below degree k at once.  The round count is
    the depth a parallel implementation would need — the groundwork for
    the parallel algorithm the paper calls for on large hypergraphs
    (Section 3).  The resulting core equals [k_core]'s.  Like every
    other driver, checks [deadline] per deletion and raises
    [Hp_util.Deadline.Expired] when the budget is blown. *)
