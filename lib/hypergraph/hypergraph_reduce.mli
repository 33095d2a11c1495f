(** Reduced hypergraphs and hyperedge overlaps (paper Section 3).

    A reduced hypergraph is one in which every hyperedge is maximal:
    no hyperedge is contained in another.  The k-core is defined over
    reduced subhypergraphs, so the peel drops non-maximal hyperedges
    before it starts (inside its own state, see {!Hypergraph_core}).

    Containment is detected the way the paper proposes: by counting
    pairwise overlaps rather than comparing vertex lists — f is
    contained in g exactly when overlap(f, g) = degree(f).
    {!overlap_pairs} is the one pairwise-overlap routine: the peel's
    overlap graph, {!non_maximal_edges} and the intersection graph's
    weights ({!Hypergraph_convert.intersection_weights}) all read it. *)

type pairs = {
  keys : int array;
  (** [f * n_edges + g] with [f < g], strictly ascending — that is,
      [(f, g)] in lexicographic order *)
  counts : int array;  (** number of vertices the pair shares, >= 1 *)
  len : int;           (** valid prefix of [keys] and [counts] *)
}

val overlap_pairs : ?domains:int -> Hypergraph.t -> pairs
(** Every pair of distinct hyperedges sharing at least one vertex, with
    its shared-vertex count.  Each vertex of degree d emits d(d-1)/2
    pair keys into flat per-domain buffers, which are radix-sorted and
    run-length merged: the paper's O(sum d(v)^2) term, with no
    hashing.  The result is the same at any [domains] (default 1). *)

val overlaps : Hypergraph.t -> (int * int * int) list
(** {!overlap_pairs} as a list of [(f, g, count)] with [f < g], in
    lexicographic order. *)

val empty_survivor : Hypergraph.t -> int
(** The empty hyperedge that reduction keeps, or [-1].  An empty
    hyperedge is contained in every other one, so one survives only
    when every hyperedge is empty, and then it is hyperedge 0. *)

val non_maximal_edges : Hypergraph.t -> int array
(** Hyperedges contained in (or equal to) another hyperedge, sorted.
    Among hyperedges with identical member sets all but the one with
    the smallest id are reported (the paper leaves the tie-break
    unspecified; this choice is documented in DESIGN.md).  Empty
    hyperedges are reported when some hyperedge is non-empty; when all
    are empty, all but hyperedge 0 are ({!empty_survivor}). *)

val reduce : Hypergraph.t -> Hypergraph.t * int array
(** Remove non-maximal hyperedges.  Returns the reduced hypergraph
    (all vertices kept) and the new-to-old hyperedge id map. *)
