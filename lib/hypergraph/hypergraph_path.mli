(** Paths and connectivity in a hypergraph (paper Section 1.3).

    A path is an alternating sequence of vertices and hyperedges; its
    length is the number of hyperedges in it, i.e. half the hop count
    of the corresponding walk in the bipartite graph B(H).  The
    distance between two vertices is the length of a shortest path;
    the diameter is the maximum distance over connected pairs. *)

val bfs : Hypergraph.t -> int -> int array
(** [bfs h v] gives the hyperedge-counting distance from [v] to every
    vertex ([-1] when unreachable, [0] for [v] itself).  A plain
    one-source BFS: the oracle the sweeps below must agree with. *)

val distance : Hypergraph.t -> int -> int -> int option

val components : Hypergraph.t -> int array * int array * int
(** [(vertex_label, edge_label, count)]: connected-component labels for
    vertices and hyperedges.  An empty hyperedge forms its own
    component; an isolated vertex likewise. *)

val n_components : Hypergraph.t -> int

val component_summary : Hypergraph.t -> (int * int) array
(** Per component, [(n_vertices, n_edges)], sorted by decreasing vertex
    count. *)

val largest_component : Hypergraph.t -> Hypergraph.t * int array * int array
(** The subhypergraph induced by a component with the most vertices,
    plus new-to-old id maps. *)

type sweep_stats
(** Profiling hook for the sweeps: pass one cell in and read the
    completed-source count out, even after a deadline abort.  Safe to
    share across the sweep's worker domains. *)

val sweep_stats : unit -> sweep_stats

val sources_visited : sweep_stats -> int
(** Sources whose pass ran to completion so far.  A pass carries
    [Sys.int_size] sources and is counted whole when it finishes, so
    an aborted sweep reports a multiple of that (or the total). *)

val diameter_and_average_path :
  ?domains:int -> ?deadline:Hp_util.Deadline.t -> ?stats:sweep_stats ->
  Hypergraph.t -> int * float
(** Exact all-pairs sweep over vertices: [(diameter, average path
    length)] over reachable ordered pairs of distinct vertices, equal
    to folding {!bfs} over every source.  The sweep is a bit-parallel
    BFS that advances [Sys.int_size] sources per pass; passes fan out
    over [domains] (default 1) — see [Hp_util.Parallel] and the E20
    bench.  [deadline] (default {!Hp_util.Deadline.never}) is checked
    before every pass and at every BFS level;
    [Hp_util.Deadline.Expired] aborts the sweep across all domains. *)

val sampled_diameter_and_average_path :
  ?domains:int -> ?deadline:Hp_util.Deadline.t -> ?stats:sweep_stats ->
  Hp_util.Prng.t -> Hypergraph.t -> samples:int -> int * float
(** Estimate from BFS at sampled source vertices, for large inputs.
    The sources are [samples] successive [Hp_util.Prng.int rng n]
    draws ([n] the vertex count), repeats included, and the result
    equals folding {!bfs} over them.  [domains] / [deadline] behave
    exactly as in the exact sweep; the source sample depends only on
    the rng, so the estimate is identical at any domain count. *)
