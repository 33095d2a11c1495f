(** The protein complex hypergraph model (paper Section 1.3).

    A hypergraph H = (V, F) has vertices [0 .. n_vertices-1] (proteins)
    and hyperedges [0 .. n_edges-1] (complexes); each hyperedge is a
    set of vertices of arbitrary cardinality, stored as a strictly
    increasing integer array.  Incidence is kept in both directions:
    members of a hyperedge, and hyperedges of a vertex.

    The degree of a vertex is the number of hyperedges containing it;
    the degree of a hyperedge is the number of vertices it contains.
    |E| denotes the total incidence (sum of either degree family) — the
    space needed to represent the hypergraph, the quantity the paper's
    complexity bounds are expressed in. *)

type t

(** {1 Construction} *)

val create :
  ?vertex_names:string array ->
  ?edge_names:string array ->
  n_vertices:int ->
  int list list ->
  t
(** [create ~n_vertices members] builds a hypergraph whose i-th
    hyperedge contains the vertices in the i-th list (duplicates within
    a list collapse).  Name arrays, when given, must match the vertex
    and edge counts.  Raises [Invalid_argument] on out-of-range
    members. *)

val of_arrays :
  ?vertex_names:string array ->
  ?edge_names:string array ->
  n_vertices:int ->
  int array array ->
  t

val of_csr_exn :
  ?rows_validated:bool ->
  ?vertex_names:string array ->
  ?edge_names:string array ->
  n_vertices:int ->
  edges:int array array ->
  vadj:int array array ->
  unit ->
  t
(** Adopt both incidence directions as given, without sorting: every
    [edges] row must be strictly increasing and in range, and [vadj]
    must be exactly the reverse incidence of [edges] (row [v] lists, in
    increasing order, the edges containing [v]).  Everything is
    verified in O(|E|); [Invalid_argument] names the violated
    invariant.  This is the fast path for loaders whose on-disk format
    already stores canonical CSR (see {!Hp_snapshot.Snapshot}).

    [rows_validated] (default [false]) promises that every [edges] row
    is already known to be strictly increasing with values in
    [0, n_vertices), and skips that pass; the [vadj]-consistency sweep
    still runs.  Only pass [true] when the caller itself performed the
    check — the sweep indexes by member vertex without bounds checks on
    the strength of that promise. *)

val of_csr_unchecked :
  ?vertex_names:string array ->
  ?edge_names:string array ->
  n_vertices:int ->
  edges:int array array ->
  vadj:int array array ->
  unit ->
  t
(** {!of_csr_exn} with no check at all, in O(1): the caller vouches
    for every invariant {!of_csr_exn} verifies, names included.  Only
    for a publisher that derives the next hypergraph from a checked
    one, row by row ({!Hp_wal.Live.to_hypergraph}, whose output is
    property-tested against {!of_arrays}); [of_csr_exn]'s O(|E|)
    sweep took a quarter to a third of each publish there. *)

(** {1 Sizes and degrees} *)

val n_vertices : t -> int

val n_edges : t -> int

val total_incidence : t -> int
(** |E| = sum over vertices of degree = sum over hyperedges of size. *)

val vertex_degree : t -> int -> int

val edge_size : t -> int -> int
(** The paper calls this the degree of the hyperedge. *)

val max_vertex_degree : t -> int
(** Delta_V. *)

val max_edge_size : t -> int
(** Delta_F. *)

val edge_members : t -> int -> int array
(** Sorted member vertices.  The row is shared, and never to be
    mutated: {!Hp_wal.Live} publishes each epoch of a mutated dataset
    by sharing the previous epoch's rows, so one row can belong to
    many hypergraphs at once, each possibly still held by a reader. *)

val vertex_edges : t -> int -> int array
(** Sorted incident hyperedge ids.  Shared between epochs like
    {!edge_members}'s rows: never to be mutated. *)

val mem : t -> vertex:int -> edge:int -> bool

val vertex_degrees : t -> int array

val edge_sizes : t -> int array

(** {1 Two-step adjacency (paper Section 3)} *)

val edge_degree2 : t -> int -> int
(** d_2(f): number of other hyperedges sharing at least one vertex
    with f. *)

val max_edge_degree2 : t -> int
(** Delta_2F, the parameter in the k-core complexity bound. *)

val vertex_degree2 : t -> int -> int
(** d_2(v): number of distinct vertices other than v co-occurring with
    v in some hyperedge (reachable by a length-2 path in B(H)). *)

(** {1 Names} *)

val vertex_name : t -> int -> string
(** The stored name, or ["v<i>"] when names were not provided. *)

val edge_name : t -> int -> string
(** The stored name, or ["e<i>"] when names were not provided. *)

val vertex_of_name : t -> string -> int option

val edge_of_name : t -> string -> int option

val vertex_names_opt : t -> string array option
(** The stored name array, if names were provided (shared; do not
    mutate). *)

val edge_names_opt : t -> string array option

(** {1 Derived hypergraphs} *)

val sub : t -> vertices:int array -> edges:int array -> t * int array * int array
(** [sub h ~vertices ~edges] keeps the given vertices and hyperedges,
    restricting each kept hyperedge to kept members (hyperedges that
    become empty are kept as empty edges only if explicitly listed).
    The id arrays may be unsorted and may repeat ids; the kept sets are
    their distinct ids, numbered in ascending order.  Returns the
    subhypergraph and the new-to-old id maps for vertices and edges
    (ascending).  Names are carried over.  O(|V| + |F| + the kept
    hyperedges' sizes), with no sort.  Raises [Invalid_argument]
    ["Hypergraph.sub: vertex id <i> out of range"] (or [edge id]) for
    an id outside [0, n_vertices) (or [0, n_edges)). *)

val is_reduced : t -> bool
(** True when no hyperedge is contained in (or equal to) another. *)

val equal_structure : t -> t -> bool
(** Same vertex count and identical member arrays (names ignored). *)

val pp : Format.formatter -> t -> unit
(** One line per hyperedge, using names. *)
