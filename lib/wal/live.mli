(** Live mutable dataset state: the dense vertex/edge lists a
    registered hypergraph becomes once mutation traffic starts.

    The structure mirrors the on-wire ops exactly — vertices and
    hyperedges are appended at the next dense id, [Del_edge] shifts
    later edges down — so folding the same op sequence over the same
    base always reconstructs the same state, whether the ops come from
    a client connection or a WAL replay.  Names are always
    materialized (defaulting to ["v<i>"] / ["e<i>"] when the base had
    none), so a checkpoint snapshot is self-describing.

    Not thread-safe; the registry serializes access under its mutex. *)

type t

val of_hypergraph : Hp_hypergraph.Hypergraph.t -> t
(** Adopts the hypergraph as the last published one and shares its
    member rows (rows are never mutated; see
    {!Hp_hypergraph.Hypergraph.edge_members}). *)

val n_vertices : t -> int

val n_edges : t -> int

val validate : t -> Wal.op -> (unit, string) result
(** Check an op against the current state: non-empty, not-yet-taken
    name for [Add_vertex] (vertex names are external identity — the
    text format collapses equal names on parse, so a duplicate would
    create a state no text round trip can represent), member vertices
    in range for [Add_edge], edge id in range for [Del_edge].  The
    message is client-facing. *)

val apply_exn : t -> Wal.op -> int option
(** Apply a {!validate}d op; returns the assigned dense id for adds,
    [None] for deletes.  Behaviour on an invalid op is unspecified
    (may raise [Invalid_argument]).  Touches no incidence row: an add
    costs O(size of the hyperedge), a delete O(E) pointer moves. *)

val apply : t -> Wal.op -> (int option, string) result
(** [validate] then [apply_exn]. *)

val to_hypergraph : t -> Hp_hypergraph.Hypergraph.t
(** Publish the current state as the successor of the last published
    (or adopted) hypergraph, which it then becomes.  Member rows are
    shared, vertex names too when no vertex was added, and the outer
    arrays are copied: O(V + E) pointers.  An incidence row is rebuilt
    only for a vertex of a hyperedge added, deleted or moved down since
    the last publish, with no sort; every other row is shared.  Equal
    to a rebuild of the same rows with
    {!Hp_hypergraph.Hypergraph.of_arrays}, names included, and no
    earlier hypergraph is changed. *)
