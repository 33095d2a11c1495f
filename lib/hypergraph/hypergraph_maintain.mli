(** Incremental maintenance of {!Hypergraph_core.decomposition} across
    a mutation stream (DESIGN.md sections 13 and 15).

    A maintainer owns the current hypergraph and its decomposition.
    Each mutation, or burst of mutations, repairs the decomposition
    through one two-rung ladder:

    - the subcore cascade: bound the band of core levels the burst can
      disturb, rebuild the peel boundary at the band floor B (vertices
      with core >= B, hyperedges with core >= B restricted to them),
      collect the overlap component(s) of the burst inside that
      boundary, and resume the canonical sweep from level B on just
      that region ({!Hypergraph_core.resume_peel}).  Repair cost is
      O(affected subcore).
    - else one full re-peel.  It serves the bursts with no sound band
      floor: a new hyperedge containing a live one, a deletion that
      resurfaces a previously non-maximal hyperedge, an entangled
      burst, a floor of 0, and any empty hyperedge anywhere (its
      survival is a whole-hypergraph property in
      {!Hypergraph_reduce}).  A region that exceeds the budget also
      re-peels, and is additionally counted in [budget_fallbacks].

    A burst made only of vertex appends is an O(1) repair plus the
    array copy, counted as a cascade whose region is the appended
    vertices.

    The maintained decomposition is bit-identical to
    [Hypergraph_core.decompose ~domains:1] of the current hypergraph
    after every mutation and after every batch (differential-tested
    across randomized and adversarial schedules in test_kcore_inc.ml).
    Published {!decomposition} records are immutable: every repair
    installs fresh arrays (or shares provably-unchanged ones), so a
    reader holding a snapshot is never affected by later mutations. *)

type t

type stats = {
  mutable cascade_repairs : int;
      (** Mutations (or batches) absorbed by a subcore cascade,
          vertex appends included. *)
  mutable repair_visited : int;
      (** Total vertices + hyperedges visited across all cascades. *)
  mutable full_repeels : int;
      (** Mutations (or batches) repaired by a full re-peel. *)
  mutable budget_fallbacks : int;
      (** The subset of [full_repeels] forced by a blown region
          budget. *)
}

type outcome =
  | Cascade of int  (** subcore region size visited *)
  | Repeel

(** A mutation shape for {!apply_batch}: the structural effect only —
    members are recovered from the [after] hypergraph, so callers
    replaying a WAL or applying a burst need not carry payloads. *)
type op = Op_add_vertex | Op_add_edge | Op_del_edge of int

val default_budget : int
(** 4096: the region budget {!create} uses when given none. *)

val create : ?budget:int -> Hypergraph.t -> t
(** Full initial peel.  [budget] (default {!default_budget}) bounds
    the vertices + hyperedges a cascade region may visit before the
    repair falls back to a full re-peel. *)

val decomposition : t -> Hypergraph_core.decomposition
(** The current decomposition — an immutable snapshot record. *)

val hypergraph : t -> Hypergraph.t
(** The hypergraph the current decomposition describes. *)

val stats : t -> stats

val add_vertex : t -> after:Hypergraph.t -> outcome
(** [after] = current hypergraph with exactly one (isolated) vertex
    appended.  The one-op case of {!apply_batch}: [Cascade 1]. *)

val add_edge : t -> after:Hypergraph.t -> outcome
(** [after] = current hypergraph with exactly one hyperedge appended
    (members over existing vertices).  The one-op case of
    {!apply_batch}. *)

val del_edge : t -> after:Hypergraph.t -> edge:int -> outcome
(** [after] = current hypergraph with hyperedge [edge] removed and
    later hyperedge ids shifted down by one (the WAL replay state's
    deletion semantics).  The one-op case of {!apply_batch}. *)

val apply_batch : t -> after:Hypergraph.t -> ops:op list -> outcome
(** Apply a whole burst of mutations with one repair: [after] must be
    the maintainer's current hypergraph with [ops] applied in order
    (vertex and hyperedge appends at the end, deletions shifting later
    hyperedge ids down — Wal_live semantics).  One band, one region,
    one resumed sweep, so WAL-replay recovery and rewiring bursts
    amortize the repair cost across the batch.  A burst of [n] vertex
    appends alone is answered in O(1) as [Cascade n]. *)
