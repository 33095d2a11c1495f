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
      burst, a new hyperedge over a vertex the same burst created, a
      floor of 0, and any empty hyperedge anywhere (its survival is a
      whole-hypergraph property in {!Hypergraph_reduce}).  A region
      that exceeds the budget also re-peels.  Each re-peel is counted
      under exactly one {!reason}.

    The re-peel starts from the overlap graph of the hypergraph the
    maintainer last peeled, kept across bursts and advanced to the
    current one only when a re-peel needs it
    ({!Hypergraph_core.advance_overlap}): a burst the cascade repairs
    only replays its ops over the graph's id map ({!Origin}).

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

(** Why a burst took the full re-peel.  The cascade stops at the first
    reason it finds. *)
type reason =
  | Swallow  (** an added hyperedge contains a live one *)
  | Resurface
      (** a deleted hyperedge contained another, which can resurface *)
  | Entangled
      (** the burst deleted a hyperedge it had added (or its ops do not
          lead to [after]) *)
  | New_member  (** an added hyperedge has a vertex the burst created *)
  | Empty_edge  (** an empty hyperedge is present or added *)
  | Zero_floor  (** the band floor reached 0 *)
  | Budget  (** the cascade's region walk blew the budget *)

val reasons : reason list
(** Every reason, in declaration order. *)

val reason_name : reason -> string
(** ["swallow"], ["resurface"], ["entangled"], ["new_member"],
    ["empty_edge"], ["zero_floor"], ["budget"]. *)

type stats = {
  mutable cascade_repairs : int;
      (** Mutations (or batches) absorbed by a subcore cascade,
          vertex appends included. *)
  mutable repair_visited : int;
      (** Total vertices + hyperedges visited across all cascades. *)
  mutable full_repeels : int;
      (** Mutations (or batches) repaired by a full re-peel: the sum
          of the per-reason counts below. *)
  mutable budget_fallbacks : int;
      (** The re-peels forced by a blown region budget ([Budget]). *)
  mutable swallow_repeels : int;
  mutable resurface_repeels : int;
  mutable entangled_repeels : int;
  mutable new_member_repeels : int;
  mutable empty_edge_repeels : int;
  mutable zero_floor_repeels : int;
}

val repeels : stats -> reason -> int
(** The re-peels counted under one reason ([Budget] reads
    [budget_fallbacks]). *)

type outcome =
  | Cascade of int  (** subcore region size visited *)
  | Repeel of reason

(** A mutation shape for {!apply_batch}: the structural effect only —
    members are recovered from the [after] hypergraph, so callers
    replaying a WAL or applying a burst need not carry payloads. *)
type op = Op_add_vertex | Op_add_edge | Op_del_edge of int

(** Hyperedge ids across a run of appends and shifting deletions: for
    each current hyperedge, its id when the run started, or [-1] for
    one added since.  Survivors keep their relative order and added
    hyperedges take the top ids, so the map is what
    {!Hypergraph_core.advance_overlap} takes.  One bookkeeping for
    every place that follows ids across mutations: a burst's replay
    here, and the publish of {!Hp_wal.Live}. *)
module Origin : sig
  type t

  val start : int -> t
  (** The identity over [n] hyperedges. *)

  val reset : t -> int -> unit
  (** Restart as {!start}, reusing the storage. *)

  val length : t -> int
  (** The current hyperedge count. *)

  val add : t -> unit
  (** Append a hyperedge. *)

  val delete : t -> int -> int
  (** [delete o k] removes current hyperedge [k], shifting later ids
      down, and returns its id at the start ([-1] for one added
      since).  Raises [Invalid_argument] when [k] is out of range. *)

  val to_array : t -> int array
end

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

val overlap : t -> Hypergraph_core.overlap
(** The overlap graph of {!hypergraph}, advanced from the kept one
    (which stays as it is) — what the next re-peel would start from.
    For tests: it must equal [Hypergraph_core.overlap_graph
    (hypergraph t)]. *)

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
