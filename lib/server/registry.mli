(** Resident datasets, keyed by content digest, with live mutation
    under a per-dataset write-ahead log.

    [load] reads a [.hg] or [.mtx] file once — digesting the bytes
    (MD5, hex) in the same pass as the read — parses it, and keeps the
    hypergraph resident; loading a file whose content is already
    resident is a no-op that returns the existing entry, so the digest
    is a stable identity for the result cache no matter how many paths
    or reloads point at it.

    {2 Handle vs. epoch}

    The entry's [digest] is the dataset's {e handle}: its content
    identity at epoch 0.  Mutations ({!mutate}) do not change the
    handle — they bump the entry's monotone [epoch], and the pair
    [(handle, epoch)] names a specific state (the result cache keys on
    it).  The handle survives restarts, recoveries and checkpoints
    because the WAL header records it.

    {2 Durability}

    Each mutation is appended to the dataset's sibling [.hgwal]
    ({!Hp_wal.Wal}) {e before} it is applied, so an acknowledged
    mutation survives a crash.  {!checkpoint} compacts log + state
    into a fresh sibling [.hgsnap] (atomic rename) and starts an empty
    log over it, bounding recovery time by writes-since-checkpoint;
    the epoch is {e not} reset.  [create]'s [checkpoint_every] makes
    this automatic.

    {2 Load precedence}

    When a sibling [.hgwal] exists, it drives recovery: the base it
    folds over is resolved by identity — (1) a sibling snapshot whose
    identity matches the log's base wins; (2) the text file whose
    digest matches is next; (3) a loadable snapshot with a different
    identity is checkpoint/log skew from a crash between the
    checkpoint's two renames — the snapshot (which already contains
    every logged record) is adopted and the log retired; (4) anything
    else is a typed [Base_skew].  A torn WAL tail is truncated and
    recovery proceeds — it is the expected crash shape, not an error.

    Without a WAL, the old rules apply: a [.hgsnap] path is mmap-loaded
    through {!Hp_snapshot.Snapshot} directly, and a text path whose
    sibling snapshot ([dataset.hgsnap] next to [dataset.hg], at least
    as new as it) exists loads from the snapshot instead of
    re-parsing.  A sibling that fails validation is logged, recorded
    as [fallback], and the text file is parsed as if it had no
    sibling — corruption degrades to a slow load, never an outage.

    All operations are serialized by an internal mutex and safe to call
    from concurrent worker domains.  Readers should take
    [entry.state] with a single field read: the
    [{epoch; hypergraph; cores}] record is replaced wholesale by
    mutations, never updated in place.

    {2 Maintained core decomposition}

    Every mutation also advances an incrementally maintained k-core
    decomposition ({!Hp_hypergraph.Hypergraph_maintain}): instead of
    re-peeling the whole hypergraph per KCORE query, the mutation
    repairs only the overlap-connected region it touched (with a full
    re-peel fallback when the region outgrows the repair budget).  The
    result is published in [state.cores], bit-identical to a fresh
    [decompose ~domains:1] of [state.hypergraph].  [cores] is [None]
    only for never-mutated datasets — queries on those compute (and
    the server caches) on demand; after WAL recovery of a mutated
    dataset it is rebuilt eagerly so KCORE answers never regress to
    stale state. *)

type source =
  | Text                     (** Parsed from the dataset file's bytes. *)
  | Snapshot_file of string  (** Mapped from the named [.hgsnap]. *)

type state = {
  epoch : int;  (** Mutations applied since epoch 0; monotone. *)
  hypergraph : Hp_hypergraph.Hypergraph.t;
  cores : Hp_hypergraph.Hypergraph_core.decomposition option;
      (** Maintained core decomposition of [hypergraph]; [None] until
          the dataset is first mutated (see above).  Immutable
          snapshot — repairs install fresh records, never mutate. *)
}

type recovery = {
  replayed : int;     (** WAL records folded over the base at load. *)
  torn_bytes : int;   (** Torn-tail bytes truncated at load (0 = clean). *)
  healed_skew : bool; (** Checkpoint/log skew healed (see above). *)
}

type entry = {
  digest : string;  (** The handle: MD5 identity at epoch 0 (see above). *)
  path : string;    (** Path given at first load. *)
  bytes : int;      (** Size of the file actually loaded. *)
  loaded_at : float;
  source : source;
  fallback : bool;  (** A sibling snapshot existed but was rejected. *)
  recovery : recovery option;
      (** Present iff the entry was recovered through a WAL. *)
  mutable state : state;
  mutable live : Hp_wal.Live.t option;      (* registry-internal *)
  mutable maint : Hp_hypergraph.Hypergraph_maintain.t option;
                                            (* registry-internal *)
  mutable wal : Hp_wal.Wal.writer option;   (* registry-internal *)
  mutable wal_records : int;                (* registry-internal *)
  mutable wal_base_identity : string;       (* registry-internal *)
  mutable wal_base_epoch : int;             (* registry-internal *)
}

type t

val create :
  ?max_file_bytes:int ->
  ?wal_sync:Hp_wal.Wal.sync_policy ->
  ?checkpoint_every:int ->
  unit ->
  t
(** [max_file_bytes] (default 0 = unlimited) rejects dataset files
    larger than the cap with [Read_failed] before reading (or mapping)
    them, so a runaway input cannot OOM the daemon.  [wal_sync]
    (default [Batch]) is the fsync policy for WAL appends.
    [checkpoint_every] (default 0 = manual only) auto-compacts a
    dataset's log whenever it accumulates that many records. *)

type load_error =
  | Read_failed of string   (** I/O: missing file, permissions, ... *)
  | Parse_failed of string  (** Malformed content; message names file and line. *)

val load : t -> string -> (entry * bool, load_error) result
(** [load t path] returns the resident entry and whether this call
    loaded it fresh ([true]) or found it by digest ([false]). *)

val find : t -> string -> [ `Found of entry | `Ambiguous | `Missing ]
(** Exact digest, or a digest prefix of at least 4 characters that
    matches exactly one resident dataset. *)

val evict : t -> string -> entry option
(** Drop a dataset (addressed as in [find]), closing its WAL writer;
    returns the dropped entry. *)

val list : t -> entry list
(** Resident datasets, oldest first. *)

val sync_wals : t -> unit
(** fsync every open WAL writer (shutdown hook; makes [Batch]/[Never]
    tails durable before exit). *)

type applied = {
  epoch : int;           (** The epoch this mutation created. *)
  assigned : int option; (** Dense id given to an added vertex/edge. *)
  n_vertices : int;
  n_edges : int;
  checkpointed : bool;   (** An auto-checkpoint ran after the apply. *)
  repair : Hp_hypergraph.Hypergraph_maintain.outcome;
      (** How the maintained decomposition absorbed this mutation
          (bounded incremental repair vs. full re-peel). *)
}

val mutate :
  t ->
  string ->
  Hp_wal.Wal.op ->
  (applied, [ `Missing | `Ambiguous | `Invalid of string | `Io of string ])
  result
(** The one-op case of {!mutate_batch}: validate the op against the
    dataset's current state, append it to the WAL, then apply it and
    publish the new [state].  [`Invalid] (client error) and [`Io]
    (append/WAL-create failure) leave the state untouched — an op is
    applied iff it is durable — and a rejected op opens no WAL. *)

type batch_item = {
  b_epoch : int;           (** The epoch this op created. *)
  b_assigned : int option; (** Dense id given to an added vertex/edge. *)
  b_n_vertices : int;      (** Counts immediately after this op. *)
  b_n_edges : int;
}

type batch_result = {
  items :
    (batch_item, [ `Invalid of string | `Io of string ]) result array;
      (** One per input op, in order; [`Invalid] is the client-facing
          rejection for that op, [`Io] a WAL append failure (or the
          abort it forced on the rest of the burst). *)
  batch_repair : Hp_hypergraph.Hypergraph_maintain.outcome option;
      (** The single repair that absorbed every applied op; [None]
          when nothing applied. *)
  batch_applied : int;
  batch_checkpointed : bool;
}

val mutate_batch :
  t ->
  string ->
  Hp_wal.Wal.op list ->
  (batch_result, [ `Missing | `Ambiguous | `Io of string ]) result
(** Apply a burst of mutations under one lock acquisition with a
    single decomposition repair
    ({!Hp_hypergraph.Hypergraph_maintain.apply_batch}) and one state
    publish at the end, amortizing the repair across the burst.  Ops
    validate sequentially against the evolving state; an invalid op is
    skipped with a per-item error and the burst continues — item
    outcomes match what the same sequence through {!mutate} would have
    produced.  A WAL append failure aborts the remaining ops (they
    were never acknowledged); already-appended ops stay applied.
    The WAL writer opens at the first op that validates; [`Io] is
    returned only when it cannot be created, before anything is
    applied. *)

type checkpoint_info = {
  snapshot_path : string;
  snapshot_identity : string;
  snapshot_bytes : int;
  at_epoch : int;
  records_folded : int;  (** WAL records compacted away. *)
}

val checkpoint :
  t -> string -> (checkpoint_info, [ `Missing | `Ambiguous | `Io of string ]) result
(** Pack the dataset's current state to its sibling [.hgsnap]
    (atomic), then start a fresh empty WAL over it (atomic).  The
    epoch is unchanged; only recovery cost shrinks. *)
