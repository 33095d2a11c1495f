(** The hgd daemon: a Unix-domain-socket (and optionally TCP) server
    holding datasets resident and memoizing analyses.

    Architecture: one {!Event_loop} domain accepts on every listener.
    A Unix-socket connection is handed, blocking, to a fixed {!Worker}
    pool; its worker reads it frame by frame — a request line, or a
    [BATCH] header with all its item lines — until the client
    disconnects.  With [tcp] (and/or [http]) configured, the loop also
    keeps every TCP connection, nonblockingly, framing requests the
    same way and submitting each frame to the same worker pool, one at
    a time per connection — so a slow or stalled client costs buffer
    memory, never a worker or the accept path.  One {!Framer} turns
    bytes into frames on both transports.

    Both transports serve a frame through one request core, which
    writes each reply as soon as it is computed.  Inside a frame,
    every maximal run of mutations on one dataset — a lone mutation
    request is a run of one — is one {!Registry.mutate_batch}: one
    lock, one WAL window, one k-core repair.  The transports differ
    only in socket I/O and admission.
    The loop also answers HTTP [GET /metrics] (Prometheus text) and
    [GET /healthz]: on the dedicated [http] port, and on the [tcp]
    port for any connection whose first line is an HTTP request line.
    Analyses go through the {!Result_cache} (keyed by dataset content
    digest and canonical request), datasets through the {!Registry};
    every request is timed into {!Metrics}.

    Failure containment: each worker runs under a supervisor that
    respawns it if a job kills the domain (counted under
    [worker_restarts]); non-lethal handler exceptions are captured into
    [ERR internal] replies and the [worker_exceptions] counter.  The
    [request_timeout] is a cooperative deadline ({!Hp_util.Deadline})
    threaded into the k-core and path kernels, so an over-budget
    k-core or diameter request aborts mid-computation with
    [ERR timeout]; analyses without deadline checks still report the
    overrun after the fact.  Admission control bounds the job queue at
    [queue_limit]: an overflowing Unix connection gets an [ERR busy]
    carrying a [retry_after_ms] hint at the door and is closed, an
    overflowing TCP request gets the same reply on its open
    connection, and once the queue passes [shed_watermark] analyses
    are served from cache only.

    Malformed input at any layer — unparsable or oversized request
    line, unknown dataset, unreadable, oversized, or malformed file —
    produces a structured [ERR] reply, never a crash or a dropped
    connection. *)

type config = {
  socket_path : string;
  workers : int;          (** Worker pool size. *)
  cache_capacity : int;   (** Result-cache entry budget. *)
  request_timeout : float;(** Seconds; 0 disables the deadline. *)
  compute_domains : int;  (** Domains handed to the analysis kernels. *)
  preload : string list;  (** Datasets loaded before accepting. *)
  queue_limit : int;
  (** Max jobs waiting for a worker before [ERR busy]; a job is a
      Unix-socket connection or one TCP request. *)
  shed_watermark : int;
  (** Queue depth at which analyses become cache-only; <= 0 disables
      shedding. *)
  max_file_bytes : int;
  (** Reject dataset files larger than this (0 = unlimited). *)
  failpoints : string;
  (** {!Hp_util.Fault.configure} spec armed at [start]; [""] arms
      nothing.  Test-only. *)
  stats_samples : int;
  (** When > 0 and smaller than the vertex count, [STATS] estimates
      diameter and average path from this many sampled BFS sources
      (deterministic seed, so the cached result is reproducible)
      instead of the exact all-pairs sweep.  0 = exact. *)
  cache_file : string option;
  (** Warm-start file for the result cache: restored (if present and
      valid) before the first connection is accepted, saved on clean
      shutdown after the workers drain.  Restored entries are counted
      under [cache_restored]; a corrupt file logs a warning and starts
      cold.  [None] (the default) keeps the cache memory-only. *)
  wal_sync : Hp_wal.Wal.sync_policy;
  (** fsync policy for WAL appends ([--wal-sync]): [Always] makes
      every acknowledged mutation power-loss durable, [Batch] (the
      default) fsyncs every {!Hp_wal.Wal.batch_every} appends and on
      shutdown, [Never] leaves flushing to the OS.  All three survive
      a process kill (the write itself is synchronous); the policy
      only governs what an OS/power failure can take. *)
  wal_checkpoint_every : int;
  (** Auto-compact a dataset's WAL into a fresh sibling snapshot after
      this many records ([--wal-checkpoint-every]); 0 (the default)
      compacts only on explicit [CHECKPOINT]. *)
  tcp : (string * int) option;
  (** Also serve the text protocol over TCP on this host/port
      ([--tcp HOST:PORT]), via the nonblocking event loop.  Port 0
      binds an ephemeral port, readable back via {!tcp_port}. *)
  http : (string * int) option;
  (** Dedicated HTTP port for [GET /metrics] and [GET /healthz]
      ([--http HOST:PORT]); both are also served on the [tcp] port by
      first-line sniffing, so this is for deployments that firewall
      the protocol port away from scrapers. *)
}

val default_config : socket_path:string -> config
(** Workers from {!Hp_util.Parallel.recommended_domains}, 128 cache
    entries, 30 s timeout, single-domain kernels, no preload, queue
    limit 128, shed watermark 64, 1 GiB file cap, no failpoints,
    exact path sweeps ([stats_samples = 0]), no cache file, [Batch]
    WAL sync, manual checkpoints only, no TCP or HTTP port. *)

type t

val start : config -> (t, string) result
(** Bind the socket (replacing a stale file), preload datasets, spawn
    the pool and the event loop, and return without blocking.
    [Error] on bind failure or a preload that does not parse. *)

val stop : t -> unit
(** Initiate shutdown (as the [SHUTDOWN] verb does) and wait for
    workers to drain.  Idempotent. *)

val request_stop : t -> unit
(** Initiate shutdown without blocking — safe from a signal handler;
    pair with [wait]. *)

val wait : t -> unit
(** Block until the server has shut down — via [stop] or a client's
    [SHUTDOWN] — and its socket file is removed. *)

val run : config -> (unit, string) result
(** [start] then [wait]; the foreground entry point used by [hgd] and
    [hgtool serve]. *)

val socket_path : t -> string

val tcp_port : t -> int option
(** The bound TCP port, when [config.tcp] was given — the actual
    kernel-assigned port if 0 was requested. *)

val http_port : t -> int option
(** Likewise for the dedicated HTTP port. *)
