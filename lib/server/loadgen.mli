(** Many-connection TCP load generator: the measurement half of the
    [hgtool loadgen] command and the tcp-load CI job.

    Drives a live hgd TCP endpoint with blocking {!Client}s on
    threads — the adversarial traffic shape the event loop absorbs —
    in two phases: one connection alone (the round-trip floor), then
    [connections] concurrent clients running the same mixed
    KCORE/STATS/BATCH/PING workload.  The throughput ratio of the two
    ("scaleup") is a same-host ratio, so the committed baseline
    transfers across machines like the kernel-bench speedup guards.

    Repeated analysis requests are served from the result cache after
    an explicit warm-up pass, so phases measure the socket path and
    event loop, not kernel time. *)

type config = {
  host : string;
  port : int;
  connections : int;        (** Concurrent clients in the loaded phase. *)
  requests_per_conn : int;
  dataset : string option;
      (** Digest to aim KCORE/STATS/POWERLAW at; [None] degrades the
          mix to PING/DATASETS/batches needing no resident dataset. *)
  stalled : int;
      (** Extra connections that send half a request line and hold the
          socket for the whole loaded phase — head-of-line-blocking
          regression pressure, excluded from throughput. *)
  seed : int;               (** Workload-mix PRNG seed. *)
  mutate : float;
      (** Fraction of each client's requests that are
          ADDVERTEX/ADDEDGE/DELEDGE against [dataset] — the WAL +
          incremental k-core repair write path under the same
          concurrency.  Clients delete only edges they added (ids
          remembered from [assigned] replies); ids gone stale under
          concurrent deleters draw an [ERR] that is accounted as a
          [mutation_races], not a failure.  0 (the default) keeps the
          mix read-only; requires [dataset] when positive. *)
}

val default_config : host:string -> port:int -> config
(** 64 connections x 50 requests, no dataset, no stalled extras,
    read-only mix. *)

type percentiles = {
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  max_ms : float;
  mean_ms : float;
}

type phase = {
  label : string;
  connections : int;
  requests : int;           (** Completed with an [OK] reply. *)
  failures : int;           (** Transport errors + [ERR] replies. *)
  mutations : int;          (** Mutation requests acknowledged [OK]. *)
  mutation_races : int;
      (** Mutations rejected with a protocol [ERR] — expected
          write-write contention (stale DELEDGE ids), kept out of
          [failures] so the zero-failure guard still holds. *)
  elapsed_s : float;
  throughput_rps : float;
  latency : percentiles;
}

type report = { single : phase; loaded : phase; scaleup : float }

val run : config -> (report, string) result
(** Warm up, run both phases, aggregate.  [Error] if the server is
    unreachable or rejects the warm-up. *)

val to_json : generated_at:string -> report -> string
(** The BENCH_tcp.json artifact body (newline-terminated). *)

val baseline_scaleup : string -> (float, string) result
(** The committed scaleup in the contents of [bench/tcp_baseline.json]. *)

val check : baseline:float -> report -> (unit, string) result
(** The [--check-tcp] CI guard against {!baseline_scaleup}: every
    request must have succeeded, and the measured scaleup must be at
    least half the baseline's. *)
