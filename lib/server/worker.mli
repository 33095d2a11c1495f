(** A supervised, bounded pool of worker domains draining a shared
    job queue.

    The server's event loop hands each job to the pool — a whole
    Unix-socket connection, or one framed TCP request; workers run the
    handler to completion and pull the next job.  Jobs are processed
    FIFO.

    {b Exception containment.}  A handler exception is captured, not
    swallowed: the pool counts it ({!exceptions}) and reports it
    through [on_exception] (the server logs it and bumps the
    [worker_exceptions] metric), then the worker moves to the next
    job.  Exceptions matching the [lethal] predicate (the fault
    harness's {!Hp_util.Fault.Killed}, by default nothing) instead
    kill the worker domain; a supervisor domain detects the death,
    respawns a replacement into the same slot, and bumps
    {!restarts} — so a crashed worker costs one in-flight job, never
    pool capacity.

    {b Backpressure.}  The queue is bounded by [max_pending]:
    {!submit} refuses jobs beyond it with [`Busy], carrying the
    current depth so the caller can derive a retry hint.

    Sizing follows {!Hp_util.Parallel.recommended_domains} by default —
    the same domain budget the analysis kernels use for their fork-join
    phases. *)

type 'a t

val create :
  ?workers:int ->
  ?max_pending:int ->
  ?lethal:(exn -> bool) ->
  ?on_exception:(exn -> unit) ->
  ('a -> unit) ->
  'a t
(** Spawns the worker domains and the supervisor immediately.
    [workers] defaults to [Hp_util.Parallel.recommended_domains ()];
    raises [Invalid_argument] when [workers < 1].  [max_pending]
    (default 0 = unbounded) caps the queue of jobs not yet picked up.
    [lethal] (default [fun _ -> false]) selects the exceptions that
    kill a worker instead of being captured.  [on_exception] is called
    in the worker domain for every captured handler exception; its own
    exceptions are discarded. *)

val size : 'a t -> int

val pending : 'a t -> int
(** Jobs queued but not yet picked up. *)

val exceptions : 'a t -> int
(** Handler exceptions captured so far. *)

val restarts : 'a t -> int
(** Worker domains respawned after a lethal crash. *)

val submit : 'a t -> 'a -> [ `Accepted | `Busy of int | `Stopping ]
(** Enqueue a job.  [`Busy pending] when the bounded queue is full
    (the job is dropped; [pending] is the queue depth observed);
    [`Stopping] once [shutdown] has begun.  In both refusal cases the
    caller should dispose of the job. *)

val shutdown : 'a t -> unit
(** Stop accepting jobs, finish everything already queued, and join
    the supervisor and worker domains.  Idempotent. *)
