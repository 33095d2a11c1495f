(** hgd's front door: one loop domain multiplexes every listener and
    every TCP connection with {!Poller} (epoll, or select as
    fallback).  Compute never runs on the loop; the loop never blocks
    on a client.

    Listeners come in three kinds.  A [`Handoff] listener (the Unix
    socket) is only accepted here: each connection's fd is handed,
    blocking, to [on_handoff], which serves it elsewhere (a worker
    owns it until the client leaves) or refuses it — the refusal is
    written from the loop's outbox and the connection closed.  A
    [`Protocol] listener (TCP) keeps its connections on the loop: a
    {!Framer} per connection turns the bytes into frames, each handed
    to [on_request], which queues it for a worker.  At most one frame
    per connection is in flight at a time, which preserves the
    protocol's reply-ordering guarantee; further pipelined frames wait
    in the read buffer.  A connection whose read buffer outgrows the
    line cap is refused through [on_request] and closed; one whose
    outbox outgrows [max_outbox_bytes] is dropped as a slow consumer
    ([slow_client_overflows]).  Writes that fail with
    [EPIPE]/[ECONNRESET] close the connection and count
    [client_disconnects]; [EAGAIN] parks the bytes until the poller
    reports writability again, so a stalled reader costs memory, never
    a worker or the loop.

    [`Http] listeners (and any protocol-port connection whose first
    line is an HTTP request line) are served by [on_http]: one request
    per connection, response flushed, closed. *)

type t
type conn

type listener = [ `Protocol | `Http | `Handoff ]

(** What to do with a framed request, decided synchronously by the
    server (admission control lives there).  [Dispatched] means a
    worker owns it and will call {!send} then {!finish}; the reply
    variants carry pre-encoded bytes the loop writes itself. *)
type verdict =
  | Dispatched
  | Reply_now of string  (** write, keep the connection open *)
  | Reply_close of string  (** write, then close *)
  | Close_now  (** close without a reply *)

(** [create ~metrics ~listeners ()] takes ownership of the (already
    bound and listening) [listeners] and registers them; nothing is
    accepted until {!start}. *)
val create :
  ?backend:[ `Auto | `Select ] ->
  ?max_connections:int ->
  ?max_outbox_bytes:int ->
  metrics:Metrics.t ->
  listeners:(Unix.file_descr * listener) list ->
  unit ->
  t

(** Spawn the loop domain.  The handlers run on it with the loop lock
    held, so they must only queue work and return.  [on_request] gets
    a protocol frame, or [`Oversized] for a line past
    {!Protocol.max_line_bytes}.  [on_http] receives the raw request
    head (request line first) and returns the full response bytes.
    [on_handoff] gets each [`Handoff] connection's fd in blocking
    mode; [`Taken] means it owns the fd now. *)
val start :
  t ->
  on_request:(conn -> [ `Frame of Framer.payload | `Oversized ] -> verdict) ->
  on_http:(peer:string -> string list -> string) ->
  on_handoff:(Unix.file_descr -> [ `Taken | `Refused of string ]) ->
  unit

(** Queue reply bytes on a connection and flush as far as the kernel
    allows.  Callable from any thread.  Silently dropped if the
    connection died meanwhile. *)
val send : t -> conn -> string -> unit

(** Mark the in-flight request done.  [close:true] flushes the outbox
    and closes (SHUTDOWN, fatal framing errors); otherwise the next
    buffered frame, if any, is dispatched.  Callable from any thread. *)
val finish : t -> conn -> close:bool -> unit

(** Stop accepting new connections; established ones keep being
    served.  Idempotent. *)
val quiesce : t -> unit

(** Ask the loop to exit: listeners and connections are closed after a
    short best-effort flush of pending outboxes (so a SHUTDOWN reply
    still reaches its client).  Idempotent; [join] waits for it. *)
val stop : t -> unit

val join : t -> unit

(** Currently-open connections the loop serves itself (gauge). *)
val connections : t -> int

(** Backend actually in use: ["epoll"] or ["select"]. *)
val backend : t -> string

(** Peer address of a connection, for logs ("ip:port" or socket path). *)
val peer : conn -> string
