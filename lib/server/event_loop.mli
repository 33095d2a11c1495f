(** Nonblocking TCP front end: one loop domain multiplexes every
    socket with {!Poller} (epoll, or select as fallback), does the
    line framing in user space, and hands fully-framed requests to the
    worker pool.  Compute never runs on the loop; the loop never
    blocks on a client.

    Per-connection state is a read buffer (bytes that arrived but do
    not yet form a complete frame) and a write outbox (reply bytes the
    kernel has not accepted yet).  A frame is a request line, or — for
    [BATCH n] — the header plus its [n] item lines.  At most one frame
    per connection is in flight at a time, which preserves the
    protocol's reply-ordering guarantee; further pipelined frames wait
    in the read buffer.  A connection whose read buffer outgrows the
    frame cap is answered with an error and closed; one whose outbox
    outgrows [max_outbox_bytes] is dropped as a slow consumer
    ([slow_client_overflows]).  Writes that fail with
    [EPIPE]/[ECONNRESET] close the connection and count
    [client_disconnects]; [EAGAIN] parks the bytes until the poller
    reports writability again, so a stalled reader costs memory, never
    a worker or the loop.

    Listeners tagged [`Http] (and any protocol-port connection whose
    first line is an HTTP request line) are served by the [on_http]
    callback: one request per connection, response flushed, closed. *)

type t
type conn

(** What the loop parsed off the wire for the workers. *)
type payload =
  | Single of string  (** one request line, CR/LF stripped *)
  | Batch of { header : string; n : int; items : string list }
      (** a [BATCH n] header plus exactly [n] item lines *)

(** What to do with a framed request, decided synchronously by the
    server (admission control lives there).  [Dispatched] means a
    worker owns it and will call {!send} then {!finish}; the reply
    variants carry pre-encoded bytes the loop writes itself. *)
type verdict =
  | Dispatched
  | Reply_now of string  (** write, keep the connection open *)
  | Reply_close of string  (** write, then close *)
  | Close_now  (** close without a reply *)

(** [create ~metrics ~on_request ~on_http ~listeners ()] takes
    ownership of the (already bound and listening) [listeners] and
    spawns the loop domain.  [on_request] is called on the loop domain
    with the loop lock held — it must only enqueue work and return.
    It is handed the loop itself, so work it dispatches can {!send}
    and {!finish} even before [create] has returned.
    [on_http] receives the raw request head (request line first) and
    returns the full response bytes. *)
val create :
  ?backend:[ `Auto | `Select ] ->
  ?max_connections:int ->
  ?max_outbox_bytes:int ->
  metrics:Metrics.t ->
  on_request:(t -> conn -> payload -> verdict) ->
  on_http:(peer:string -> string list -> string) ->
  listeners:(Unix.file_descr * [ `Protocol | `Http ]) list ->
  unit ->
  t

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

(** Currently-open client connections (gauge). *)
val connections : t -> int

(** Backend actually in use: ["epoll"] or ["select"]. *)
val backend : t -> string

(** Peer address of a connection, for logs ("ip:port" or socket path). *)
val peer : conn -> string
