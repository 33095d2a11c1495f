(** Socket plumbing shared by the server, client, and loadgen. *)

(** Parse ["HOST:PORT"] or a bare ["PORT"].  An empty host
    (e.g. [":7070"]) means all interfaces; a bare port means
    loopback. *)
val parse_hostport : string -> (string * int, string) result

val resolve : string -> int -> (Unix.sockaddr, string) result

(** Bind + listen with [SO_REUSEADDR]; returns the fd and the bound
    port (which differs from the requested one when asking for
    port 0 — tests and the self-hosted loadgen depend on that). *)
val bind_listen :
  host:string -> port:int -> backlog:int -> (Unix.file_descr * int, string) result

(** Connect with [TCP_NODELAY]; diagnoses ECONNREFUSED. *)
val connect : host:string -> port:int -> (Unix.file_descr, string) result

(** Write all of [s], retrying [EINTR] and waiting out [EAGAIN] (a
    full buffer or an expired [SO_SNDTIMEO]) in 0.25 s slices; past a
    30 s cumulative stall it raises [Unix_error (EAGAIN, ...)].  Other
    errors ([EPIPE], [ECONNRESET], ...) are raised as they come. *)
val write_all : Unix.file_descr -> string -> unit
