(** The one reader of protocol bytes: a per-connection input buffer
    that turns what arrived on a socket into lines and frames.  Pure —
    it owns no socket; the caller reads however its transport reads
    (the event loop nonblockingly, a Unix worker and the client with
    blocking reads), {!feed}s the bytes, and asks for the next line or
    frame until it gets [`Await].

    {b Lines.}  A line ends at ['\n']; one trailing ['\r'] is
    stripped.  A line longer than {!Protocol.max_line_bytes} (the
    bytes before its ['\n'], a ['\r'] included), or more than that
    buffered with no newline, is [`Oversized]: the caller refuses it
    and drops the connection, and the framer is not used again.
    After {!feed_eof}, an unterminated last line comes back once as
    [`Tail], then [`End].

    {b Frames.}  A frame is a request line, or a [BATCH n] header
    plus exactly its [n] item lines.  Blank lines between frames are
    skipped (inside a run they are items).  An unterminated last line
    is still served as a request, but EOF inside a run — before all
    [n] items arrived, or with the last item unterminated — drops the
    run: no frame, just [`End]. *)

type payload =
  | Single of string  (** one request line, CR/LF stripped *)
  | Batch of { header : string; n : int; items : string list }
      (** a [BATCH n] header plus exactly [n] item lines *)

type t

val create : unit -> t

val feed : t -> Bytes.t -> int -> unit
(** [feed t b n] appends the first [n] bytes of [b]. *)

val feed_eof : t -> unit
(** The peer will send nothing more. *)

val eof : t -> bool
(** Whether {!feed_eof} was called. *)

val buffered : t -> int
(** Bytes fed but not yet consumed as lines. *)

type line = [ `Line of string | `Tail of string | `Oversized | `Await | `End ]
(** [`Line]: a terminated line.  [`Tail]: the unterminated last line,
    after EOF.  [`Await]: no complete line yet; feed more.  [`End]: EOF
    and nothing left. *)

val line : t -> line
(** Consume the next line. *)

val peek_line : t -> line
(** The next line, left in the buffer (the HTTP sniff of a
    connection's first line). *)

val frame : t -> [ `Frame of payload | `Oversized | `Await | `End ]
(** Consume lines up to the next complete frame. *)
