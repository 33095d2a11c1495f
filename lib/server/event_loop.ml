module P = Protocol
module Log = Hp_util.Log

external fd_int : Unix.file_descr -> int = "%identity"

type verdict =
  | Dispatched
  | Reply_now of string
  | Reply_close of string
  | Close_now

type listener = [ `Protocol | `Http | `Handoff ]

(* A protocol-port connection is [Sniffing] until its first line shows
   whether it speaks the protocol or HTTP. *)
type mode = Sniffing | Proto | Http_mode

type conn = {
  fd : Unix.file_descr;
  peer : string;
  mutable mode : mode;
  input : Framer.t;
  mutable http_lines : string list;  (* reversed request head *)
  (* Write side: whole reply strings plus an offset into the head. *)
  outq : string Queue.t;
  mutable out_off : int;
  mutable out_bytes : int;
  mutable in_flight : bool;
  mutable read_paused : bool;
  mutable closing : bool;  (* flush outbox, then close *)
  mutable closed : bool;
  mutable registered : bool;
  mutable cur_mask : int;
}

type handlers = {
  on_request : conn -> [ `Frame of Framer.payload | `Oversized ] -> verdict;
  on_http : peer:string -> string list -> string;
  on_handoff : Unix.file_descr -> [ `Taken | `Refused of string ];
}

type t = {
  poller : Poller.t;
  metrics : Metrics.t;
  (* Set by [start], before the loop domain exists; nothing calls them
     earlier, since nothing is polled before the domain runs. *)
  mutable handlers : handlers;
  listeners : (Unix.file_descr * listener) list;
  conns : (int, conn) Hashtbl.t;
  (* Mirror of [Hashtbl.length conns], readable without [mu]: the
     /metrics gauge is rendered from inside the HTTP handler, which
     already runs under the loop mutex. *)
  conn_count : int Atomic.t;
  mu : Mutex.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  max_connections : int;
  max_outbox_bytes : int;
  (* Loop-domain state.  Every read of a loop-served connection lands
     in [read_buf]; [Framer.feed] copies it out. *)
  read_buf : Bytes.t;
  mutable small_minor_heap : bool;
  quiescing : bool Atomic.t;
  stopping : bool Atomic.t;
  mutable listeners_closed : bool;
  mutable domain : unit Domain.t option;
}

(* The loop domain's minor heap, in words (128 KiB; a domain's default
   is 256k words, 2 MiB).  In OCaml 5 each domain has its own minor
   heap, but a minor collection stops every domain and empties all of
   them.  Once reads and replies stop allocating on the major heap, no
   major slice forces those collections, so hgd's workers fill and
   touch their whole minor heaps; the loop, allocating per request,
   fills a small heap first and brings collections back.  Set lazily,
   on the first loop-served connection: [Gc.set] on a running domain
   forces one collection across all domains (1.2-1.5 ms at hgd
   start-up), which a Unix-only hgd, whose loop only accepts, never
   needs.  [Gc.set] changes the calling domain's heap only. *)
let loop_minor_heap_words = 16_384

(* More than a max line plus a read chunk buffered without a complete
   frame means either an oversized line (rejected) or aggressive
   pipelining while a request is in flight (reads pause: that is the
   backpressure). *)
let max_buffered = P.max_line_bytes + (64 * 1024)

let peer_string fd =
  match Unix.getpeername fd with
  | Unix.ADDR_INET (a, p) -> Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
  | Unix.ADDR_UNIX s -> if s = "" then "unix" else s
  | exception _ -> "?"

let buffered c = Framer.buffered c.input

(* ---------- poller interest ---------- *)

let want_mask c =
  (if (not (Framer.eof c.input)) && (not c.read_paused) && not c.closing then Poller.read
   else 0)
  lor if c.out_bytes > 0 then Poller.write else 0

let update_interest t c =
  if not c.closed then begin
    let m = want_mask c in
    if m = 0 then begin
      if c.registered then begin
        Poller.remove t.poller c.fd;
        c.registered <- false;
        c.cur_mask <- 0
      end
    end
    else if not c.registered then begin
      Poller.add t.poller c.fd m;
      c.registered <- true;
      c.cur_mask <- m
    end
    else if m <> c.cur_mask then begin
      Poller.modify t.poller c.fd m;
      c.cur_mask <- m
    end
  end

(* ---------- connection teardown ---------- *)

let close_conn t c ~abnormal =
  if not c.closed then begin
    c.closed <- true;
    if c.registered then Poller.remove t.poller c.fd;
    c.registered <- false;
    Hashtbl.remove t.conns (fd_int c.fd);
    Atomic.decr t.conn_count;
    (try Unix.close c.fd with _ -> ());
    if abnormal then Metrics.incr t.metrics "client_disconnects"
  end

(* ---------- write path ---------- *)

let rec flush_conn t c =
  if not c.closed then
    match Queue.peek_opt c.outq with
    | None ->
      if c.closing then close_conn t c ~abnormal:false else update_interest t c
    | Some chunk -> (
      let len = String.length chunk - c.out_off in
      match Unix.write_substring c.fd chunk c.out_off len with
      | n ->
        c.out_bytes <- c.out_bytes - n;
        if n = len then begin
          ignore (Queue.pop c.outq);
          c.out_off <- 0
        end
        else c.out_off <- c.out_off + n;
        flush_conn t c
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
        update_interest t c
      | exception Unix.Unix_error (EINTR, _, _) -> flush_conn t c
      | exception Unix.Unix_error (_, _, _) ->
        (* EPIPE/ECONNRESET and friends: the peer is gone with a reply
           owed — exactly what client_disconnects counts. *)
        close_conn t c ~abnormal:true)

let enqueue t c s =
  if (not c.closed) && s <> "" then begin
    Queue.push s c.outq;
    c.out_bytes <- c.out_bytes + String.length s;
    if c.out_bytes > t.max_outbox_bytes then begin
      Metrics.incr t.metrics "slow_client_overflows";
      Log.warn ~comp:"event_loop"
        ~fields:[ ("peer", c.peer); ("outbox_bytes", string_of_int c.out_bytes) ]
        "slow client dropped: outbox over cap";
      close_conn t c ~abnormal:false
    end
  end

(* ---------- framing ---------- *)

let is_http_request line =
  match Http.parse_request_line line with
  | Some r -> (
    match r.Http.meth with
    | "GET" | "HEAD" | "POST" | "PUT" | "DELETE" | "OPTIONS" -> true
    | _ -> false)
  | None -> false

let close_when_flushed t c =
  c.closing <- true;
  flush_conn t c

let reply_close t c s =
  enqueue t c s;
  close_when_flushed t c

let dispatch t c request =
  c.in_flight <- true;
  match t.handlers.on_request c request with
  | Dispatched -> ()
  | Reply_now s ->
    c.in_flight <- false;
    enqueue t c s;
    flush_conn t c
  | Reply_close s ->
    c.in_flight <- false;
    reply_close t c s
  | Close_now ->
    c.in_flight <- false;
    close_conn t c ~abnormal:false

let serve_http t c =
  let lines = List.rev c.http_lines in
  c.http_lines <- [];
  Metrics.incr t.metrics "http_requests";
  let resp =
    try t.handlers.on_http ~peer:c.peer lines
    with e ->
      Log.warn ~comp:"event_loop"
        ~fields:[ ("peer", c.peer); ("exn", Printexc.to_string e) ]
        "http handler exception";
      Http.response ~status:500 "internal error\n"
  in
  reply_close t c resp

let http_line t c line =
  if String.trim line = "" then begin
    if c.http_lines <> [] then serve_http t c
  end
  else if List.length c.http_lines > 100 then
    reply_close t c (Http.response ~status:400 "too many header lines\n")
  else c.http_lines <- line :: c.http_lines

(* Dispatch as many frames as the in-flight limit allows.  The framer
   only answers [`Await] before EOF, which is when a paused read may
   resume; at EOF it gives the last frame or line, then [`End]. *)
let rec process_frames t c =
  if (not c.closed) && (not c.closing) && not c.in_flight then
    match c.mode with
    | Sniffing -> (
      match Framer.peek_line c.input with
      | `Await -> await_input t c
      | `Line l when is_http_request l ->
        c.mode <- Http_mode;
        process_frames t c
      | _ ->
        c.mode <- Proto;
        process_frames t c)
    | Proto -> (
      match Framer.frame c.input with
      | `Frame p ->
        dispatch t c (`Frame p);
        process_frames t c
      | `Oversized -> dispatch t c `Oversized
      | `Await -> await_input t c
      | `End -> close_when_flushed t c)
    | Http_mode -> (
      match Framer.line c.input with
      | `Line l ->
        http_line t c l;
        process_frames t c
      | `Oversized ->
        Metrics.incr t.metrics "oversized_requests";
        reply_close t c (Http.response ~status:400 "request too large\n")
      | `Await -> await_input t c
      | `Tail _ | `End ->
        (* A head its client ended by shutting down the write side,
           not by a blank line, is answered anyway. *)
        if c.http_lines <> [] then serve_http t c else close_when_flushed t c)

and await_input t c =
  if c.read_paused && buffered c < max_buffered then begin
    c.read_paused <- false;
    update_interest t c
  end

(* ---------- read path ---------- *)

let rec read_input t c budget =
  if (not c.closed) && not (Framer.eof c.input) then begin
    if buffered c > max_buffered then begin
      c.read_paused <- true;
      update_interest t c
    end
    else begin
      match Unix.read c.fd t.read_buf 0 (Bytes.length t.read_buf) with
      | 0 ->
        Framer.feed_eof c.input;
        update_interest t c;
        process_frames t c
      | n ->
        Framer.feed c.input t.read_buf n;
        process_frames t c;
        if budget > 1 then read_input t c (budget - 1)
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (EINTR, _, _) -> read_input t c budget
      | exception Unix.Unix_error (_, _, _) ->
        close_conn t c ~abnormal:(c.in_flight || c.out_bytes > 0)
    end
  end

(* ---------- accept path ---------- *)

let use_small_minor_heap t =
  if not t.small_minor_heap then begin
    t.small_minor_heap <- true;
    Gc.set { (Gc.get ()) with minor_heap_size = loop_minor_heap_words }
  end

let add_conn t fd mode =
  Unix.set_nonblock fd;
  (try Unix.setsockopt fd TCP_NODELAY true with _ -> ());
  let c =
    {
      fd;
      peer = peer_string fd;
      mode;
      input = Framer.create ();
      http_lines = [];
      outq = Queue.create ();
      out_off = 0;
      out_bytes = 0;
      in_flight = false;
      read_paused = false;
      closing = false;
      closed = false;
      registered = false;
      cur_mask = 0;
    }
  in
  Hashtbl.replace t.conns (fd_int fd) c;
  Atomic.incr t.conn_count;
  update_interest t c;
  c

(* A hand-off connection is served elsewhere with blocking I/O; where
   [accept] passes on the listener's O_NONBLOCK (not on Linux), it
   must be cleared.  A refusal is written and closed from the
   outbox, like any loop connection's last reply. *)
let handoff t fd =
  Unix.clear_nonblock fd;
  match t.handlers.on_handoff fd with
  | `Taken -> ()
  | `Refused reply -> reply_close t (add_conn t fd Proto) reply

let rec accept_all t lfd kind =
  match Unix.accept ~cloexec:true lfd with
  | fd, _ ->
    (if Atomic.get t.quiescing || Atomic.get t.stopping then (
       try Unix.close fd with _ -> ())
     else
       match kind with
       | `Handoff -> handoff t fd
       | `Protocol | `Http when Hashtbl.length t.conns >= t.max_connections -> (
         Metrics.incr t.metrics "conn_limit_rejections";
         try Unix.close fd with _ -> ())
       | `Protocol ->
         use_small_minor_heap t;
         Metrics.incr t.metrics "tcp_connections";
         ignore (add_conn t fd Sniffing)
       | `Http ->
         use_small_minor_heap t;
         Metrics.incr t.metrics "http_connections";
         ignore (add_conn t fd Http_mode));
    accept_all t lfd kind
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (EINTR, _, _) -> accept_all t lfd kind
  | exception Unix.Unix_error (_, _, _) -> ()

(* ---------- the loop ---------- *)

let drain_wake t =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read t.wake_r buf 0 (Bytes.length buf) with
    | n when n > 0 -> go ()
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

let wake t =
  try ignore (Unix.write_substring t.wake_w "w" 0 1)
  with Unix.Unix_error _ -> ()

let close_listeners t =
  if not t.listeners_closed then begin
    t.listeners_closed <- true;
    List.iter
      (fun (fd, _) ->
        Poller.remove t.poller fd;
        try Unix.close fd with _ -> ())
      t.listeners
  end

let handle_event t (fd, flags) =
  if fd = t.wake_r then drain_wake t
  else
    match List.find_opt (fun (lfd, _) -> lfd = fd) t.listeners with
    | Some (lfd, kind) -> if not t.listeners_closed then accept_all t lfd kind
    | None -> (
      match Hashtbl.find_opt t.conns (fd_int fd) with
      | None -> ()
      | Some c ->
        if flags land Poller.write <> 0 then flush_conn t c;
        if (not c.closed) && flags land Poller.read <> 0 then read_input t c 8)

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* On stop, give pending outboxes a short window to reach the kernel
   (a SHUTDOWN client deserves its reply), then tear everything down. *)
let drain_and_close t =
  let deadline = Unix.gettimeofday () +. 1.0 in
  let rec go () =
    let owed =
      locked t (fun () ->
          close_listeners t;
          Hashtbl.fold (fun _ c acc -> acc || c.out_bytes > 0) t.conns false)
    in
    if owed && Unix.gettimeofday () < deadline then begin
      let evs = Poller.wait t.poller ~timeout_ms:50 in
      locked t (fun () -> List.iter (handle_event t) evs);
      go ()
    end
  in
  go ();
  locked t (fun () ->
      let cs = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
      List.iter (fun c -> close_conn t c ~abnormal:false) cs;
      Poller.remove t.poller t.wake_r;
      (try Unix.close t.wake_r with _ -> ());
      (try Unix.close t.wake_w with _ -> ());
      Poller.close t.poller)

let run t =
  let rec go () =
    let evs = Poller.wait t.poller ~timeout_ms:250 in
    locked t (fun () ->
        List.iter (handle_event t) evs;
        if Atomic.get t.quiescing then close_listeners t);
    if Atomic.get t.stopping then drain_and_close t else go ()
  in
  go ()

(* ---------- public API ---------- *)

let create ?backend ?(max_connections = 1024) ?(max_outbox_bytes = 16 lsl 20)
    ~metrics ~listeners () =
  let poller = Poller.create ?backend () in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  Poller.add poller wake_r Poller.read;
  List.iter
    (fun (fd, _) ->
      Unix.set_nonblock fd;
      Poller.add poller fd Poller.read)
    listeners;
  let unstarted _ = invalid_arg "Event_loop: not started" in
  {
    poller;
    metrics;
    handlers =
        {
        on_request = unstarted;
        on_http = (fun ~peer:_ -> unstarted);
        on_handoff = unstarted;
      };
    listeners;
    conns = Hashtbl.create 64;
    conn_count = Atomic.make 0;
    mu = Mutex.create ();
    wake_r;
    wake_w;
    max_connections;
    max_outbox_bytes;
    read_buf = Bytes.create 16384;
    small_minor_heap = false;
    quiescing = Atomic.make false;
    stopping = Atomic.make false;
    listeners_closed = false;
    domain = None;
  }

let start t ~on_request ~on_http ~on_handoff =
  t.handlers <- { on_request; on_http; on_handoff };
  t.domain <- Some (Domain.spawn (fun () -> run t));
  Log.info ~comp:"event_loop"
    ~fields:
      [
        ("backend", Poller.backend t.poller);
        ("listeners", string_of_int (List.length t.listeners));
      ]
    "event loop started"

let send t c s =
  locked t (fun () ->
      if not c.closed then begin
        enqueue t c s;
        flush_conn t c
      end)

let finish t c ~close =
  locked t (fun () ->
      if not c.closed then begin
        c.in_flight <- false;
        if close then close_when_flushed t c
        else begin
          process_frames t c;
          if not c.closed then update_interest t c
        end
      end)

let quiesce t =
  if not (Atomic.exchange t.quiescing true) then wake t

let stop t =
  Atomic.set t.quiescing true;
  if not (Atomic.exchange t.stopping true) then wake t

let join t =
  match t.domain with
  | Some d ->
    t.domain <- None;
    Domain.join d
  | None -> ()

let connections t = Atomic.get t.conn_count
let backend t = Poller.backend t.poller
let peer c = c.peer
