type t = { fd : Unix.file_descr; input : Framer.t }

type addr = Unix_path of string | Tcp of { host : string; port : int }

let addr_to_string = function
  | Unix_path p -> p
  | Tcp { host; port } -> Printf.sprintf "%s:%d" host port

let connect_addr addr =
  match addr with
  | Tcp { host; port } ->
    Result.map (fun fd -> { fd; input = Framer.create () }) (Netaddr.connect ~host ~port)
  | Unix_path socket_path -> (
    let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket_path) with
    | () -> Ok { fd; input = Framer.create () }
    | exception Unix.Unix_error (err, _, _) ->
      (try Unix.close fd with _ -> ());
      let detail =
        match err with
        | ECONNREFUSED ->
          (* The file exists but nobody is listening: a daemon died
             without unlinking.  A restarting hgd replaces it. *)
          "stale socket — no server listening (restart hgd to replace it)"
        | ENOENT -> "no such socket — is hgd running?"
        | _ -> Unix.error_message err
      in
      Error (Printf.sprintf "cannot connect to %s: %s" socket_path detail))

let connect ~socket_path = connect_addr (Unix_path socket_path)

let close t = try Unix.close t.fd with _ -> ()

(* A wedged or mid-restart server makes reads fail with EAGAIN instead
   of hanging the client. *)
let set_timeout t timeout =
  if timeout > 0.0 then begin
    try
      Unix.setsockopt_float t.fd SO_RCVTIMEO timeout;
      Unix.setsockopt_float t.fd SO_SNDTIMEO timeout
    with Unix.Unix_error _ -> ()
  end

let rec read_line t =
  match Framer.line t.input with
  | `Line line -> Ok line
  | `End -> Error "connection closed by server"
  | `Tail tail ->
    (* EOF with an unterminated tail buffered: the server (or the path
       to it) died mid-reply.  Surface it as a distinct error so callers
       can tell a torn reply from a clean close.  The "truncated reply"
       prefix is part of the contract. *)
    Error
      (Printf.sprintf "truncated reply: connection closed with %d unterminated bytes"
         (String.length tail))
  | `Oversized ->
    Error (Printf.sprintf "reply line exceeds %d bytes" Protocol.max_line_bytes)
  | `Await -> (
    let buf = Bytes.create 4096 in
    match Unix.read t.fd buf 0 (Bytes.length buf) with
    | 0 ->
      Framer.feed_eof t.input;
      read_line t
    | n ->
      Framer.feed t.input buf n;
      read_line t
    | exception Unix.Unix_error (EINTR, _, _) -> read_line t
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
      Error "timed out waiting for reply"
    | exception Unix.Unix_error (err, _, _) -> Error (Unix.error_message err))

let read_reply_after t header =
  let ( let* ) = Result.bind in
  (* Reassemble the framed lines and reuse the one decoder. *)
  if String.length header >= 3 && String.sub header 0 3 = "OK " then
    match int_of_string_opt (String.sub header 3 (String.length header - 3)) with
    | None -> Error ("bad OK header: " ^ header)
    | Some n ->
      let rec gather acc i =
        if i = n then Ok (List.rev acc)
        else
          let* line = read_line t in
          gather (line :: acc) (i + 1)
      in
      let* body = gather [] 0 in
      Protocol.decode_reply (String.concat "\n" ((header :: body) @ [ "" ]))
  else Protocol.decode_reply (header ^ "\n")

let read_reply t =
  match read_line t with
  | Error _ as e -> e
  | Ok header -> read_reply_after t header

let request_line t line =
  match Netaddr.write_all t.fd (line ^ "\n") with
  | () -> read_reply t
  | exception Unix.Unix_error (err, _, _) -> (
    (* An admission-rejected connection is answered (ERR busy) and
       closed before the server ever reads; the write then fails but
       the reply is already sitting in the receive buffer. *)
    match read_reply t with
    | Ok _ as salvaged -> salvaged
    | Error _ -> Error (Unix.error_message err))

let request t req = request_line t (Protocol.request_line req)

(* Ship bytes verbatim with no terminator and read nothing back: the
   partial-frame tests and the load generator's stalled clients need
   to leave half a request sitting in the server's line buffer. *)
let send_raw t s = Netaddr.write_all t.fd s

(* ---------- pipelined batches ---------- *)

type batch_reply =
  | Items of (Protocol.reply, string) result list
  | Refused of Protocol.reply

let batch_lines t lines =
  let ( let* ) = Result.bind in
  let n = List.length lines in
  if n = 0 then Error "empty batch"
  else if n > Protocol.max_batch_items then
    Error
      (Printf.sprintf "batch of %d items exceeds the protocol cap of %d" n
         Protocol.max_batch_items)
  else begin
    let buf = Buffer.create (64 * (n + 1)) in
    Buffer.add_string buf (Protocol.request_line (Protocol.Batch n));
    Buffer.add_char buf '\n';
    List.iter
      (fun line ->
        Buffer.add_string buf line;
        Buffer.add_char buf '\n')
      lines;
    let* () =
      match Netaddr.write_all t.fd (Buffer.contents buf) with
      | () -> Ok ()
      | exception Unix.Unix_error (err, _, _) -> Error (Unix.error_message err)
    in
    let* first = read_line t in
    match Protocol.parse_item_line first with
    | None ->
      (* Un-tagged header: the server answered the whole batch with a
         single reply (admission rejection, malformed header). *)
      let* reply = read_reply_after t first in
      Ok (Refused reply)
    | Some _ ->
      (* Item replies arrive 0..n-1 in order, each flushed as soon as
         the server computes it — consume them as they land. *)
      let rec items acc i =
        if i >= n then Ok (Items (List.rev acc))
        else
          let* tag = if i = 0 then Ok first else read_line t in
          match Protocol.parse_item_line tag with
          | Some j when j = i ->
            let reply =
              match read_reply t with
              | Ok r -> Ok r
              | Error e -> Error e
            in
            (* A transport failure mid-stream kills the rest of the
               batch: framing is lost once a read breaks. *)
            (match reply with
            | Error e when i < n - 1 ->
              Error (Printf.sprintf "batch item %d: %s" i e)
            | _ -> items (reply :: acc) (i + 1))
          | _ -> Error (Printf.sprintf "bad batch framing: expected ITEM %d, got %S" i tag)
      in
      items [] 0
  end

let batch t reqs = batch_lines t (List.map Protocol.request_line reqs)

let with_connection_addr addr f =
  match connect_addr addr with
  | Error _ as e -> e
  | Ok t -> Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

let with_connection ~socket_path f = with_connection_addr (Unix_path socket_path) f

(* ---------- retrying calls ---------- *)

type retry_policy = {
  retries : int;
  base_delay_ms : int;
  max_delay_ms : int;
  timeout : float;
  seed : int;
}

let default_policy =
  { retries = 3; base_delay_ms = 100; max_delay_ms = 5000; timeout = 0.0; seed = 0x6a09 }

let retry_delay_ms ~policy ~prng ~attempt ~hint_ms =
  if attempt < 1 then invalid_arg "Client.retry_delay_ms: attempt < 1";
  let exp = min (attempt - 1) 20 in
  let ceiling = min (policy.base_delay_ms * (1 lsl exp)) policy.max_delay_ms in
  (* Equal jitter over [ceiling/2, ceiling], lifted — not clamped — by
     the server's retry_after_ms hint.  The previous scheme took
     [max hint jittered], which collapses to exactly [hint] whenever
     the hint dominates: every rejected client in a herd slept the
     same server-quoted delay and re-collided.  Instead the hint
     floors the *window*, so jitter survives:

      lo = max hint (ceiling/2)
      hi = min (max ceiling (hint + ceiling/2)) (hint + max_delay_ms)
      delay uniform in [lo, hi]

     Invariants (unit-tested): hint <= delay <= hint + max_delay_ms;
     without a hint this is the plain equal-jitter schedule; the
     window never degenerates while ceiling >= 2. *)
  let hint = match hint_ms with Some h -> max 0 h | None -> 0 in
  let lo = max hint (ceiling / 2) in
  let hi = min (max ceiling (hint + (ceiling / 2))) (hint + policy.max_delay_ms) in
  let hi = max hi lo in
  lo + int_of_float (Hp_util.Prng.float prng *. float_of_int (hi - lo + 1))

let call_addr ?(policy = default_policy) ~addr req =
  let prng = Hp_util.Prng.create policy.seed in
  let attempt_once () =
    match connect_addr addr with
    | Error msg -> `Transport msg
    | Ok t ->
      Fun.protect
        ~finally:(fun () -> close t)
        (fun () ->
          set_timeout t policy.timeout;
          match request t req with
          | Ok (Protocol.Err { code = Protocol.Busy; retry_after_ms; _ } as reply)
            ->
            `Busy (reply, retry_after_ms)
          | Ok reply -> `Done reply
          | Error msg -> `Transport msg)
  in
  let rec go attempt =
    match attempt_once () with
    | `Done reply -> Ok reply
    | (`Busy _ | `Transport _) as outcome ->
      if attempt > policy.retries then
        match outcome with
        | `Busy (reply, _) -> Ok reply
        | `Transport msg ->
          Error (Printf.sprintf "%s (after %d attempts)" msg attempt)
      else begin
        let hint_ms =
          match outcome with `Busy (_, h) -> h | `Transport _ -> None
        in
        let delay = retry_delay_ms ~policy ~prng ~attempt ~hint_ms in
        Unix.sleepf (float_of_int delay /. 1000.0);
        go (attempt + 1)
      end
  in
  go 1

let call ?policy ~socket_path req = call_addr ?policy ~addr:(Unix_path socket_path) req
