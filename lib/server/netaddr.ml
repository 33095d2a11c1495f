(* Shared socket plumbing for the server, the client, and the load
   generator: HOST:PORT parsing, name resolution, socket setup and the
   blocking write, in one place so they agree on defaults. *)

let parse_hostport spec =
  let fail () =
    Error
      (Printf.sprintf
         "%S: expected HOST:PORT or PORT (e.g. 127.0.0.1:7070, 0.0.0.0:7070, 7070)"
         spec)
  in
  match String.rindex_opt spec ':' with
  | None -> (
    (* A bare port listens on / connects to loopback. *)
    match int_of_string_opt spec with
    | Some p when p >= 0 && p < 65536 -> Ok ("127.0.0.1", p)
    | _ -> fail ())
  | Some i -> (
    let host = String.sub spec 0 i in
    let port = String.sub spec (i + 1) (String.length spec - i - 1) in
    match int_of_string_opt port with
    | Some p when p >= 0 && p < 65536 ->
      Ok ((if host = "" then "0.0.0.0" else host), p)
    | _ -> fail ())

let resolve host port =
  match Unix.inet_addr_of_string host with
  | addr -> Ok (Unix.ADDR_INET (addr, port))
  | exception Failure _ -> (
    match
      Unix.getaddrinfo host (string_of_int port)
        [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM; Unix.AI_FAMILY Unix.PF_INET ]
    with
    | { Unix.ai_addr; _ } :: _ -> Ok ai_addr
    | [] | (exception _) -> Error (Printf.sprintf "cannot resolve host %S" host))

let socket_for = function
  | Unix.ADDR_INET (a, _) when Unix.is_inet6_addr a ->
    Unix.socket ~cloexec:true Unix.PF_INET6 Unix.SOCK_STREAM 0
  | Unix.ADDR_INET _ -> Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0
  | Unix.ADDR_UNIX _ -> Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0

(* Bind + listen; returns the fd and the actual port (useful with
   port 0, which the tests and self-hosted loadgen rely on). *)
let bind_listen ~host ~port ~backlog =
  match resolve host port with
  | Error _ as e -> e
  | Ok addr -> (
    let fd = socket_for addr in
    try
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd addr;
      Unix.listen fd backlog;
      let bound =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> port
      in
      Ok (fd, bound)
    with Unix.Unix_error (err, _, _) ->
      (try Unix.close fd with _ -> ());
      Error
        (Printf.sprintf "cannot bind %s:%d: %s" host port
           (Unix.error_message err)))

let connect ~host ~port =
  match resolve host port with
  | Error _ as e -> e
  | Ok addr -> (
    let fd = socket_for addr in
    try
      Unix.connect fd addr;
      (try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ());
      Ok fd
    with Unix.Unix_error (err, _, _) ->
      (try Unix.close fd with _ -> ());
      let detail =
        match err with
        | Unix.ECONNREFUSED -> "connection refused — is hgd --tcp listening?"
        | _ -> Unix.error_message err
      in
      Error (Printf.sprintf "cannot connect to %s:%d: %s" host port detail))

(* How long a blocking write may stall on a full socket buffer
   (cumulative, per call) before the peer is declared a lost cause. *)
let write_stall_budget = 30.0

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off stalled =
    if off < Bytes.length b then begin
      match Unix.write fd b off (Bytes.length b - off) with
      | n -> go (off + n) 0.0
      | exception Unix.Unix_error (EINTR, _, _) -> go off stalled
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
        (* A nonblocking fd or an expired SO_SNDTIMEO: EAGAIN means the
           socket buffer is full, not that the write failed — wait for
           writability in slices and resume, up to the stall budget. *)
        if stalled >= write_stall_budget then
          raise (Unix.Unix_error (Unix.EAGAIN, "write", "stalled past budget"))
        else begin
          (match Unix.select [] [ fd ] [] 0.25 with
          | _ -> ()
          | exception Unix.Unix_error (EINTR, _, _) -> ());
          go off (stalled +. 0.25)
        end
    end
  in
  go 0 0.0
