type weighting = Uniform | Degree | Degree_squared

type analysis =
  | Stats
  | Kcore of int option
  | Cover of { weighting : weighting; r : int }
  | Storage
  | Powerlaw

type metrics_format = Table | Prometheus

type request =
  | Load of string
  | Analyze of { dataset : string; analysis : analysis }
  | Add_vertex of { dataset : string; name : string }
  | Add_edge of { dataset : string; name : string; members : int list }
  | Del_edge of { dataset : string; edge : int }
  | Checkpoint of string
  | Datasets
  | Info
  | Metrics of metrics_format
  | Trace of int option
  | Evict of string option
  | Ping
  | Shutdown
  | Batch of int

type error_code =
  | Bad_request
  | Unknown_dataset
  | Parse_error
  | Io_error
  | Timeout
  | Busy
  | Internal

type reply =
  | Ok of (string * string) list
  | Err of { code : error_code; message : string; retry_after_ms : int option }

let err ?retry_after_ms code message = Err { code; message; retry_after_ms }

let weighting_of_string = function
  | "uniform" -> Result.Ok Uniform
  | "degree" -> Result.Ok Degree
  | "degree2" -> Result.Ok Degree_squared
  | s -> Result.Error (Printf.sprintf "unknown weighting %S (uniform|degree|degree2)" s)

let weighting_to_string = function
  | Uniform -> "uniform"
  | Degree -> "degree"
  | Degree_squared -> "degree2"

let error_code_to_string = function
  | Bad_request -> "bad-request"
  | Unknown_dataset -> "unknown-dataset"
  | Parse_error -> "parse-error"
  | Io_error -> "io-error"
  | Timeout -> "timeout"
  | Busy -> "busy"
  | Internal -> "internal"

let error_code_of_string = function
  | "bad-request" -> Some Bad_request
  | "unknown-dataset" -> Some Unknown_dataset
  | "parse-error" -> Some Parse_error
  | "io-error" -> Some Io_error
  | "timeout" -> Some Timeout
  | "busy" -> Some Busy
  | "internal" -> Some Internal
  | _ -> None

(* Upper bound on the number of requests one BATCH may carry: keeps a
   single connection from parking an unbounded amount of work on one
   worker slot. *)
let max_batch_items = 1024

let tokens line =
  String.split_on_char ' ' line |> List.filter (fun s -> s <> "")

let int_arg what s =
  match int_of_string_opt s with
  | Some n -> Result.Ok n
  | None -> Result.Error (Printf.sprintf "%s: expected an integer, got %S" what s)

let parse_request line =
  let ( let* ) = Result.bind in
  match tokens line with
  | [] -> Result.Error "empty request"
  | verb :: args ->
    (match (String.uppercase_ascii verb, args) with
    | "LOAD", [ path ] -> Result.Ok (Load path)
    | "LOAD", _ -> Result.Error "LOAD takes exactly one path"
    | "STATS", [ ds ] -> Result.Ok (Analyze { dataset = ds; analysis = Stats })
    | "STATS", _ -> Result.Error "STATS takes exactly one dataset"
    | "KCORE", [ ds ] -> Result.Ok (Analyze { dataset = ds; analysis = Kcore None })
    | "KCORE", [ ds; k ] ->
      let* k = int_arg "KCORE" k in
      if k < 0 then Result.Error "KCORE: k must be >= 0"
      else Result.Ok (Analyze { dataset = ds; analysis = Kcore (Some k) })
    | "KCORE", _ -> Result.Error "KCORE takes a dataset and an optional k"
    | "COVER", ds :: rest ->
      let* weighting, r =
        match rest with
        | [] -> Result.Ok (Uniform, 1)
        | [ w ] ->
          let* w = weighting_of_string w in
          Result.Ok (w, 1)
        | [ w; r ] ->
          let* w = weighting_of_string w in
          let* r = int_arg "COVER" r in
          if r < 1 then Result.Error "COVER: r must be >= 1" else Result.Ok (w, r)
        | _ -> Result.Error "COVER takes a dataset, an optional weighting and an optional r"
      in
      Result.Ok (Analyze { dataset = ds; analysis = Cover { weighting; r } })
    | "COVER", [] -> Result.Error "COVER takes a dataset"
    | "STORAGE", [ ds ] -> Result.Ok (Analyze { dataset = ds; analysis = Storage })
    | "STORAGE", _ -> Result.Error "STORAGE takes exactly one dataset"
    | "POWERLAW", [ ds ] -> Result.Ok (Analyze { dataset = ds; analysis = Powerlaw })
    | "POWERLAW", _ -> Result.Error "POWERLAW takes exactly one dataset"
    | "ADDVERTEX", [ ds; name ] -> Result.Ok (Add_vertex { dataset = ds; name })
    | "ADDVERTEX", _ -> Result.Error "ADDVERTEX takes a dataset and a vertex name"
    | "ADDEDGE", ds :: name :: members ->
      let* members =
        List.fold_left
          (fun acc m ->
            let* acc = acc in
            let* v = int_arg "ADDEDGE" m in
            if v < 0 then Result.Error "ADDEDGE: member ids must be >= 0"
            else Result.Ok (v :: acc))
          (Result.Ok []) members
      in
      Result.Ok (Add_edge { dataset = ds; name; members = List.rev members })
    | "ADDEDGE", _ ->
      Result.Error "ADDEDGE takes a dataset, an edge name, and member vertex ids"
    | "DELEDGE", [ ds; e ] ->
      let* e = int_arg "DELEDGE" e in
      if e < 0 then Result.Error "DELEDGE: edge id must be >= 0"
      else Result.Ok (Del_edge { dataset = ds; edge = e })
    | "DELEDGE", _ -> Result.Error "DELEDGE takes a dataset and an edge id"
    | "CHECKPOINT", [ ds ] -> Result.Ok (Checkpoint ds)
    | "CHECKPOINT", _ -> Result.Error "CHECKPOINT takes exactly one dataset"
    | "DATASETS", [] -> Result.Ok Datasets
    | "INFO", [] -> Result.Ok Info
    | "INFO", _ -> Result.Error "INFO takes no arguments"
    | "METRICS", [] -> Result.Ok (Metrics Table)
    | "METRICS", [ fmt ] ->
      (match String.lowercase_ascii fmt with
      | "table" | "text" -> Result.Ok (Metrics Table)
      | "prom" | "prometheus" -> Result.Ok (Metrics Prometheus)
      | other ->
        Result.Error (Printf.sprintf "unknown metrics format %S (table|prom)" other))
    | "METRICS", _ -> Result.Error "METRICS takes an optional format (table|prom)"
    | "TRACE", [] -> Result.Ok (Trace None)
    | "TRACE", [ n ] ->
      let* n = int_arg "TRACE" n in
      if n < 1 then Result.Error "TRACE: n must be >= 1"
      else Result.Ok (Trace (Some n))
    | "TRACE", _ -> Result.Error "TRACE takes an optional count"
    | "EVICT", [] -> Result.Ok (Evict None)
    | "EVICT", [ ds ] -> Result.Ok (Evict (Some ds))
    | "EVICT", _ -> Result.Error "EVICT takes at most one dataset"
    | "PING", [] -> Result.Ok Ping
    | "SHUTDOWN", [] -> Result.Ok Shutdown
    | "BATCH", [ n ] ->
      let* n = int_arg "BATCH" n in
      if n < 1 then Result.Error "BATCH: n must be >= 1"
      else if n > max_batch_items then
        Result.Error
          (Printf.sprintf "BATCH: n must be <= %d" max_batch_items)
      else Result.Ok (Batch n)
    | "BATCH", _ -> Result.Error "BATCH takes exactly one count"
    | v, _ -> Result.Error (Printf.sprintf "unknown verb %S" v))

(* The full parser runs only when the first space-separated token is
   BATCH in some case, so a framer spotting headers does not parse
   every request a second time. *)
let batch_header line =
  let len = String.length line in
  let rec start i = if i < len && line.[i] = ' ' then start (i + 1) else i in
  let i = start 0 in
  let rec verb k =
    k = 5 || (Char.uppercase_ascii line.[i + k] = "BATCH".[k] && verb (k + 1))
  in
  if i + 5 <= len && verb 0 && (i + 5 = len || line.[i + 5] = ' ') then
    match parse_request line with Result.Ok (Batch n) -> Some n | _ -> None
  else None

let analysis_args = function
  | Stats -> "STATS", []
  | Kcore None -> "KCORE", []
  | Kcore (Some k) -> "KCORE", [ string_of_int k ]
  | Cover { weighting; r } -> "COVER", [ weighting_to_string weighting; string_of_int r ]
  | Storage -> "STORAGE", []
  | Powerlaw -> "POWERLAW", []

let request_line = function
  | Load path -> "LOAD " ^ path
  | Analyze { dataset; analysis } ->
    let verb, args = analysis_args analysis in
    String.concat " " (verb :: dataset :: args)
  | Add_vertex { dataset; name } ->
    String.concat " " [ "ADDVERTEX"; dataset; name ]
  | Add_edge { dataset; name; members } ->
    String.concat " "
      ("ADDEDGE" :: dataset :: name :: List.map string_of_int members)
  | Del_edge { dataset; edge } ->
    String.concat " " [ "DELEDGE"; dataset; string_of_int edge ]
  | Checkpoint ds -> "CHECKPOINT " ^ ds
  | Datasets -> "DATASETS"
  | Info -> "INFO"
  | Metrics Table -> "METRICS"
  | Metrics Prometheus -> "METRICS prom"
  | Trace None -> "TRACE"
  | Trace (Some n) -> "TRACE " ^ string_of_int n
  | Evict None -> "EVICT"
  | Evict (Some ds) -> "EVICT " ^ ds
  | Ping -> "PING"
  | Shutdown -> "SHUTDOWN"
  | Batch n -> "BATCH " ^ string_of_int n

let analysis_key = function
  | Stats -> "stats"
  | Kcore None -> "kcore k=max"
  | Kcore (Some k) -> Printf.sprintf "kcore k=%d" k
  | Cover { weighting; r } ->
    Printf.sprintf "cover w=%s r=%d" (weighting_to_string weighting) r
  | Storage -> "storage"
  | Powerlaw -> "powerlaw"

(* One line cap shared by the server's request reader and the
   client's reply reader, so neither side can be ballooned by a peer
   that never sends a newline. *)
let max_line_bytes = 1 lsl 20

(* Replies are framed by line count, so no payload byte may introduce a
   line or field separator. *)
let sanitize s =
  String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) s

let retry_hint_prefix = "retry_after_ms="

let encode_reply = function
  | Ok kvs ->
    let buf = Buffer.create 256 in
    Buffer.add_string buf (Printf.sprintf "OK %d\n" (List.length kvs));
    List.iter
      (fun (k, v) ->
        Buffer.add_string buf (sanitize k);
        Buffer.add_char buf '\t';
        Buffer.add_string buf (sanitize v);
        Buffer.add_char buf '\n')
      kvs;
    Buffer.contents buf
  | Err { code; message; retry_after_ms } ->
    let hint =
      match retry_after_ms with
      | None -> ""
      | Some ms -> Printf.sprintf "%s%d " retry_hint_prefix ms
    in
    Printf.sprintf "ERR %s %s%s\n" (error_code_to_string code) hint
      (sanitize message)

(* Batched replies interleave a tag line before each sub-reply:
   ITEM <i>, then the standard OK/ERR framing for item i.  Items are
   written in request order, each as soon as it is computed, so a
   client can consume reply i while the server still works on i+1. *)
let item_line i = Printf.sprintf "ITEM %d" i

let parse_item_line line =
  match tokens line with
  | [ tag; i ] when String.uppercase_ascii tag = "ITEM" -> int_of_string_opt i
  | _ -> None

let decode_reply text =
  match String.split_on_char '\n' text with
  | [] -> Result.Error "empty reply"
  | header :: rest ->
    if String.length header >= 3 && String.sub header 0 3 = "OK " then begin
      match int_of_string_opt (String.sub header 3 (String.length header - 3)) with
      | None -> Result.Error ("bad OK header: " ^ header)
      | Some n ->
        let rec take acc i = function
          | _ when i = n -> Result.Ok (Ok (List.rev acc))
          | [] -> Result.Error "truncated reply payload"
          | line :: rest ->
            (match String.index_opt line '\t' with
            | None -> Result.Error ("payload line without tab: " ^ line)
            | Some t ->
              let k = String.sub line 0 t in
              let v = String.sub line (t + 1) (String.length line - t - 1) in
              take ((k, v) :: acc) (i + 1) rest)
        in
        take [] 0 rest
    end
    else if String.length header >= 4 && String.sub header 0 4 = "ERR " then begin
      let body = String.sub header 4 (String.length header - 4) in
      (* A machine-readable hint token may sit between code and
         message: ERR busy retry_after_ms=250 <message>. *)
      let split_hint s =
        let plen = String.length retry_hint_prefix in
        if String.length s >= plen && String.sub s 0 plen = retry_hint_prefix then begin
          let tok_end =
            match String.index_opt s ' ' with Some i -> i | None -> String.length s
          in
          match int_of_string_opt (String.sub s plen (tok_end - plen)) with
          | Some ms when ms >= 0 ->
            let rest =
              if tok_end >= String.length s then ""
              else String.sub s (tok_end + 1) (String.length s - tok_end - 1)
            in
            (Some ms, rest)
          | _ -> (None, s)
        end
        else (None, s)
      in
      match String.index_opt body ' ' with
      | None ->
        (match error_code_of_string body with
        | Some code -> Result.Ok (Err { code; message = ""; retry_after_ms = None })
        | None -> Result.Error ("unknown error code: " ^ body))
      | Some sp ->
        let code_s = String.sub body 0 sp in
        let rest = String.sub body (sp + 1) (String.length body - sp - 1) in
        (match error_code_of_string code_s with
        | Some code ->
          let retry_after_ms, message = split_hint rest in
          Result.Ok (Err { code; message; retry_after_ms })
        | None -> Result.Error ("unknown error code: " ^ code_s))
    end
    else Result.Error ("bad reply header: " ^ header)
