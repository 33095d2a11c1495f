(** The hgd wire protocol: newline-delimited requests, tab-separated
    replies.

    A request is one line of space-separated tokens, case-insensitive
    in the verb:

    {v
    LOAD <path>
    STATS <dataset>
    KCORE <dataset> [k]
    COVER <dataset> [uniform|degree|degree2] [r]
    STORAGE <dataset>
    POWERLAW <dataset>
    ADDVERTEX <dataset> <name>
    ADDEDGE <dataset> <name> [<vertex-id> ...]
    DELEDGE <dataset> <edge-id>
    CHECKPOINT <dataset>
    DATASETS
    INFO
    METRICS [table|prom]
    TRACE [n]
    EVICT [<dataset>]
    PING
    SHUTDOWN
    BATCH <n>
    v}

    [<dataset>] is a content digest as returned by [LOAD] (an
    unambiguous prefix of at least 4 hex digits is accepted).  The
    digest is the dataset's {e handle}: it stays stable across
    mutations; the per-dataset [epoch] counter in mutation replies is
    what names a specific state.

    Mutation verbs ([ADDVERTEX]/[ADDEDGE]/[DELEDGE]) bump the
    dataset's epoch; each is appended to the dataset's write-ahead log
    before it is applied, so an acknowledged mutation survives a
    crash.  [CHECKPOINT] compacts log and state into a fresh sibling
    snapshot.

    A reply is either

    {v
    OK <n>
    <key>\t<value>     (n times)
    v}

    or the single line [ERR <code> <message>].  A [busy] error carries
    a machine-readable retry hint between the code and the message:
    [ERR busy retry_after_ms=250 <message>].  Keys and values never
    contain tabs or newlines (the encoder replaces them with spaces),
    so a reply is always exactly [1 + n] lines.

    [BATCH <n>] pipelines n requests over one connection: the client
    sends the BATCH line followed by n ordinary request lines, and the
    server answers with n tagged sub-replies — for each item, the line
    [ITEM <i>] (0-based, in request order) followed by that item's
    standard OK/ERR framing.  The server reads all n item lines
    before it answers item 0; each sub-reply is then flushed as soon
    as it is computed, so the client may consume item i while item
    i+1 is still being served.  A connection that ends inside the
    run gets no item replies, and an oversized item line one plain
    [ERR bad-request]; either way the connection then closes.  [SHUTDOWN] and nested [BATCH] are rejected
    per-item with [bad-request]; a malformed item line likewise gets
    its own [ERR] without poisoning its neighbours. *)

type weighting = Uniform | Degree | Degree_squared

type analysis =
  | Stats
  | Kcore of int option  (** [None] selects the maximum core. *)
  | Cover of { weighting : weighting; r : int }
  | Storage
  | Powerlaw

type metrics_format =
  | Table       (** key/value summary lines (the default) *)
  | Prometheus  (** text exposition, one line per payload value *)

type request =
  | Load of string
  | Analyze of { dataset : string; analysis : analysis }
  | Add_vertex of { dataset : string; name : string }
      (** Append a vertex under the dataset's next epoch.  Names are
          single tokens (no spaces). *)
  | Add_edge of { dataset : string; name : string; members : int list }
      (** Append a hyperedge over existing vertex ids; an empty member
          list is legal. *)
  | Del_edge of { dataset : string; edge : int }
      (** Delete a hyperedge by current dense id; later ids shift down. *)
  | Checkpoint of string
      (** Compact the dataset's WAL into a fresh sibling snapshot. *)
  | Datasets
  | Info
      (** Daemon configuration and repair accounting: the k-core
          repair budget, cascade / re-peel / budget-fallback totals,
          worker and cache settings. *)
  | Metrics of metrics_format
  | Trace of int option
      (** Slowest recent requests with per-stage span timings;
          [None] defaults to 10. *)
  | Evict of string option
      (** [Some digest] drops a dataset and its cached results;
          [None] clears the whole result cache. *)
  | Ping
  | Shutdown
  | Batch of int
      (** Header for a pipelined run of n requests on one connection;
          the n request lines follow on the wire. *)

type error_code =
  | Bad_request      (** unparsable or unknown verb / arguments *)
  | Unknown_dataset  (** digest not resident (or ambiguous prefix) *)
  | Parse_error      (** dataset file failed to parse *)
  | Io_error         (** dataset file could not be read *)
  | Timeout          (** computation exceeded the request deadline *)
  | Busy             (** admission refused / load shed; retry later *)
  | Internal         (** unexpected exception while serving *)

type reply =
  | Ok of (string * string) list
  | Err of {
      code : error_code;
      message : string;
      retry_after_ms : int option;
          (** Server's backoff hint; set on [Busy] replies.  Clients
              should wait at least this long before retrying. *)
    }

val err : ?retry_after_ms:int -> error_code -> string -> reply
(** [err code message] builds an [Err] reply (hint omitted unless
    given) — the constructor the server uses everywhere. *)

val max_line_bytes : int
(** Upper bound (1 MiB) on any single protocol line.  The server
    aborts requests whose line exceeds it; the client refuses replies
    whose line exceeds it. *)

val max_batch_items : int
(** Upper bound (1024) on the item count of a single [BATCH]. *)

val item_line : int -> string
(** [item_line i] is the tag line ["ITEM <i>"] framing sub-reply [i]
    of a batched reply (no trailing newline). *)

val parse_item_line : string -> int option
(** Inverse of {!item_line}; [None] when the line is not an item tag. *)

val parse_request : string -> (request, string) result

val batch_header : string -> int option
(** [Some n] exactly when [parse_request] gives [Ok (Batch n)], but
    the full parse runs only on lines whose first token is [BATCH]. *)

val request_line : request -> string
(** Canonical single-line rendering; [parse_request (request_line r)]
    yields a request equal to [r]. *)

val analysis_key : analysis -> string
(** Canonical cache-key fragment for an analysis, with defaulted
    arguments spelled out (e.g. ["kcore k=max"], ["cover w=degree2 r=1"]). *)

val weighting_of_string : string -> (weighting, string) result

val weighting_to_string : weighting -> string

val error_code_to_string : error_code -> string

val error_code_of_string : string -> error_code option

val encode_reply : ?prefix:string -> reply -> string
(** Full reply text including the trailing newline, behind [prefix]
    (default [""]; a BATCH item passes its [ITEM i] line and newline).
    Tabs, newlines and CRs in keys, values and messages become spaces.
    An [Ok] reply is built in one allocation: its length is summed
    first, then one string of exactly that size is filled. *)

val decode_reply : string -> (reply, string) result
(** Inverse of [encode_reply] (modulo key/value sanitization). *)
