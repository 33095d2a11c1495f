(* Pure measurement helpers: fixed-percentile selection, /proc parsing,
   the OCaml runtime's exit report, Prometheus scrapes, and client
   spans.  Everything here is deterministic and unit-tested; the
   benchmark's main program only feeds it numbers. *)

(* ---------- percentiles ---------- *)

(* Nearest-rank percentile: the sample at 1-based rank ceil(p/100 * n)
   of the sorted samples.  Samples "beyond" it are the ones ranked
   after it. *)
let rank ~p n =
  if n <= 0 then invalid_arg "Measure.rank: no samples";
  let r = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n -. 1e-9)) in
  max 1 (min n r)

let beyond ~p n = n - rank ~p n

(* The tail rule: a percentile is reported only while at least this
   many samples lie beyond it, so it is never set by a handful of
   outliers. *)
let min_beyond = 10

let supported ~p n = n > 0 && beyond ~p n >= min_beyond

let percentile ~p (a : float array) =
  let sorted = Array.copy a in
  Array.sort Float.compare sorted;
  sorted.(rank ~p (Array.length sorted) - 1)

let median a = percentile ~p:50.0 a

(* Windowed estimate of a fixed percentile: cut the samples (in
   completion order) into [windows] consecutive slices, take the
   percentile of each slice, report the median across slices.  One
   scheduler hiccup then moves one slice, not the run's figure.  Every
   slice must support [p] by the tail rule, otherwise [Error]. *)
let windowed ~p ~windows (a : float array) =
  let n = Array.length a in
  if windows < 1 then invalid_arg "Measure.windowed: windows < 1";
  let size = n / windows in
  if size = 0 || not (supported ~p size) then
    Error
      (Printf.sprintf "%d samples in %d windows do not support p%g (need %d beyond)"
         n windows p min_beyond)
  else
    Ok
      (median
         (Array.init windows (fun w -> percentile ~p (Array.sub a (w * size) size))))

(* Completion rates over [windows] equal slices of the phase
   [t0, t0 + elapsed): (completions in the slice) ÷ (slice length).
   [stamps] are completion times on the same clock as [t0]; a
   completion at or after the phase end counts in the last slice.  The
   benchmark reports the median slice rate, so a slow stretch of the
   host moves the slices it covers, not the figure. *)
let slice_rates ~windows ~t0 ~elapsed (stamps : float array) =
  if windows < 1 then invalid_arg "Measure.slice_rates: windows < 1";
  if elapsed <= 0.0 then invalid_arg "Measure.slice_rates: elapsed <= 0";
  let width = elapsed /. float_of_int windows in
  let counts = Array.make windows 0 in
  Array.iter
    (fun t ->
      let w = int_of_float (Float.of_int windows *. (t -. t0) /. elapsed) in
      let w = max 0 (min (windows - 1) w) in
      counts.(w) <- counts.(w) + 1)
    stamps;
  Array.map (fun c -> float_of_int c /. width) counts

(* ---------- /proc ---------- *)

(* /proc/<pid>/stat: "pid (comm) state ppid ...".  [comm] may contain
   spaces and parentheses, so fields are counted from the last ')'.
   utime and stime are fields 14 and 15 (1-based), in clock ticks. *)
let parse_proc_stat s =
  match String.rindex_opt s ')' with
  | None -> Error "no ')' in stat line"
  | Some i -> (
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    let fields = List.filter (( <> ) "") (String.split_on_char ' ' (String.trim rest)) in
    let fields = Array.of_list fields in
    (* fields.(0) is field 3 (state), so field k is fields.(k - 3). *)
    if Array.length fields < 13 then Error "short stat line"
    else
      match (int_of_string_opt fields.(11), int_of_string_opt fields.(12)) with
      | Some utime, Some stime -> Ok (utime, stime)
      | _ -> Error "non-numeric utime/stime")

(* A "Key:   value kB" line of /proc/<pid>/status, in KiB. *)
let parse_proc_status_kb s key =
  let prefix = key ^ ":" in
  let lines = String.split_on_char '\n' s in
  List.find_map
    (fun line ->
      if String.length line > String.length prefix
         && String.sub line 0 (String.length prefix) = prefix
      then
        let v = String.sub line (String.length prefix) (String.length line - String.length prefix) in
        match List.filter (( <> ) "") (String.split_on_char ' ' (String.trim v)) with
        | n :: _ -> int_of_string_opt (String.trim n)
        | [] -> None
      else None)
    lines

(* ---------- OCaml runtime exit report ---------- *)

(* With OCAMLRUNPARAM=v=0x400, OCaml 5 prints "key: value" lines at
   exit (allocated_words, minor_words, ..., top_heap_words,
   mean_space_overhead).  Other stderr lines (hgd's JSON log) are
   ignored. *)
let gc_keys =
  [
    "allocated_words"; "minor_words"; "promoted_words"; "major_words";
    "minor_collections"; "major_collections"; "forced_major_collections";
    "heap_words"; "top_heap_words"; "mean_space_overhead";
  ]

let parse_gc_report s =
  List.filter_map
    (fun line ->
      match String.index_opt line ':' with
      | None -> None
      | Some i ->
        let key = String.sub line 0 i in
        if not (List.mem key gc_keys) then None
        else
          let v = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
          Option.map (fun f -> (key, f)) (float_of_string_opt v))
    (String.split_on_char '\n' s)

(* ---------- Prometheus text ---------- *)

(* "name value" and "name{labels} value" lines; comments skipped.  The
   key keeps its label block verbatim. *)
let parse_prometheus lines =
  List.filter_map
    (fun line ->
      if line = "" || line.[0] = '#' then None
      else
        match String.rindex_opt line ' ' with
        | None -> None
        | Some i ->
          let key = String.sub line 0 i in
          let v = String.sub line (i + 1) (String.length line - i - 1) in
          Option.map (fun f -> (key, f)) (float_of_string_opt v))
    lines

let lookup kvs key = Option.value (List.assoc_opt key kvs) ~default:0.0

let delta ~before ~after key = lookup after key -. lookup before key

(* ---------- spans ---------- *)

(* One recorded span.  [parent] is an index into the same span array
   (-1 for a root); [req] groups the spans of one request; [words] is
   the Gc.minor_words delta across the span. *)
type span = {
  name : string;
  start : float;
  stop : float;
  parent : int;
  req : int;
  words : float;
}

(* Spans live in memory until the run ends.  [with_span] hands its
   body the span's index, which children name as their parent. *)
type recorder = span Hp_util.Dynarray.t

let recorder () : recorder =
  Hp_util.Dynarray.create ~capacity:1024
    ~dummy:{ name = ""; start = 0.0; stop = 0.0; parent = -1; req = -1; words = 0.0 }
    ()

(* Run [f] inside a span.  The slot is reserved before [f] runs so
   children can point at it; it is filled in when [f] returns. *)
let with_span (r : recorder) ~parent ~req name f =
  let start = Unix.gettimeofday () in
  let w0 = Gc.minor_words () in
  let idx = Hp_util.Dynarray.length r in
  Hp_util.Dynarray.push r { name; start; stop = start; parent; req; words = 0.0 };
  let finish () =
    Hp_util.Dynarray.set r idx
      { name; start; stop = Unix.gettimeofday (); parent; req;
        words = Gc.minor_words () -. w0 }
  in
  match f idx with
  | v -> finish (); v
  | exception e -> finish (); raise e

let spans (r : recorder) = Hp_util.Dynarray.to_array r

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, Float.max cb b))
          else (total +. (cb -. ca), Some (a, b)))
      (0.0, None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time of every span: its duration minus the part of it that its
   direct children cover.  Overlapping children are counted once. *)
let self_times (spans : span array) =
  let children = Array.make (Array.length spans) [] in
  Array.iter
    (fun s ->
      if s.parent >= 0 then
        children.(s.parent) <- (s.start, s.stop) :: children.(s.parent))
    spans;
  Array.mapi
    (fun i s ->
      s.stop -. s.start -. covered ~lo:s.start ~hi:s.stop children.(i))
    spans

(* Per span name: (calls, total self seconds, total seconds), over the
   spans [keep] selects (self times are still taken against every
   child). *)
let by_name ?(keep = fun _ -> true) spans =
  let selfs = self_times spans in
  let tbl = Hashtbl.create 32 in
  Array.iteri
    (fun i s ->
      if keep s then begin
        let c, t, d = Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0.0, 0.0) in
        Hashtbl.replace tbl s.name (c + 1, t +. selfs.(i), d +. (s.stop -. s.start))
      end)
    spans;
  tbl
