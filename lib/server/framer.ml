module P = Protocol

type payload =
  | Single of string
  | Batch of { header : string; n : int; items : string list }

(* A BATCH header waiting for its items; [items] is reversed. *)
type run = { header : string; n : int; mutable got : int; mutable items : string list }

type t = {
  (* [buf.[pos..]] is unconsumed input.  Appends keep [pos] valid; a
     scan that runs out of newlines compacts, so consumption is
     amortized O(bytes). *)
  mutable buf : string;
  mutable pos : int;
  mutable eof : bool;
  mutable run : run option;
}

type line = [ `Line of string | `Tail of string | `Oversized | `Await | `End ]

let create () = { buf = ""; pos = 0; eof = false; run = None }
let feed t b n = t.buf <- t.buf ^ Bytes.sub_string b 0 n
let feed_eof t = t.eof <- true
let eof t = t.eof
let buffered t = String.length t.buf - t.pos

let strip_cr s =
  let n = String.length s in
  if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s

(* The next line and the offset just past it; nothing is consumed. *)
let scan t : line * int =
  match String.index_from_opt t.buf t.pos '\n' with
  | Some i ->
    if i - t.pos > P.max_line_bytes then (`Oversized, t.pos)
    else (`Line (strip_cr (String.sub t.buf t.pos (i - t.pos))), i + 1)
  | None ->
    if t.pos > 0 then begin
      t.buf <- String.sub t.buf t.pos (buffered t);
      t.pos <- 0
    end;
    let n = String.length t.buf in
    if n > P.max_line_bytes then (`Oversized, 0)
    else if not t.eof then (`Await, 0)
    else if n = 0 then (`End, 0)
    else (`Tail (strip_cr t.buf), n)

let peek_line t = fst (scan t)

let line t =
  let l, next = scan t in
  t.pos <- next;
  l

let rec frame t =
  match (line t, t.run) with
  | ((`Await | `Oversized | `End) as r), _ -> r
  | `Tail _, Some _ -> `End
  | `Line item, Some r ->
    r.items <- item :: r.items;
    r.got <- r.got + 1;
    if r.got < r.n then frame t
    else begin
      t.run <- None;
      `Frame (Batch { header = r.header; n = r.n; items = List.rev r.items })
    end
  | (`Line l | `Tail l), None -> (
    if String.trim l = "" then frame t
    else
      match P.batch_header l with
      | Some n ->
        t.run <- Some { header = l; n; got = 0; items = [] };
        frame t
      | None -> `Frame (Single l))
