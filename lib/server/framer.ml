module P = Protocol

type payload =
  | Single of string
  | Batch of { header : string; n : int; items : string list }

(* A BATCH header waiting for its items; [items] is reversed. *)
type run = { header : string; n : int; mutable got : int; mutable items : string list }

type t = {
  (* [buf[pos..len)] is unconsumed input, and [buf[pos..scanned)]
     holds no newline, so a search resumes where the last one stopped
     instead of rescanning a long line on every feed. *)
  mutable buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
  mutable scanned : int;
  mutable eof : bool;
  mutable run : run option;
}

type line = [ `Line of string | `Tail of string | `Oversized | `Await | `End ]

(* Capacity of the first buffer; it doubles from there. *)
let min_capacity = 4096

(* A drained buffer above this size is dropped, so one long line does
   not pin up to 2 MiB on an idle connection. *)
let max_idle_capacity = 64 * 1024

let create () =
  { buf = Bytes.empty; pos = 0; len = 0; scanned = 0; eof = false; run = None }

let buffered t = t.len - t.pos

(* Make room for [n] more bytes.  The live bytes move to the front in
   place only when the consumed prefix is at least as long as they
   are, so every byte moved was paid for by a byte consumed;
   otherwise the buffer doubles. *)
let reserve t n =
  let live = buffered t in
  let cap = Bytes.length t.buf in
  if t.len + n > cap then begin
    let dst =
      if t.pos >= live && live + n <= cap then t.buf
      else begin
        let rec grow c = if c >= live + n then c else grow (2 * c) in
        Bytes.create (grow (max min_capacity (2 * cap)))
      end
    in
    Bytes.blit t.buf t.pos dst 0 live;
    t.buf <- dst;
    t.scanned <- max 0 (t.scanned - t.pos);
    t.pos <- 0;
    t.len <- live
  end

let feed t b n =
  reserve t n;
  Bytes.blit b 0 t.buf t.len n;
  t.len <- t.len + n

let feed_eof t = t.eof <- true
let eof t = t.eof

(* Mark [buf[pos..next)] consumed; a drained buffer restarts at the
   front, and an outsized one is let go. *)
let consume t next =
  if next >= t.len then begin
    t.pos <- 0;
    t.len <- 0;
    t.scanned <- 0;
    if Bytes.length t.buf > max_idle_capacity then t.buf <- Bytes.empty
  end
  else t.pos <- next

(* [buf[from..stop)] as a string, one trailing CR dropped. *)
let sub_strip_cr buf from stop =
  let stop =
    if stop > from && Bytes.get buf (stop - 1) = '\r' then stop - 1 else stop
  in
  Bytes.sub_string buf from (stop - from)

(* The first newline in [buf[i..stop)], or -1. *)
let rec newline buf i stop =
  if i >= stop then -1
  else if Bytes.unsafe_get buf i = '\n' then i
  else newline buf (i + 1) stop

(* The next line and the offset just past it; nothing is consumed. *)
let scan t : line * int =
  let i = newline t.buf (max t.pos t.scanned) t.len in
  if i >= 0 then begin
    t.scanned <- i;
    if i - t.pos > P.max_line_bytes then (`Oversized, t.pos)
    else (`Line (sub_strip_cr t.buf t.pos i), i + 1)
  end
  else begin
    t.scanned <- t.len;
    let n = buffered t in
    if n > P.max_line_bytes then (`Oversized, t.pos)
    else if not t.eof then (`Await, t.pos)
    else if n = 0 then (`End, t.pos)
    else (`Tail (sub_strip_cr t.buf t.pos t.len), t.len)
  end

let peek_line t = fst (scan t)

let line t =
  let l, next = scan t in
  consume t next;
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
