(* Binary min-heap over plain ints.

   The peel drivers use it as a lazy priority queue: an element is
   re-pushed every time its key improves and stale entries are
   discarded at pop time, so there is no decrease-key and no handle
   bookkeeping — callers pack (key, id) into one int (key * stride +
   id) and validate each popped entry against their own side arrays.
   Pop order is therefore exact (key, id)-lexicographic order, which
   is what makes the one-pass sweep a pure function of the peeling
   state. *)

type t = { mutable a : int array; mutable len : int }

let create ?(capacity = 16) () = { a = Array.make (max capacity 1) 0; len = 0 }

let length t = t.len
let is_empty t = t.len = 0

let clear t = t.len <- 0

let grow t =
  let bigger = Array.make (2 * Array.length t.a) 0 in
  Array.blit t.a 0 bigger 0 t.len;
  t.a <- bigger

let push t x =
  if t.len = Array.length t.a then grow t;
  let a = t.a in
  let i = ref t.len in
  t.len <- t.len + 1;
  (* Sift up. *)
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) lsr 1 in
    if Array.unsafe_get a parent > x then begin
      Array.unsafe_set a !i (Array.unsafe_get a parent);
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set a !i x

let pop_min_or t empty =
  if t.len = 0 then empty
  else begin
    let a = t.a in
    let top = a.(0) in
    t.len <- t.len - 1;
    let x = a.(t.len) in
    (* Sift the last element down from the root. *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= t.len then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < t.len && Array.unsafe_get a r < Array.unsafe_get a l then r
          else l
        in
        if Array.unsafe_get a c < x then begin
          Array.unsafe_set a !i (Array.unsafe_get a c);
          i := c
        end
        else continue := false
      end
    done;
    Array.unsafe_set a !i x;
    top
  end
