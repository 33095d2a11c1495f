(** Binary min-heap over plain ints.

    Built for lazy priority queues: callers pack [(key, id)] as
    [key * stride + id], push a fresh entry whenever an element's key
    improves, and drop stale entries at pop time by checking the
    decoded key against their own side array.  Pop order is exact
    [(key, id)]-lexicographic order. *)

type t

val create : ?capacity:int -> unit -> t
(** Empty heap.  [capacity] (default 16) preallocates storage; the
    heap grows as needed. *)

val push : t -> int -> unit

val pop_min_or : t -> int -> int
(** [pop_min_or t empty] is the smallest entry, or [empty] when the
    heap is empty.  It allocates nothing: the caller picks a sentinel
    no entry can equal (the peel drivers' packed entries are
    non-negative, so they pass [-1]). *)

val length : t -> int
val is_empty : t -> bool

val clear : t -> unit
(** Forget all entries without releasing storage. *)
