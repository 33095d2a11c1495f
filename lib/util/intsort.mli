(** Flat sorting and run-length merging of non-negative integer keys.

    The overlap-CSR construction in the k-core kernel turns pairwise
    co-incidence into flat buffers of integer pair keys; counting a
    multiset of such keys is a sort followed by a run-length scan, with
    per-domain buffers merged afterwards.  This module provides the two
    pieces: an LSD radix sort whose auxiliary buffers live in
    domain-local scratch (so a peel allocates the scratch once per
    domain and every later sort reuses it — arrays only grow), and a
    k-way run-length merge over already-sorted buffers.

    All keys must be non-negative; {!sort} raises [Invalid_argument]
    on a negative element rather than silently misordering it. *)

val sort : ?len:int -> int array -> unit
(** [sort a] sorts [a.(0 .. len-1)] ascending in place ([len] defaults
    to the whole array).  LSD radix sort: a pass over a d-bit digit
    costs O(len + 2^d), so d is capped at min(16, max(8, log2 len)) —
    the counters never dominate a short sort — and the maximum key's
    significant bits are spread evenly over the fewest passes that cap
    allows (pair keys bounded by m^2 take at most four).  The auxiliary
    array and digit counters come from [Domain.DLS] scratch and are
    reused across calls on the same domain.  Raises [Invalid_argument]
    on a negative key or [len] out of bounds. *)

val merge_runs : (int array * int) array -> (int -> int -> unit) -> unit
(** [merge_runs bufs f] treats each [(a, len)] as a sorted (ascending)
    multiset of keys [a.(0 .. len-1)] and calls [f key count] for every
    distinct key in ascending order, where [count] is the key's total
    multiplicity across all buffers.  With a single buffer this is a
    plain run-length scan.  Keys must be [< max_int] (the sentinel).
    Cost is O(total length * number of buffers) — the buffer count is
    the fold's domain fan-out, so it is small. *)
