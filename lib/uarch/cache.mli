(** Set-associative cache with true-LRU replacement.

    Tracks tags only (the reproduction never needs data values). Used
    for both L1D and L2. {!access}, {!probe} and {!touch} allocate
    nothing. *)

type t

type outcome = Hit | Miss

val create : Config.cache -> t
val sets : t -> int
val ways : t -> int

val access : t -> addr:int -> write:bool -> outcome
(** Look up the line containing [addr]; on a miss the line is filled
    (allocate-on-write as well) and the LRU line evicted. Updates
    recency on hits. *)

val probe : t -> addr:int -> bool
(** Non-mutating lookup. *)

val touch : t -> addr:int -> unit
(** Fill / refresh the line without counting statistics (prefetches
    and warmup are not demand accesses). *)

val way_from : int array -> int -> int -> int -> int -> int
(** [way_from tags base ways tag w] is the first way at or after [w]
    of the set stored in [tags.(base) .. tags.(base + ways - 1)] that
    holds [tag], or [-1]. Shared with {!Tracecache}; allocates
    nothing. *)

val invalidate_all : t -> unit

val warm : t -> step:int -> (int * int) list -> unit
(** [warm t ~step extents] leaves [t] as {!invalidate_all} followed by
    a {!touch} of [base + i * step] for every [i] below
    [max 1 (ceil (bytes / step))] of every [(base, bytes)] extent, in
    list order, would. It does not replay the touches: it walks them
    backwards and writes each set's last [ways] distinct lines straight
    into the set, in recency order, stopping once every set is full.
    The lines may sit in other ways, with other recency values, than
    the touches would leave them in; no lookup, fill or eviction can
    tell the difference. Allocates nothing. *)

(* Statistics *)
val hits : t -> int
val misses : t -> int
val reset_stats : t -> unit
