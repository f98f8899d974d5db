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

(* Statistics *)
val hits : t -> int
val misses : t -> int
val reset_stats : t -> unit
