(** Two-level data memory hierarchy: L1D + unified L2 + fixed-latency
    main memory (Table 2). Returns access latencies; port arbitration
    is done by the caller (the core's load/store pipelines). *)

type t

val create : Config.t -> t

val load_latency : t -> addr:int -> int
(** Latency of a read at [addr]: L1 hit time, or L1 + L2 hit time, or
    L1 + L2 + memory latency, filling lines along the way. When the
    configuration enables [prefetch_next_line], a demand L1 miss also
    fills [addr + line] into both levels (latency-free — an idealised
    prefetcher that is always timely). *)

val store : t -> addr:int -> unit
(** Retired-store write (write-allocate in both levels, no latency
    returned: stores retire through the LSQ). *)

val l1_resident : t -> addr:int -> bool
(** Non-mutating L1 lookup, used by the MSHR check before a load is
    allowed to start. *)

val prewarm : t -> (int * int) list -> unit
(** [prewarm t extents] empties both levels, then leaves them as
    touching every 64-byte line of each [(base, bytes)] extent, in list
    order, without counting statistics would: the warmed cache state a
    checkpointed simulation point starts from. Extents larger than a
    cache leave its LRU tail resident, as real warmup would. Only that
    tail is written ({!Cache.warm}): once every set is full the walk
    stops, so extents larger than a cache cost about one cache's worth
    of lines. *)

val l1_hits : t -> int
val l1_misses : t -> int
val l2_hits : t -> int
val l2_misses : t -> int
val reset_stats : t -> unit

val reset : t -> unit
(** Back to the post-{!create} state: every line invalidated in both
    levels, statistics zeroed. Used by engine reuse across runs. *)
