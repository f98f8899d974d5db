(** Content-addressed result cache.

    Maps a request {!Request.hash} to the serialized result document
    that simulation produced for it. Because PR 2 made simulation a
    bit-deterministic pure function of the canonical request, a hit
    can be replayed verbatim — the second response is byte-identical
    to the first, with zero simulation work.

    Two tiers:
    - an in-memory {!Clusteer_util.Lru} bounded by a byte budget
      (entry cost = key + value bytes);
    - an optional on-disk spill directory: entries evicted from memory
      are written to [dir/<fingerprint>-<hash>.json]; a memory miss
      consults the directory and re-admits the entry on success. The
      directory is also how a restarted server warm-starts, from
      entries the same simulator ({!fingerprint}) wrote.

    Instrumentation is registered in the given counter registry:
    [serve.cache.hits] (served from either tier), [serve.cache.disk_hits]
    (subset satisfied from disk), [serve.cache.misses],
    [serve.cache.evictions] and [serve.cache.spills]. *)

type t

val fingerprint : string
(** The first 12 hex digits of the MD5 of the seed goldens
    ([test/goldens/seed_*.json] in name order); a test keeps the two in
    step. It keys the disk tier only, not {!Request.hash}. *)

val create :
  ?registry:Clusteer_obs.Counters.registry ->
  ?dir:string ->
  budget:int ->
  unit ->
  t
(** [budget] is the in-memory byte budget. [dir] enables the disk
    tier; it is created (once, on first spill or lookup) if missing. *)

val find : t -> string -> string option
(** Lookup by content hash; counts a hit or a miss. *)

val store : t -> string -> string -> unit
(** [store t hash result] admits a fresh result (memory tier; spills
    whatever the admission evicts). *)

val length : t -> int
(** Entries resident in memory. *)
