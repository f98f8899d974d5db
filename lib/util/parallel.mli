(** Deterministic parallel map over OCaml 5 domains.

    Experiment sweeps run hundreds of independent simulations; this
    fans them out across domains while keeping results in input order,
    so a parallel sweep is bit-identical to a sequential one.

    There is one worker loop, {!map_sharded}: each worker keeps private
    state across the elements it runs, and a {!strategy} decides only
    which element a worker claims next. By default work is
    {b pre-partitioned}: each worker owns one contiguous slice of the
    input computed before spawn, so the hot loop touches no shared state
    (shared-nothing sharding). The atomic-cursor rule ({!Steal}) remains
    for genuinely uneven work such as the service layer's request
    batches.

    Because OCaml 5 minor collections are stop-the-world across all
    domains, allocation-heavy parallel regions should also pass
    [~minor_heap_words] to enlarge each domain's minor heap for the
    duration of the region — fewer global rendezvous, the measured
    root cause of the harness's former anti-scaling. *)

type strategy =
  | Static  (** Contiguous pre-partitioned slices; no shared cursor. *)
  | Steal
      (** Each worker claims the next element off a shared atomic
          cursor; balances very uneven per-element cost at the price
          of cross-domain traffic on the cursor line. *)

val map_sharded :
  ?domains:int ->
  ?strategy:strategy ->
  ?minor_heap_words:int ->
  init:(int -> 's) ->
  f:('s -> 'a -> 'b) ->
  'a list ->
  'b list * 's list
(** [map_sharded ~init ~f xs] runs on up to [domains] workers (default
    {!default_domains}; never more than there are elements). Each
    worker allocates its private state with [init w] {e inside} its own
    domain (so the state's minor allocations are domain-local from
    birth) and applies [f state] to every element it claims: its
    contiguous slice [\[w*n/workers, (w+1)*n/workers)] under {!Static}
    (the default), the next unclaimed element under {!Steal}. The call
    returns [(results, states)] — results in input order, states in
    worker order (worker 0, the parent's, first). Under {!Static},
    worker 0 owns the lowest slice, so merging the states in worker
    order is an input-order merge; under {!Steal} the element-to-worker
    mapping is dynamic, so only an order-insensitive merge of the
    states is deterministic. With one worker (or [domains <= 1]) no
    domain is spawned and a single state serves the whole list; an
    empty list yields no state.

    [minor_heap_words], when given, enlarges every participating
    domain's minor heap to at least that many words for the duration
    of the call (the parent's setting is restored afterwards; it is
    never shrunk). The sequential path applies it too, so speedup
    comparisons against [domains:1] see the same GC tuning.

    [f] must be safe to run concurrently with itself on distinct
    elements and distinct states; an exception raised by [init] or [f]
    poisons the run — every worker checks the failure flag before each
    element and stops promptly — and the first failure is re-raised in
    the caller with the worker's backtrace
    ({!Printexc.raise_with_backtrace}). *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count ()], capped at
    {!default_domain_cap}. The cap only shapes this default; explicit
    [~domains] arguments above it are honoured. *)

val default_domain_cap : int
(** The documented default ceiling (8) applied by {!default_domains}.
    Experiment sweeps are memory-bound enough that more domains has
    not paid off; pass [~domains] explicitly to go beyond it. *)
