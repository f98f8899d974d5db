(** Run (simulation point × machine × configuration) triples and
    collect statistics — the trace-driven methodology of §5.1, with
    every configuration replaying the identical dynamic stream.

    {2 Parallel execution}

    {!run_suite} and {!run_grouped} shard their
    (profile × simulation-point) work items across OCaml domains
    ([domains], default {!Clusteer_util.Parallel.default_domains}) on
    {!Clusteer_util.Parallel.map_sharded}. Each worker simulates
    against {b private} state — a counter registry passed down to the
    policies and the engine, an optional self-profiler, and a reuse
    context of cached workloads, compiled annotations and
    reset-in-place engines — so concurrent workers never share mutable
    state and the per-point allocation rate stays low (OCaml 5 minor
    collections are stop-the-world across all domains; an
    allocation-heavy per-item rebuild is what made an earlier harness
    anti-scale). The worker registries are merged into
    {!Clusteer_obs.Counters.default} once all workers complete. The
    schedule only decides which point a worker claims next: its own
    contiguous slice under the default
    {!Clusteer_util.Parallel.Static}, so a profile's points share one
    worker's caches, or the next point off a shared cursor under
    {!Clusteer_util.Parallel.Steal}.

    Since each point's simulation is a pure function of its trace seed
    and the machine, since a reset engine behaves exactly as a fresh
    one, and since {!Clusteer_obs.Counters.merge} sorts names and adds
    integers, both schedules and every domain count produce results
    and merged counter totals bit-identical to a sequential
    [domains:1] run. *)

open Clusteer_uarch
open Clusteer_workloads

type point_result = {
  point : Pinpoints.point;
  runs : (string * Stats.t) list;
      (** configuration name -> statistics, in configuration order *)
}

val trace_seed : Pinpoints.point -> int
(** Deterministic per-point generator seed: a splitmix64-style mix of
    the profile's master seed and the phase index. Distinct
    (seed, index) pairs map to distinct trace seeds across the whole
    realistic range (the previous affine formula collided). *)

val salted_trace_seed : salt:int -> Pinpoints.point -> int
(** {!trace_seed} re-mixed with [salt] through the same splitmix64
    finalizer. [salt = 0] is the identity (exactly {!trace_seed});
    each nonzero salt derives an independent, equally deterministic
    dynamic stream for the same point. The auto-tuner's AB tie-breaks
    replicate measurements over salts [1..n]. *)

type resolve_error =
  | Unknown_workload
  | Phase_out_of_range of int  (** carries the workload's phase count *)

(** A SPEC profile (its phases derive from it), or a kernel or
    adversarial scenario (one phase). *)
type source = Spec of Profile.t | Fixed of Synth.t

(** One phase of a source, not yet built. *)
type stream = Point of Pinpoints.point | Whole of Synth.t

val lookup : string -> (source, resolve_error) result
val select : phase:int -> source -> (stream, resolve_error) result

val build : stream -> Synth.t * int
(** The workload and trace seed: [Synth.build point.profile] on
    [trace_seed point], as {!run_point} replays it, or a fixed
    workload on seed 1. [lookup] and [select] build nothing. *)

val resolve : phase:int -> string -> (Synth.t * int, resolve_error) result
(** [build] of [select] of [lookup]: the stream a workload name
    replays in every CLI command and in the service. *)

val machine : clusters:int -> string option -> (Config.t, string) result
(** The Table 2 machine for [clusters] and an optional topology name;
    meshCxR and hierGxS set their own cluster count. [Error] is one
    line: an unknown topology, or a cluster count outside
    1..{!Clusteer_uarch.Config.max_clusters}. *)

val default_warmup : int -> int
(** Default warmup for a measured budget of [uops] committed
    micro-ops: half the measured length, clamped to \[2,000, 10,000\]
    — and always strictly below [uops], so tiny runs still make
    measurable progress. *)

val run_point :
  ?warmup:int ->
  ?obs:(string -> Clusteer_obs.Sink.t option) ->
  ?registry:Clusteer_obs.Counters.registry ->
  ?profile:Clusteer_obs.Profile.t ->
  ?params:Clusteer.Configuration.params ->
  ?trace_salt:int ->
  machine:Config.t ->
  configs:Clusteer.Configuration.t list ->
  uops:int ->
  Pinpoints.point ->
  point_result
(** Build the point's workload, compile each configuration's
    annotation, and simulate [uops] committed micro-ops per
    configuration, after a cache/predictor warmup phase (default:
    {!default_warmup}).

    [obs] maps a configuration name to the observability sink to
    install in that configuration's engine ([None] = uninstrumented,
    the default for every configuration). [registry] receives the
    policies' and the engine's introspection counters (default
    {!Clusteer_obs.Counters.default}). [profile] attaches the pipeline
    self-profiler to every engine created for the point.

    [params] tunes every steering/compiler knob at once (default
    {!Clusteer.Configuration.default_params}); it applies uniformly to
    every configuration of the call, which keeps the per-domain
    annotation caches (keyed by configuration name) sound.
    [trace_salt] (default 0 = the canonical stream) replays the point
    on the {!salted_trace_seed} stream instead.

    Each engine run also adds its committed micro-ops to the
    [harness.uops_committed] counter of [registry] — the figure the
    run ledger divides GC allocation by. *)

type trace_buffer
(** One dynamic stream, generated once, lazily, and replayed from its
    start by every run that reads it. *)

val shared_trace : Synth.t -> seed:int -> trace_buffer
(** The stream of the workload on trace seed [seed]. Nothing is
    generated until a run reads it. *)

val run_workload :
  ?warmup:int ->
  ?seed:int ->
  ?trace:trace_buffer ->
  ?obs:(string -> Clusteer_obs.Sink.t option) ->
  ?registry:Clusteer_obs.Counters.registry ->
  ?profile:Clusteer_obs.Profile.t ->
  ?params:Clusteer.Configuration.params ->
  machine:Config.t ->
  configs:Clusteer.Configuration.t list ->
  uops:int ->
  Synth.t ->
  (string * Stats.t) list
(** Run an explicit workload (a {!Clusteer_workloads.Synth.t}, e.g. a
    hand-built {!Clusteer_workloads.Kernels} kernel) under each
    configuration on the identical trace. [obs] and [registry] as in
    {!run_point}. [trace], a {!shared_trace} of the same workload,
    replaces the stream generated from [seed] (default 1): calls on
    several machines then generate one stream once. *)

val map_isolated :
  ?domains:int ->
  ?strategy:Clusteer_util.Parallel.strategy ->
  ?into:Clusteer_obs.Counters.registry ->
  (registry:Clusteer_obs.Counters.registry -> 'a -> 'b) ->
  'a list ->
  'b list
(** Registry-isolated parallel map: run [f] over the items on up to
    [domains] domains under [strategy] (default
    {!Clusteer_util.Parallel.Static}), handing [f] its worker's
    {b private} counter registry, then merge the worker registries
    into [into] (default {!Clusteer_obs.Counters.default}). Results
    keep input order. The merged totals do not depend on which worker
    ran which item ({!Clusteer_obs.Counters.merge} sorts names and adds
    integers); as long as [f] is deterministic per item, a parallel
    run is bit-identical to a sequential one. The service layer's
    worker pool runs on this. *)

val run_suite :
  ?progress:(string -> unit) ->
  ?warmup:int ->
  ?domains:int ->
  ?strategy:Clusteer_util.Parallel.strategy ->
  ?profiled:bool ->
  ?params:Clusteer.Configuration.params ->
  ?trace_salt:int ->
  machine:Config.t ->
  configs:Clusteer.Configuration.t list ->
  uops:int ->
  Profile.t list ->
  point_result list
(** Whole-suite sweep, sharded across domains at simulation-point
    granularity; results keep (profile, point) input order and are
    the same under either [strategy] (default
    {!Clusteer_util.Parallel.Static}). [progress]
    is called once per benchmark, from whichever domain picks up the
    benchmark's first point — ordering across benchmarks is therefore
    not guaranteed under [domains > 1]. *)

val run_grouped :
  ?progress:(string -> unit) ->
  ?warmup:int ->
  ?domains:int ->
  ?profiled:bool ->
  ?params:Clusteer.Configuration.params ->
  ?trace_salt:int ->
  machine:Config.t ->
  configs:Clusteer.Configuration.t list ->
  uops:int ->
  Profile.t list ->
  (Profile.t * point_result list) list
(** {!run_suite}, with the flat results regrouped per profile (in
    input order) — the shape the experiment sweeps consume. *)

val weighted_metric :
  point_result list -> config:string -> f:(Stats.t -> float) -> float
(** Phase-weighted metric for one configuration over one benchmark's
    point results. *)

val weighted_pair_metric :
  point_result list ->
  config_a:string ->
  config_b:string ->
  f:(Stats.t -> Stats.t -> float) ->
  float
(** Phase-weighted metric comparing two configurations point by
    point (e.g. slowdown of a vs b). *)

val measured : (unit -> 'a) -> 'a * float * Clusteer_obs.Ledger.gc_delta
(** [measured f] runs [f] and returns its result together with the
    wall-clock seconds and [Gc.quick_stat] deltas it cost — the shape
    the run ledger records for every entry. *)
