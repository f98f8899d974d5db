(* The benchmark's own composition of the simulator's layers, driven
   only through their public functions:

     Synth.build -> Configuration.prepare -> Engine.create / reset
       -> Engine.run (source = Tracegen.next, policy = Policy.t.decide)

   It mirrors what Runner does for one point (one trace generated per
   point and replayed to every configuration, cache prewarm, default
   warmup, params.topology set to the machine's fabric), and keeps one
   engine per (machine, configuration) that it resets between points,
   as the sweep's per-domain reuse does. The checks require its
   statistics to equal Runner's for the same point.

   Traced, every layer call is bracketed by a span; the per-uop
   source and the decide call are wrapped and sampled (see Spans). *)

open Clusteer_uarch
open Clusteer_workloads
module Conf = Clusteer.Configuration
module Counters = Clusteer_obs.Counters
module Tracegen = Clusteer_trace.Tracegen
module Dynuop = Clusteer_trace.Dynuop

(* Sample one call in about this many for trace.next and steer.decide. *)
let sample_every = 128

type counts = {
  mutable generated : int;
  mutable decides : int;
  mutable stalls : int;
  mutable committed : int;  (* measured, as Stats.committed *)
  mutable warmup : int;  (* warmup micro-ops simulated before them *)
  mutable cycles : int;
  mutable prepares : int;
  (* minor words: 0 = trace.next, 1 = steer.decide (both estimated
     from the samples, scaled by their weights), 2 = whole Engine.run
     calls (measured) *)
  words : float array;
  mutable minor_gcs : int;
}

type t = {
  spans : Spans.t option;  (* [None] = untraced *)
  registry : Counters.registry;
  engines : (string, Engine.t) Hashtbl.t;
  counts : counts;
  trace_sampler : Spans.sampler;
  steer_sampler : Spans.sampler;
  trace_name : int;  (* interned span names, so sampling never hashes *)
  steer_name : int;
  mutable run_span : int;  (* parent of the sampled spans *)
}

let create ~traced =
  let spans = if traced then Some (Spans.create ()) else None in
  let intern name = Option.fold ~none:(-1) ~some:(fun s -> Spans.intern s name) spans in
  {
    spans;
    registry = Counters.create ();
    engines = Hashtbl.create 16;
    counts =
      {
        generated = 0;
        decides = 0;
        stalls = 0;
        committed = 0;
        warmup = 0;
        cycles = 0;
        prepares = 0;
        words = Array.make 3 0.0;
        minor_gcs = 0;
      };
    trace_sampler = Spans.sampler ~every:sample_every ~seed:0x2545F491;
    steer_sampler = Spans.sampler ~every:sample_every ~seed:0x1B873593;
    trace_name = intern "trace.next";
    steer_name = intern "steer.decide";
    run_span = -1;
  }

let span t name ~parent f =
  match t.spans with
  | None -> f (-1)
  | Some s -> Spans.timed s name ~parent f

(* ---- trace: one generator per point, replayed to every config ----- *)

(* The same shared buffer Runner keeps: generated once, each
   configuration reads it through its own cursor. Only the
   [Tracegen.next] calls are trace-layer time. *)
type buffer = {
  gen : Tracegen.t;
  mutable buf : Dynuop.t array;
  mutable len : int;
}

let generate t b =
  t.counts.generated <- t.counts.generated + 1;
  match t.spans with
  | Some s when Spans.tick t.trace_sampler ->
      let w0 = Gc.minor_words () in
      let t0 = Spans.now_ns () in
      let d = Tracegen.next b.gen in
      let t1 = Spans.now_ns () in
      let w1 = Gc.minor_words () in
      t.counts.words.(0) <-
        t.counts.words.(0)
        +. ((w1 -. w0) *. float_of_int t.trace_sampler.Spans.gap);
      Spans.add_sample s t.trace_sampler ~name:t.trace_name
        ~parent:t.run_span ~start:t0 ~stop:t1;
      d
  | _ -> Tracegen.next b.gen

let cursor t b =
  let pos = ref 0 in
  fun () ->
    let i = !pos in
    incr pos;
    while b.len <= i do
      let d = generate t b in
      if b.len = Array.length b.buf then begin
        let bigger = Array.make (max 4096 (2 * b.len)) d in
        Array.blit b.buf 0 bigger 0 b.len;
        b.buf <- bigger
      end;
      b.buf.(b.len) <- d;
      b.len <- b.len + 1
    done;
    b.buf.(i)

(* ---- steer: the decide wrapper ----------------------------------- *)

let traced_policy t (p : Policy.t) =
  let c = t.counts in
  let decide view d =
    c.decides <- c.decides + 1;
    let r =
      match t.spans with
      | Some s when Spans.tick t.steer_sampler ->
          let w0 = Gc.minor_words () in
          let t0 = Spans.now_ns () in
          let r = p.Policy.decide view d in
          let t1 = Spans.now_ns () in
          let w1 = Gc.minor_words () in
          c.words.(1) <-
            c.words.(1)
            +. ((w1 -. w0) *. float_of_int t.steer_sampler.Spans.gap);
          Spans.add_sample s t.steer_sampler
            ~name:t.steer_name ~parent:t.run_span ~start:t0
            ~stop:t1;
          r
      | _ -> p.Policy.decide view d
    in
    (match r with Policy.Stall -> c.stalls <- c.stalls + 1 | _ -> ());
    r
  in
  { p with Policy.decide }

(* ---- one point --------------------------------------------------- *)

let prewarm (w : Synth.t) =
  Array.to_list (Array.map Clusteer_trace.Mem_model.extent w.Synth.streams)

(* Simulate [configs] on one point: [build] yields the workload, [seed]
   the trace seed. [machine_key] names the machine for engine reuse.
   Traced, the whole call is one "point" span under [parent]. *)
let run_point t ~parent ~machine_key ~machine ~configs
    ~uops ~seed build =
  span t "point" ~parent (fun op ->
      let workload = span t "workloads.build" ~parent:op (fun _ -> build ()) in
      let params =
        {
          Conf.default_params with
          Conf.topology = Some machine.Config.topology;
        }
      in
      let b =
        { gen = Synth.trace workload ~seed; buf = [||]; len = 0 }
      in
      let warmup = Clusteer_harness.Runner.default_warmup uops in
      List.map
        (fun config ->
          let name = Conf.name config in
          let annot, policy =
            span t "compiler.prepare" ~parent:op (fun _ ->
                t.counts.prepares <- t.counts.prepares + 1;
                Conf.prepare config ~program:workload.Synth.program
                  ~likely:workload.Synth.likely
                  ~clusters:machine.Config.clusters ~params
                  ~registry:t.registry ())
          in
          let policy =
            match t.spans with
            | None -> policy
            | Some _ -> traced_policy t policy
          in
          let key = machine_key ^ "/" ^ name in
          let engine =
            match Hashtbl.find_opt t.engines key with
            | Some e ->
                span t "uarch.reset" ~parent:op (fun _ ->
                    Engine.reset ~prewarm:(prewarm workload) e ~annot ~policy);
                e
            | None ->
                let e =
                  span t "uarch.create" ~parent:op (fun _ ->
                      Engine.create ~config:machine ~annot ~policy
                        ~prewarm:(prewarm workload) ~registry:t.registry ())
                in
                Hashtbl.replace t.engines key e;
                e
          in
          let source = cursor t b in
          let c = t.counts in
          let stats =
            span t "uarch.run" ~parent:op (fun id ->
                t.run_span <- id;
                let gcs0 = (Gc.quick_stat ()).Gc.minor_collections in
                let w0 = Gc.minor_words () in
                let stats = Engine.run ~warmup engine ~source ~uops in
                c.words.(2) <- c.words.(2) +. (Gc.minor_words () -. w0);
                c.minor_gcs <-
                  c.minor_gcs
                  + ((Gc.quick_stat ()).Gc.minor_collections - gcs0);
                stats)
          in
          c.committed <- c.committed + stats.Stats.committed;
          c.warmup <- c.warmup + warmup;
          c.cycles <- c.cycles + stats.Stats.cycles;
          (name, Stats.copy stats))
        configs)

let remaps t =
  match List.assoc_opt "vc.remaps" (Counters.counters t.registry) with
  | Some n -> n
  | None -> 0

(* ---- per-layer figures from a traced composition ---------------- *)

(* Layer totals over everything this context ran, in ns (sampled
   layers scaled by their weights). *)
type totals = {
  build_ns : int;
  prepare_ns : int;
  create_ns : int;
  reset_ns : int;
  run_self_ns : int;  (* uarch.run minus its sampled children *)
  trace_ns : int;
  steer_ns : int;
}

let totals t =
  match t.spans with
  | None -> invalid_arg "Layers.totals: untraced context"
  | Some s ->
      let selfs = Spans.self_times s in
      let tot = Spans.total_self s selfs in
      {
        build_ns = tot "workloads.build";
        prepare_ns = tot "compiler.prepare";
        create_ns = tot "uarch.create";
        reset_ns = tot "uarch.reset";
        run_self_ns = tot "uarch.run";
        trace_ns = tot "trace.next";
        steer_ns = tot "steer.decide";
      }

(* ---- allocation probe -------------------------------------------- *)

(* An allocation-free machine view (constant locations, no hashtable,
   no per-call closures), so [Gc.minor_words] deltas measure the policy
   itself, not the probe. The same view backs the repo's 0.0
   words/decision contract. *)
let probe_view ~clusters ~annot =
  let inflight = Array.make clusters 0 in
  let free = Array.make clusters 48 in
  let loc = Clusteer_util.Bitset.singleton 0 in
  {
    Policy.clusters;
    cycle = (fun () -> 0);
    inflight = (fun c -> inflight.(c));
    queue_free = (fun c _ -> free.(c));
    src_locations =
      (fun d -> Array.map (fun _ -> loc) d.Dynuop.suop.Clusteer_isa.Uop.srcs);
    src_locations_into =
      (fun d buf ->
        let n = Array.length d.Dynuop.suop.Clusteer_isa.Uop.srcs in
        for i = 0 to n - 1 do
          buf.(i) <- loc
        done;
        n);
    reg_location = (fun _ -> loc);
    annot;
  }

(* Minor words per decide for op, op-parallel, dep and vc2 on the probe
   view over gzip-1's first micro-op. *)
let probe_words_per_decide () =
  let workload = Synth.build (Spec2000.find "gzip-1") in
  let annot =
    Clusteer.Hybrid.compile ~program:workload.Synth.program
      ~likely:workload.Synth.likely ~virtual_clusters:2 ()
  in
  let view = probe_view ~clusters:2 ~annot in
  let duop = Tracegen.next (Synth.trace workload ~seed:1) in
  let rounds = 20_000 in
  List.map
    (fun (name, (policy : Policy.t)) ->
      (* Warm lazily sized scratch arrays out of the measurement. *)
      for _ = 1 to 256 do
        ignore (policy.Policy.decide view duop)
      done;
      let before = Gc.minor_words () in
      for _ = 1 to rounds do
        ignore (policy.Policy.decide view duop)
      done;
      (name, (Gc.minor_words () -. before) /. float_of_int rounds))
    [
      ("op", Clusteer_steer.Op.make ());
      ("op-parallel", Clusteer_steer.Op_parallel.make ());
      ("dep", Clusteer_steer.Dep.make ());
      ("vc2", Clusteer_steer.Vc_map.make ~annot ~clusters:2 ());
    ]
