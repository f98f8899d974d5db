(* The layered clusteer benchmark: one workload per invocation.

     main.exe --workload W --seed N --seconds S --trace 0|1
     main.exe --self-test

   --trace 0 measures the end-to-end metrics with no instrumentation;
   --trace 1 makes the separate traced run that attributes host time
   and allocation to the layers. Either way the last line of stdout is
   one JSON object: {"correct", "attempted", "failed", "metrics"}. The
   lines before it are for people (see README.md). *)

open Clusteer_uarch
module Runner = Clusteer_harness.Runner
module Json = Clusteer_obs.Json

let now = Unix.gettimeofday

(* Minor words allocated by every domain of the process so far: the
   minor collection flushes each live domain's count into the total
   [quick_stat] reports (terminated domains are already in it). *)
let all_minor_words () =
  Gc.minor ();
  (Gc.quick_stat ()).Gc.minor_words

let minor_gcs () = (Gc.quick_stat ()).Gc.minor_collections

(* Peak resident set of the process (VmHWM), MB. *)
let rss_peak_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> find ()
        | exception End_of_file -> failwith "perfbench: no VmHWM in /proc/self/status"
      in
      find ())

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---- outcome accounting ------------------------------------------- *)

(* Every checked operation is attempted once; it fails when it raised,
   got an error, rejected or timed-out reply, or produced simulated
   statistics that differ from another run of the same input. *)
type outcome = { mutable attempted : int; mutable failed : int }

let outcome = { attempted = 0; failed = 0 }

let check what ok =
  outcome.attempted <- outcome.attempted + 1;
  if not ok then begin
    outcome.failed <- outcome.failed + 1;
    Printf.printf "MISMATCH %s\n%!" what
  end

(* Run [f]; an exception counts as one failed operation. *)
let guarded what f =
  match f () with
  | r -> Some r
  | exception e ->
      check (what ^ ": " ^ Printexc.to_string e) false;
      None

(* ---- metrics ----------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }
let ms_of_ns ns = float_of_int ns /. 1e6
let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

(* Full precision: "%.17g" round-trips every double. *)
let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith "perfbench: non-finite metric"

let print_result metrics =
  let fields =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
          (json_number x.value) x.unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (outcome.failed = 0 && outcome.attempted > 0)
    (max 1 outcome.attempted) outcome.failed
    (String.concat ", " fields)

let show metrics =
  List.iter
    (fun x -> Printf.printf "  %-34s %.17g %s\n" x.name x.value x.unit_)
    metrics

(* The simulated figures are exact: an untraced run prints them at full
   precision for comparing two commits, outside its metrics. *)
let show_simulated metrics =
  print_endline "  simulated (deterministic per seed):";
  show metrics

(* ---- end-to-end ---------------------------------------------------- *)

(* One timed operation: a simulation run (sim-ilp, sim-mem), a whole
   sweep (sweep-fig5) or a batch round trip (serve-mixed). [kind] names
   what it ran: a run's item, "sweep", "hot" or "fresh". *)
type sample = { kind : string; ms : float; uops : int; results : int }

(* What an untraced measurement window delivered. *)
type window = {
  samples : sample array;
  words : float;  (* minor words, all domains, set-up excluded *)
  gcs : int;  (* minor collections *)
  setups : float array;  (* s, one per set-up repetition *)
}

(* Repeat [op] until [seconds] have passed; each call returns the
   samples of the operations it ran. [setup] = (every, f) repeats the
   workload's set-up after every [every] calls, so that its repetitions
   are spread over the window like the operations; its allocation is
   not charged to the operations. *)
let measure ?setup ~seconds op =
  let acc = ref [] and calls = ref 0 in
  let setups = ref [] and setup_words = ref 0.0 in
  let words0 = all_minor_words () and gcs0 = minor_gcs () in
  let set_up f =
    let w0 = all_minor_words () in
    let _, dt = time f in
    setups := dt :: !setups;
    setup_words := !setup_words +. (all_minor_words () -. w0)
  in
  let t0 = now () in
  while now () -. t0 < seconds || !acc = [] do
    acc := List.rev_append (op ()) !acc;
    incr calls;
    match setup with
    | Some (every, f) when !calls mod every = 0 -> set_up f
    | _ -> ()
  done;
  (match setup with Some (_, f) when !setups = [] -> set_up f | _ -> ());
  {
    samples = Array.of_list (List.rev !acc);
    words = all_minor_words () -. words0 -. !setup_words;
    gcs = minor_gcs () - gcs0;
    setups = Array.of_list !setups;
  }

(* Time [f] as one sample of [kind]; [f] returns (uops, results). *)
let sample kind f =
  let t0 = now () in
  let uops, results = f () in
  { kind; ms = (now () -. t0) *. 1000.0; uops; results }

let window_ms w = Array.map (fun s -> s.ms) w.samples

let by_kind w =
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun s ->
      Hashtbl.replace tbl s.kind
        (s :: Option.value ~default:[] (Hashtbl.find_opt tbl s.kind)))
    w.samples;
  List.sort compare
    (Hashtbl.fold (fun k ss acc -> (k, Array.of_list (List.rev ss)) :: acc) tbl [])

(* Every operation is charged its kind's median time, scaled by the
   90th percentile, over all operations of the window, of how much
   longer than its kind's median an operation took. The host this
   benchmark was tuned on alternates between a fast and a slow
   (contended) state, in a share that differs from one window to the
   next. A median lands in whichever state held the majority, so it
   flips between windows; the 90th percentile sits in the slow state
   that every window contains, and repeats. Taken over all operations
   at once it rests on every sample of the window, not on one kind's:
   a sweep slice runs only about eight times per window, and the p90 of
   eight samples is their maximum. Each operation weighs its kind's
   median time, so that short operations with jitter of their own
   (serve-mixed's cached batches: about 1 ms, p90 three times p50) do
   not set the slowdown charged to the long ones. *)
let end_to_end w =
  let ms = window_ms w in
  let n = Array.length ms in
  let total f = Array.fold_left (fun a s -> a + f s) 0 w.samples in
  let uops = fi (total (fun s -> s.uops)) in
  let kinds = by_kind w in
  let medians =
    List.map (fun (kind, ss) -> (kind, Pct.median (Array.map (fun s -> s.ms) ss))) kinds
  in
  let slowdown =
    Pct.weighted_percentile ~pct:90
      (Array.map
         (fun s ->
           let median = List.assoc s.kind medians in
           (s.ms /. median, median))
         w.samples)
  in
  Printf.printf
    "  %d timed operations (%d beyond p90), median %.3f ms; p90 time over its kind's \
     median %.4f; %d set-ups\n"
    n (Pct.beyond ~pct:90 n) (Pct.median ms) slowdown (Array.length w.setups);
  Printf.printf "  %-30s %6s %10s %10s %12s\n" "kind" "n" "p50 ms" "p90 ms"
    "uop/s @p50";
  List.iter
    (fun (kind, ss) ->
      let t = Array.map (fun s -> s.ms) ss in
      let p50 = List.assoc kind medians in
      Printf.printf "  %-30s %6d %10.3f %10.3f %12.0f\n" kind (Array.length ss) p50
        (Pct.percentile ~pct:90 t)
        (fi ss.(0).uops /. p50 *. 1000.0))
    kinds;
  let charged =
    slowdown
    *. List.fold_left
         (fun acc (kind, ss) -> acc +. (List.assoc kind medians *. fi (Array.length ss)))
         0.0 kinds
    /. 1000.0
  in
  [
    m "uops_per_s" "uop/s" (uops /. charged);
    m "req_per_s" "1/s" (fi (total (fun s -> s.results)) /. charged);
    m "op_ms_p90" "ms" (charged *. 1000.0 /. fi n);
    m "minor_words_per_uop" "words/uop" (ratio w.words uops);
    m "rss_peak_mb" "MB" (rss_peak_mb ());
    (* Set-up repetitions are spread over the window like the
       operations; their p90, too, sits in the slow state. *)
    m "setup_s" "s" (Pct.percentile ~pct:90 w.setups);
  ]

(* ---- simulated figures -------------------------------------------- *)

let sim_metrics (sim : Sim_load.sim) stats =
  Printf.printf "  sim_digest %s over %d runs\n" (Sim_load.digest stats)
    (List.length stats);
  [
    m "sim_ipc" "uop/cycle" sim.Sim_load.ipc;
    m "sim_copies_per_kuop" "copies/kuop" sim.Sim_load.copies_per_kuop;
    m "sim_vc2_slowdown_pct" "%" sim.Sim_load.vc2_slowdown_pct;
  ]

let sim_counts stats =
  let sum f = fi (List.fold_left (fun a s -> a + f s) 0 stats) in
  [
    m "uarch.cycles" "cycles" (sum (fun s -> s.Stats.cycles));
    m "uarch.alloc_stall_cycles" "cycles" (sum Stats.allocation_stalls);
    m "uarch.copyq_stall_cycles" "cycles" (sum (fun s -> s.Stats.stall_copyq_full));
    m "uarch.copies" "count" (sum (fun s -> s.Stats.copies_generated));
    m "topo.link_transfers" "count" (sum (fun s -> s.Stats.link_transfers));
  ]

(* ---- per-layer ---------------------------------------------------- *)

(* Layer figures of a traced composition that ran [ops] operations. *)
let layer_metrics (ctx : Layers.t) ~ops =
  let t = Layers.totals ctx and c = ctx.Layers.counts in
  let per_op ns = ms_of_ns ns /. fi ops in
  let simulated = fi (c.Layers.committed + c.Layers.warmup) in
  (* The warmup's cycles are not in the statistics; count them at the
     measured IPC. *)
  let cycles = fi c.Layers.cycles *. ratio simulated (fi c.Layers.committed) in
  let decides = fi c.Layers.decides and generated = fi c.Layers.generated in
  let w = c.Layers.words in
  let uarch_ns = fi t.Layers.run_self_ns in
  [
    m "workloads.build_ms" "ms" (per_op t.Layers.build_ns);
    m "compiler.prepare_ms" "ms" (per_op t.Layers.prepare_ns);
    m "compiler.prepare_calls" "count" (fi c.Layers.prepares /. fi ops);
    m "trace.uops" "uops" (generated /. fi ops);
    m "trace.self_ms" "ms" (per_op t.Layers.trace_ns);
    m "trace.ns_per_uop" "ns/uop" (ratio (fi t.Layers.trace_ns) generated);
    m "trace.words_per_uop" "words/uop" (ratio w.(0) generated);
    m "steer.decides" "count" (decides /. fi ops);
    m "steer.decides_per_uop" "1/uop" (ratio decides simulated);
    m "steer.stall_frac" "ratio" (ratio (fi c.Layers.stalls) decides);
    m "steer.self_ms" "ms" (per_op t.Layers.steer_ns);
    m "steer.ns_per_decide" "ns" (ratio (fi t.Layers.steer_ns) decides);
    m "steer.words_per_decide" "words" (ratio w.(1) decides);
    m "steer.remaps" "count" (fi (Layers.remaps ctx) /. fi ops);
    m "uarch.self_ms" "ms" (per_op t.Layers.run_self_ns);
    m "uarch.ns_per_uop" "ns/uop" (ratio uarch_ns simulated);
    m "uarch.ns_per_cycle" "ns/cycle" (ratio uarch_ns cycles);
    m "uarch.words_per_uop" "words/uop"
      (ratio (w.(2) -. w.(0) -. w.(1)) simulated);
    m "uarch.minor_gcs" "count" (fi c.Layers.minor_gcs /. fi ops);
    m "uarch.create_ms" "ms" (per_op t.Layers.create_ns);
    m "uarch.reset_ms" "ms" (per_op t.Layers.reset_ns);
  ]

let probe_metrics () =
  List.map
    (fun (policy, words) -> m ("steer.words_per_decide." ^ policy) "words" words)
    (Layers.probe_words_per_decide ())

let spans_dir = Filename.concat "perfbench" "out"

let ensure_dir d =
  if not (Sys.file_exists d) then Unix.mkdir d 0o755

let write_spans (ctx : Layers.t) ~workload ~seed =
  match ctx.Layers.spans with
  | None -> ()
  | Some s ->
      ensure_dir spans_dir;
      let path =
        Filename.concat spans_dir (Printf.sprintf "spans-%s-%d.jsonl" workload seed)
      in
      Spans.write s path;
      Printf.printf "  %d spans written to %s\n" (Spans.length s) path

(* ---- serve --------------------------------------------------------- *)

let socket_path () =
  ensure_dir spans_dir;
  Filename.concat spans_dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ()))

(* Server set-up: start a second server, answer its first ping, fill
   its cache with the hot set, stop it. *)
let server_setup () =
  let mix = Serve_load.mix ~seed:0 in
  let socket = Filename.remove_extension (socket_path ()) ^ "-setup.sock" in
  let s = Serve_load.start ~socket in
  ignore (Serve_load.call s mix.Serve_load.hot);
  Serve_load.stop s

let check_reply what (r : Serve_load.reply) = check what r.Serve_load.ok

(* Serve metrics for one served exchange. *)
let serve_metrics (st : Serve_load.server_stats) ~hot_ms ~fresh_ms =
  let p50 a = if Array.length a = 0 then 0.0 else Pct.median a in
  [
    m "serve.hit_ratio" "ratio" st.Serve_load.hit_ratio;
    m "serve.simulations" "count" (fi st.Serve_load.simulations);
    m "serve.rejected" "count" (fi st.Serve_load.rejected);
    m "serve.queue_depth_max" "count" (fi st.Serve_load.queue_depth_max);
    m "serve.hot_batch_ms_p50" "ms" (p50 hot_ms);
    m "serve.fresh_batch_ms_p50" "ms" (p50 fresh_ms);
  ]

let rec chunks n = function
  | [] -> []
  | xs ->
      let rec take k acc = function
        | x :: rest when k > 0 -> take (k - 1) (x :: acc) rest
        | rest -> (List.rev acc, rest)
      in
      let c, rest = take n [] xs in
      c :: chunks n rest

(* The serve layer over a sim workload's own runs: every run as a
   request, in batches of 8, once fresh and once from the cache. A
   fresh reply must carry exactly the statistics of the Runner run; a
   cached reply must repeat the fresh reply byte for byte. *)
let serve_pass requests =
  let socket = socket_path () in
  let s = Serve_load.start ~socket in
  let batches = chunks 8 requests in
  let fresh =
    List.map
      (fun batch ->
        let replies, ms = Serve_load.call s (List.map fst batch) in
        List.iter2
          (fun (_, stats) (r : Serve_load.reply) ->
            let expected = Json.to_string (Stats.to_json stats) in
            check "serve fresh reply vs Runner"
              (r.Serve_load.ok
              && Serve_load.contains r.Serve_load.result
                   ("\"stats\":" ^ expected)))
          batch replies;
        (replies, ms))
      batches
  in
  let hot_ms =
    List.map2
      (fun batch (first, _) ->
        let replies, ms = Serve_load.call s (List.map fst batch) in
        List.iter2
          (fun (a : Serve_load.reply) (b : Serve_load.reply) ->
            check "serve cached reply bytes"
              (b.Serve_load.ok && String.equal a.Serve_load.result b.Serve_load.result))
          first replies;
        ms)
      batches fresh
  in
  let st = Serve_load.server_stats s in
  Serve_load.stop s;
  serve_metrics st ~hot_ms:(Array.of_list hot_ms)
    ~fresh_ms:(Array.of_list (List.map snd fresh))

(* ---- sim-ilp / sim-mem -------------------------------------------- *)

(* A sim workload's runs: every item under every salt of the seed. One
   round replays one salt; [expected] is the round's first result. *)
type run = { item : Sim_load.item; salt : int; expected : Stats.t }

let sim_rounds ~seed items =
  List.map
    (fun salt ->
      List.map
        (fun item ->
          match
            guarded (Sim_load.label item) (fun () ->
                Sim_load.run_runner ~salt item)
          with
          | Some expected -> { item; salt; expected }
          | None -> failwith "perfbench: reference run failed")
        items)
    (Sim_load.salts ~seed)

let sim_figures rounds =
  let runs = List.concat rounds in
  let stats = List.map (fun r -> r.expected) runs in
  ( Sim_load.sim_figures
      ~groups:
        (Sim_load.item_groups (List.map (fun r -> (r.item, r.salt, r.expected)) runs))
      stats,
    stats )

let sim_figure_metrics rounds =
  let figures, stats = sim_figures rounds in
  sim_metrics figures stats

(* Run [f] for [r]; its result must equal the reference. *)
let checked what r f =
  let label = Sim_load.label r.item in
  match guarded label f with
  | Some s ->
      check (Printf.sprintf "%s salt %d %s" label r.salt what) (Stats.equal s r.expected);
      Some s
  | None -> None

let runner_sample r =
  sample (Sim_load.label r.item) (fun () ->
      match
        checked "repeat" r (fun () -> Sim_load.run_runner ~salt:r.salt r.item)
      with
      | Some s -> (s.Stats.committed, 1)
      | None -> (0, 0))

(* Cycle through the rounds, one per call. *)
let cycling rounds =
  let rounds = Array.of_list rounds and k = ref (-1) in
  fun () ->
    incr k;
    rounds.(!k mod Array.length rounds)

let sim_e2e ~seconds ~seed items =
  let rounds = sim_rounds ~seed items in
  let next = cycling rounds in
  let w =
    measure ~seconds
      ~setup:(2, fun () -> Sim_load.setup items)
      (fun () -> List.map runner_sample (next ()))
  in
  show_simulated (sim_figure_metrics rounds);
  end_to_end w

(* Medians per item of three interleaved paths, so slow drifts of host
   speed hit all three alike. *)
let median_of_lists lists = List.map (fun l -> Pct.median (Array.of_list l)) lists
let sum = List.fold_left ( +. ) 0.0

(* The runs the service can express: the PinPoints points, which all
   run on default machines (the adversarial kernel on the mesh is not a
   request the service can name). *)
let sim_requests rounds =
  List.filter_map
    (fun r ->
      match r.item.Sim_load.source with
      | Sim_load.Spec p ->
          Some
            ( Clusteer_serve.Request.make
                ~workload:p.Clusteer_workloads.Pinpoints.benchmark
                ~phase:p.Clusteer_workloads.Pinpoints.index
                ~clusters:r.item.Sim_load.machine.Config.clusters
                ~policy:r.item.Sim_load.config ~uops:Sim_load.run_uops
                ~seed:(Sim_load.seed ~salt:r.salt r.item) (),
              r.expected )
      | _ -> None)
    (List.concat rounds)

(* Each round runs every item three ways, interleaved: through Runner,
   through the untraced composition and through the traced one. All
   three must reproduce the reference statistics. *)
let sim_traced ~seconds ~workload ~seed items =
  let rounds = sim_rounds ~seed items in
  let next = cycling rounds in
  let untraced = Layers.create ~traced:false in
  let ctx = Layers.create ~traced:true in
  let n = List.length items in
  let runner = Array.make n [] and comp = Array.make n [] in
  let traced = Array.make n [] in
  let gcs = ref 0 and count = ref 0 in
  let t0 = now () in
  while !count < 2 * List.length rounds || now () -. t0 < seconds /. 2.0 do
    incr count;
    List.iteri
      (fun k r ->
        let g0 = minor_gcs () in
        let s = runner_sample r in
        gcs := !gcs + (minor_gcs () - g0);
        runner.(k) <- s.ms :: runner.(k);
        let layered ctx =
          snd
            (time (fun () ->
                 checked "composition vs Runner" r (fun () ->
                     Sim_load.run_layers ctx ~parent:(-1) ~salt:r.salt r.item)))
          *. 1000.0
        in
        comp.(k) <- layered untraced :: comp.(k);
        traced.(k) <- layered ctx :: traced.(k))
      (next ())
  done;
  let runner = median_of_lists (Array.to_list runner)
  and comp = median_of_lists (Array.to_list comp)
  and traced = median_of_lists (Array.to_list traced) in
  let ops = !count * n in
  write_spans ctx ~workload ~seed;
  let figures, stats = sim_figures rounds in
  layer_metrics ctx ~ops @ probe_metrics () @ sim_counts stats
  @ [
      m "harness.overhead_ms" "ms" ((sum runner -. sum comp) /. fi n);
      m "harness.minor_gcs" "count" (fi !gcs /. fi ops);
      m "harness.domain_speedup" "x" 1.0;
    ]
  @ serve_pass (sim_requests rounds)
  @ [
      m "bench.tracing_overhead_pct" "%" (100.0 *. ((sum traced /. sum comp) -. 1.0));
    ]
  @ sim_metrics figures stats

(* ---- sweep-fig5 ----------------------------------------------------- *)

let sweep_check what results reference =
  let stats = Sim_load.sweep_stats results in
  if List.compare_lengths stats reference <> 0 then check (what ^ ": run count") false
  else List.iter2 (fun s expected -> check what (Stats.equal s expected)) stats reference

let sweep_sample ?profiles ?(kind = "sweep") ~salt ~domains reference =
  sample kind (fun () ->
      match
        guarded kind (fun () -> Sim_load.run_sweep ?profiles ~salt ~domains ())
      with
      | Some results ->
          sweep_check (kind ^ " repeat") results reference;
          let stats = Sim_load.sweep_stats results in
          ( List.fold_left (fun a s -> a + s.Stats.committed) 0 stats,
            List.length stats )
      | None -> (0, 0))

let sweep_reference ~salt ~domains =
  let results = Sim_load.run_sweep ~salt ~domains () in
  (results, Sim_load.sweep_stats results)

(* The untraced run times the sweep in slices of two consecutive
   profiles, each one run_suite call on one domain of 0.1-0.7 s, so a
   window holds over a hundred timed slices, and no domain waits on
   the host's scheduling of another. Each slice is named after its
   profiles and checked against its part of the reference sweep. *)
let sweep_slices results =
  List.map
    (fun profiles ->
      let names = List.map (fun p -> p.Clusteer_workloads.Profile.name) profiles in
      let part =
        List.filter
          (fun (r : Runner.point_result) ->
            List.mem
              r.Runner.point.Clusteer_workloads.Pinpoints.profile
                .Clusteer_workloads.Profile.name names)
          results
      in
      (String.concat "+" names, profiles, Sim_load.sweep_stats part))
    (chunks 2 Clusteer_workloads.Spec2000.all)

let sweep_e2e ~seconds ~salt =
  let results, reference =
    sweep_reference ~salt ~domains:(Sim_load.sweep_domains ())
  in
  let slices = sweep_slices results in
  let w =
    measure ~seconds ~setup:(1, Sim_load.sweep_setup) (fun () ->
        List.map
          (fun (kind, profiles, expected) ->
            sweep_sample ~profiles ~kind ~salt ~domains:1 expected)
          slices)
  in
  show_simulated
    (sim_metrics
       (Sim_load.sim_figures ~groups:(Sim_load.sweep_groups results) reference)
       reference);
  end_to_end w

let sweep_requests ~salt results =
  List.concat_map
    (fun (r : Runner.point_result) ->
      let p = r.Runner.point in
      List.map2
        (fun config (_, stats) ->
          ( Clusteer_serve.Request.make
              ~workload:p.Clusteer_workloads.Pinpoints.benchmark
              ~phase:p.Clusteer_workloads.Pinpoints.index ~clusters:2
              ~policy:config ~uops:Sim_load.sweep_uops
              ~seed:(Runner.salted_trace_seed ~salt p) (),
            stats ))
        Sim_load.sweep_configs r.Runner.runs)
    results

(* Two interleaved repetitions of: the sweep on its domains, the sweep
   on one domain, the untraced composition and the traced one. *)
let sweep_traced ~salt ~workload ~seed =
  let domains = Sim_load.sweep_domains () in
  let results, reference = sweep_reference ~salt ~domains in
  let untraced = Layers.create ~traced:false in
  let ctx = Layers.create ~traced:true in
  let compose ctx what =
    let r, dt =
      time (fun () ->
          Layers.span ctx "op" ~parent:(-1) (fun op ->
              Sim_load.sweep_layers ctx ~parent:op ~salt))
    in
    sweep_check what r reference;
    dt
  in
  let reps = 2 and gcs = ref 0 in
  let rows =
    List.init reps (fun _ ->
        let tn = (sweep_sample ~salt ~domains reference).ms /. 1000.0 in
        let g0 = minor_gcs () in
        let t1 = (sweep_sample ~salt ~domains:1 reference).ms /. 1000.0 in
        gcs := !gcs + (minor_gcs () - g0);
        let tc = compose untraced "sweep composition vs Runner" in
        let tt = compose ctx "sweep traced composition vs Runner" in
        (tn, t1, tc, tt))
  in
  let med f = Pct.median (Array.of_list (List.map f rows)) in
  let tn = med (fun (x, _, _, _) -> x) and t1 = med (fun (_, x, _, _) -> x) in
  let tc = med (fun (_, _, x, _) -> x) and tt = med (fun (_, _, _, x) -> x) in
  write_spans ctx ~workload ~seed;
  layer_metrics ctx ~ops:reps @ probe_metrics () @ sim_counts reference
  @ [
      m "harness.overhead_ms" "ms" ((t1 -. tc) *. 1000.0);
      m "harness.minor_gcs" "count" (fi !gcs /. fi reps);
      m "harness.domain_speedup" "x" (t1 /. tn);
    ]
  @ serve_pass (sweep_requests ~salt results)
  @ [ m "bench.tracing_overhead_pct" "%" (100.0 *. ((tt /. tc) -. 1.0)) ]
  @ sim_metrics
      (Sim_load.sim_figures ~groups:(Sim_load.sweep_groups results) reference)
      reference

(* ---- serve-mixed --------------------------------------------------- *)

type served = {
  w : window;
  stats : Serve_load.server_stats;
  kept : (Clusteer_serve.Request.t list * Serve_load.reply list * float) list;
      (* the first fresh batches and their replies, for the replay *)
}

let kind_ms w kind =
  Array.of_list
    (List.filter_map
       (fun s -> if s.kind = kind then Some s.ms else None)
       (Array.to_list w.samples))

(* Closed loop: one client sends each batch after the previous reply.
   The hot set is sent once first, which fills the cache and gives the
   bytes every later hot reply must repeat. *)
let serve_loop ?setup ~seconds ~seed ~keep () =
  let s = Serve_load.start ~socket:(socket_path ()) in
  let mix = Serve_load.mix ~seed in
  let first, _ = Serve_load.call s mix.Serve_load.hot in
  List.iter (check_reply "serve hot set, first pass") first;
  let kept = ref [] in
  let w =
    measure ?setup ~seconds (fun () ->
        let b = Serve_load.next mix in
        let requests = Serve_load.requests mix b in
        let replies, ms = Serve_load.call s requests in
        (match b with
        | Serve_load.Hot ->
            List.iter2
              (fun (a : Serve_load.reply) (r : Serve_load.reply) ->
                check "serve hot reply bytes"
                  (r.Serve_load.ok
                  && String.equal a.Serve_load.result r.Serve_load.result))
              first replies
        | Serve_load.Fresh _ ->
            List.iter (check_reply "serve fresh reply") replies;
            if List.length !kept < keep then
              kept := (requests, replies, ms) :: !kept);
        let uops, results =
          List.fold_left
            (fun (u, n) (r : Serve_load.reply) ->
              if r.Serve_load.ok then (u + r.Serve_load.committed, n + 1)
              else (u, n))
            (0, 0) replies
        in
        let kind = match b with Serve_load.Hot -> "hot" | Serve_load.Fresh _ -> "fresh" in
        [ { kind; ms; uops; results } ])
  in
  let stats = Serve_load.server_stats s in
  Serve_load.stop s;
  { w; stats; kept = List.rev !kept }

let serve_e2e ~seconds ~seed =
  let sv = serve_loop ~setup:(16, server_setup) ~seconds ~seed ~keep:0 () in
  end_to_end sv.w

let point_of_request (r : Clusteer_serve.Request.t) =
  List.nth
    (Clusteer_workloads.Pinpoints.points
       (Clusteer_workloads.Spec2000.find r.Clusteer_serve.Request.workload))
    r.Clusteer_serve.Request.phase

(* Replay a served request through the composition; its statistics
   must be the ones the server replied with. *)
let replay ctx ~parent what (r : Clusteer_serve.Request.t)
    (reply : Serve_load.reply) =
  let module R = Clusteer_serve.Request in
  let point = point_of_request r in
  let s =
    Layers.run_point ctx ~parent
      ~machine_key:(string_of_int r.R.clusters)
      ~machine:(Config.default ~clusters:r.R.clusters)
      ~configs:[ r.R.policy ] ~uops:r.R.uops ~seed:(Option.get r.R.seed)
      (fun () ->
        Clusteer_workloads.Synth.build point.Clusteer_workloads.Pinpoints.profile)
    |> List.hd |> snd
  in
  check what
    (Serve_load.contains reply.Serve_load.result
       ("\"stats\":" ^ Json.to_string (Stats.to_json s)));
  s

(* The first fresh batches are replayed request by request through the
   untraced and the traced composition, interleaved. *)
let serve_traced ~seconds ~seed ~workload =
  let sv = serve_loop ~seconds:(seconds /. 2.0) ~seed ~keep:4 () in
  let untraced = Layers.create ~traced:false in
  let ctx = Layers.create ~traced:true in
  let comp = ref 0.0 and traced = ref 0.0 in
  let stats =
    List.concat_map
      (fun (requests, replies, _) ->
        Layers.span ctx "op" ~parent:(-1) (fun op ->
            List.map2
              (fun r reply ->
                let _, dt =
                  time (fun () ->
                      replay untraced ~parent:(-1) "serve reply vs composition" r
                        reply)
                in
                comp := !comp +. dt;
                let s, dt =
                  time (fun () ->
                      replay ctx ~parent:op "serve reply vs traced composition" r
                        reply)
                in
                traced := !traced +. dt;
                s)
              requests replies))
      sv.kept
  in
  write_spans ctx ~workload ~seed;
  let ops = List.length sv.kept in
  let fresh_ms = List.fold_left (fun a (_, _, ms) -> a +. ms) 0.0 sv.kept in
  (* op and vc2 of one workload and trace seed sit side by side. *)
  let rec pairs = function
    | (r, a) :: (_, b) :: rest ->
        [ { Runner.point = point_of_request r; runs = [ ("op", a); ("vc2", b) ] } ]
        :: pairs rest
    | _ -> []
  in
  let requests = List.concat_map (fun (rs, _, _) -> rs) sv.kept in
  layer_metrics ctx ~ops @ probe_metrics () @ sim_counts stats
  @ [
      m "harness.overhead_ms" "ms" ((fresh_ms -. (!comp *. 1000.0)) /. fi ops);
      m "harness.minor_gcs" "count"
        (fi sv.w.gcs /. fi (Array.length sv.w.samples));
      m "harness.domain_speedup" "x" 1.0;
    ]
  @ serve_metrics sv.stats ~hot_ms:(kind_ms sv.w "hot")
      ~fresh_ms:(kind_ms sv.w "fresh")
  @ [ m "bench.tracing_overhead_pct" "%" (100.0 *. ((!traced /. !comp) -. 1.0)) ]
  @ sim_metrics
      (Sim_load.sim_figures ~groups:(pairs (List.combine requests stats)) stats)
      stats

(* ---- self-tests ----------------------------------------------------- *)

let self_test () =
  let failures = ref 0 in
  let expect what ok =
    Printf.printf "%s %s\n" (if ok then "ok  " else "FAIL") what;
    if not ok then incr failures
  in
  (* Exact order statistics: always a sample, never an interpolation. *)
  let p pct xs = Pct.percentile ~pct (Array.of_list xs) in
  let upto n = List.init n (fun i -> fi (i + 1)) in
  expect "p50 of one sample is the sample" (p 50 [ 7.25 ] = 7.25);
  expect "p90 of one sample is the sample" (p 90 [ 7.25 ] = 7.25);
  expect "p50 of two samples is the lower one" (p 50 [ 100.0; 1.0 ] = 1.0);
  expect "p50 of 1..4 is 2" (p 50 [ 4.0; 1.0; 3.0; 2.0 ] = 2.0);
  expect "p90 of 1..10 is 9" (p 90 (upto 10) = 9.0);
  expect "p90 of 1..30 is 27" (p 90 (upto 30) = 27.0);
  expect "p90 of 1..11 is 10" (p 90 (upto 11) = 10.0);
  expect "p100 is the maximum" (p 100 (upto 17) = 17.0);
  expect "10 samples lie beyond p90 of 100" (Pct.beyond ~pct:90 100 = 10);
  let w pct xs = Pct.weighted_percentile ~pct (Array.of_list xs) in
  let ones xs = List.map (fun x -> (x, 1.0)) xs in
  expect "equal weights: weighted p90 of 1..30 is p90"
    (w 90 (ones (upto 30)) = p 90 (upto 30));
  expect "equal weights: weighted p50 of 1..4 is p50"
    (w 50 (ones [ 4.0; 1.0; 3.0; 2.0 ]) = 2.0);
  expect "a heavy sample takes the percentile"
    (w 50 [ (1.0, 1.0); (3.0, 8.0); (2.0, 1.0) ] = 3.0);
  expect "light samples beyond the weight do not"
    (w 90 [ (1.0, 90.0); (5.0, 4.0); (9.0, 6.0) ] = 1.0);
  (* Span self time with nested, overlapping, clipped and sampled
     children. *)
  let s = Spans.create () in
  let n name = Spans.intern s name in
  let span name parent start stop weight =
    Spans.push s ~name:(n name) ~parent ~start ~stop ~weight
  in
  let root = span "root" (-1) 0 100 1 in
  let a = span "a" root 10 40 1 in
  let b = span "b" root 30 60 1 in
  let a1 = span "a1" a 15 20 1 in
  let c = span "c" root 70 75 4 in
  let d = span "d" root 90 120 1 in
  let selfs = Spans.self_times s in
  expect "root self = 100 - union(10..60, 90..100) - 4 x 5" (selfs.(root) = 20);
  expect "a self = 30 - 5 (its child, not its sibling)" (selfs.(a) = 25);
  expect "b self = 30 (overlap with a is a's sibling's)" (selfs.(b) = 30);
  expect "leaf self = duration" (selfs.(a1) = 5 && selfs.(c) = 5 && selfs.(d) = 30);
  expect "sampled total self = weight x duration"
    (Spans.total_self s selfs "c" = 20);
  let sampler = Spans.sampler ~every:64 ~seed:42 in
  let calls = 100_000 and covered = ref 0 and sampled = ref 0 in
  for _ = 1 to calls do
    if Spans.tick sampler then begin
      incr sampled;
      covered := !covered + sampler.Spans.gap;
      sampler.Spans.gap <- sampler.Spans.countdown
    end
  done;
  expect "sample weights add up to the calls sampled"
    (!covered <= calls && calls - !covered < 128);
  expect "about one call in 64 is sampled"
    (abs ((calls / 64) - !sampled) < calls / 640);
  (* The serve mix and the simulated outputs are functions of the seed. *)
  let canon seed =
    let mix = Serve_load.mix ~seed in
    List.init 12 (fun _ ->
        let b = Serve_load.next mix in
        String.concat ";"
          (List.map Clusteer_serve.Request.canonical_string
             (Serve_load.requests mix b)))
  in
  expect "same seed, same serve mix" (canon 7 = canon 7);
  expect "another seed, another serve mix" (canon 7 <> canon 8);
  let items = Sim_load.sim_ilp () @ Sim_load.sim_mem () in
  let uops = 2_000 in
  let runs salt = List.map (fun i -> Sim_load.run_runner ~uops ~salt i) items in
  let figures stats =
    Sim_load.sim_figures
      ~groups:(Sim_load.item_groups (List.map2 (fun i s -> (i, 3, s)) items stats))
      stats
  in
  let first = runs 3 and again = runs 3 in
  expect "same seed, same sim digest"
    (Sim_load.digest first = Sim_load.digest again);
  expect "same seed, same sim figures" (figures first = figures again);
  expect "the seed reaches the trace (salt 0 vs 3)"
    (Sim_load.digest (runs 0) <> Sim_load.digest first);
  let composed traced =
    let ctx = Layers.create ~traced in
    Sim_load.digest
      (List.map (fun i -> Sim_load.run_layers ~uops ctx ~parent:(-1) ~salt:3 i) items)
  in
  expect "composition equals Runner" (composed false = Sim_load.digest first);
  expect "traced composition equals Runner" (composed true = Sim_load.digest first);
  if !failures > 0 then exit 1

(* ---- command line ---------------------------------------------------- *)

let usage =
  "main.exe --workload (sim-ilp|sim-mem|sweep-fig5|serve-mixed) --seed N \
   --seconds S --trace (0|1)\n\
   main.exe --self-test"

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 in
  let trace = ref 0 and self_test_only = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " workload to run");
      ("--seed", Arg.Set_int seed, " input seed (0 = canonical trace streams)");
      ("--seconds", Arg.Set_float seconds, " measurement window, s");
      ("--trace", Arg.Set_int trace, " 0 = end-to-end metrics, 1 = per-layer");
      ("--self-test", Arg.Set self_test_only, " run the self-tests");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !self_test_only then self_test ()
  else begin
    let seconds = Float.max 0.1 !seconds and salt = !seed in
    let workload = !workload and seed = !seed in
    Printf.printf "perfbench: workload %s seed %d seconds %g trace %d\n%!"
      workload seed seconds !trace;
    let metrics =
      match (workload, !trace) with
      | "sim-ilp", 0 -> sim_e2e ~seconds ~seed (Sim_load.sim_ilp ())
      | "sim-mem", 0 -> sim_e2e ~seconds ~seed (Sim_load.sim_mem ())
      | "sweep-fig5", 0 -> sweep_e2e ~seconds ~salt
      | "serve-mixed", 0 -> serve_e2e ~seconds ~seed
      | "sim-ilp", 1 ->
          sim_traced ~seconds ~workload ~seed (Sim_load.sim_ilp ())
      | "sim-mem", 1 ->
          sim_traced ~seconds ~workload ~seed (Sim_load.sim_mem ())
      | "sweep-fig5", 1 -> sweep_traced ~salt ~workload ~seed
      | "serve-mixed", 1 -> serve_traced ~seconds ~seed ~workload
      | _ ->
          prerr_endline usage;
          exit 2
    in
    show metrics;
    print_result metrics
  end
