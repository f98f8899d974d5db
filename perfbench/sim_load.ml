(* The simulation workloads: what each runs, through the program's own
   run path (Runner) and through the benchmark's layer composition
   (Layers), and the simulated figures derived from their results. *)

open Clusteer_uarch
open Clusteer_workloads
module Runner = Clusteer_harness.Runner
module Conf = Clusteer.Configuration

let op = Conf.Op
let vc2 = Conf.Vc { virtual_clusters = 2 }

(* Measured micro-ops per run of sim-ilp and sim-mem; the warmup is
   Runner.default_warmup of it (3,000). *)
let run_uops = 6_000

(* Trace streams per sim-ilp / sim-mem run: round r of a window replays
   salt [seed * salts_per_seed + r mod salts_per_seed], so a run's
   figures average over several dynamic streams and move less from one
   seed to the next. Seed 0 includes the canonical stream (salt 0). *)
let salts_per_seed = 4

let salts ~seed = List.init salts_per_seed (fun j -> (seed * salts_per_seed) + j)

(* Per-point budget of the Figure 5 sweep. *)
let sweep_uops = 1_000

(* An adversarial kernel has no PinPoints phase: it carries a one-point
   stand-in over its own profile, which names it and seeds its trace. *)
type source =
  | Spec of Pinpoints.point
  | Adv of Pinpoints.point * (unit -> Synth.t)

let point_of = function Spec p | Adv (p, _) -> p

(* One simulation run: a point on a machine under one configuration. *)
type item = {
  source : source;
  machine_key : string;
  machine : Config.t;
  config : Conf.t;
}

let label i =
  Printf.sprintf "%s/%s/%s" (point_of i.source).Pinpoints.benchmark i.machine_key
    (Conf.name i.config)

let first_point name = List.hd (Pinpoints.points (Spec2000.find name))
let machine_2c = ("2c", Config.default ~clusters:2)
let machine_4c = ("4c", Config.default ~clusters:4)

let machine_mesh =
  let m = Config.default ~clusters:4 in
  let m =
    { m with Config.topology = Clusteer_topo.Topology.mesh ~cols:2 ~rows:2 () }
  in
  Config.validate m;
  ("4c-mesh2x2", m)

let adv_storm () =
  Adversarial.synth (Adversarial.Copy_storm { chains = 8; stride = 3 })

let adv name synth =
  Adv
    ( {
        Pinpoints.benchmark = name;
        index = 0;
        weight = 1.0;
        profile = (synth ()).Synth.profile;
      },
      synth )

let items_of sources machines =
  List.concat_map
    (fun source ->
      List.concat_map
        (fun (machine_key, machine) ->
          List.map
            (fun config -> { source; machine_key; machine; config })
            [ op; vc2 ])
        machines)
    sources

let sim_ilp () =
  items_of
    [ Spec (first_point "gzip-1"); Spec (first_point "swim") ]
    [ machine_2c; machine_4c ]
  @ items_of [ adv "adv-storm" adv_storm ] [ machine_mesh ]

let sim_mem () = items_of [ Spec (first_point "mcf") ] [ machine_2c; machine_4c ]

(* The trace seed of an item at salt [salt] (0 = canonical stream). *)
let seed ~salt item = Runner.salted_trace_seed ~salt (point_of item.source)

let build = function
  | Spec p -> fun () -> Synth.build p.Pinpoints.profile
  | Adv (_, synth) -> synth

(* The program's run path: Runner.run_point for a PinPoints point,
   Runner.run_workload for an adversarial kernel. One domain. *)
let run_runner ?(uops = run_uops) ~salt item =
  let configs = [ item.config ] and machine = item.machine in
  let runs =
    match item.source with
    | Spec p ->
        (Runner.run_point ~trace_salt:salt ~machine ~configs ~uops p).Runner.runs
    | Adv (_, synth) ->
        Runner.run_workload ~seed:(seed ~salt item) ~machine ~configs ~uops
          (synth ())
  in
  snd (List.hd runs)

(* The same run through the benchmark's composition. *)
let run_layers ?(uops = run_uops) ctx ~parent ~salt item =
  Layers.run_point ctx ~parent ~machine_key:item.machine_key
    ~machine:item.machine ~configs:[ item.config ] ~uops
    ~seed:(seed ~salt item) (build item.source)
  |> List.hd |> snd

(* The setup of a sim workload: build, compile and create an engine for
   every item, from scratch. *)
let setup items =
  List.iter
    (fun item ->
      let w = build item.source () in
      let annot, policy =
        Conf.prepare item.config ~program:w.Synth.program ~likely:w.Synth.likely
          ~clusters:item.machine.Config.clusters
          ~params:
            {
              Conf.default_params with
              Conf.topology = Some item.machine.Config.topology;
            }
          ()
      in
      ignore
        (Engine.create ~config:item.machine ~annot ~policy
           ~prewarm:(Layers.prewarm w) ()))
    items

(* ---- the Figure 5 sweep ------------------------------------------- *)

let sweep_configs = Conf.table3 ~clusters:2
let sweep_machine = snd machine_2c

let sweep_domains () = max 1 (min (Domain.recommended_domain_count ()) 2)

let run_sweep ?(profiles = Spec2000.all) ~salt ~domains () =
  Runner.run_suite ~domains ~strategy:Clusteer_util.Parallel.Static
    ~trace_salt:salt ~machine:sweep_machine ~configs:sweep_configs
    ~uops:sweep_uops profiles

let sweep_points () =
  List.concat_map Pinpoints.points Spec2000.all

(* The sweep through the composition, on one domain. *)
let sweep_layers ctx ~parent ~salt =
  List.map
    (fun point ->
      let runs =
        Layers.run_point ctx ~parent ~machine_key:"2c" ~machine:sweep_machine
          ~configs:sweep_configs ~uops:sweep_uops
          ~seed:(Runner.salted_trace_seed ~salt point)
          (fun () -> Synth.build point.Pinpoints.profile)
      in
      { Runner.point; runs })
    (sweep_points ())

let sweep_setup () =
  let engines = Hashtbl.create 8 in
  List.iter
    (fun point ->
      let w = Synth.build point.Pinpoints.profile in
      List.iter
        (fun config ->
          let annot, policy =
            Conf.prepare config ~program:w.Synth.program ~likely:w.Synth.likely
              ~clusters:2 ()
          in
          let name = Conf.name config in
          if not (Hashtbl.mem engines name) then
            Hashtbl.replace engines name
              (Engine.create ~config:sweep_machine ~annot ~policy
                 ~prewarm:(Layers.prewarm w) ()))
        sweep_configs)
    (sweep_points ())

(* ---- simulated figures -------------------------------------------- *)

type sim = { ipc : float; copies_per_kuop : float; vc2_slowdown_pct : float }

(* [groups]: per (benchmark, machine), the point results holding both
   "op" and "vc2"; [runs]: every run's statistics. The slowdown is the
   phase-weighted VC(2) slowdown against OP per group, averaged over
   the groups. *)
let sim_figures ~groups runs =
  let n = float_of_int (List.length runs) in
  let committed = List.fold_left (fun a s -> a + s.Stats.committed) 0 runs
  and copies = List.fold_left (fun a s -> a + s.Stats.copies_generated) 0 runs in
  let slowdowns =
    List.map
      (fun results ->
        Runner.weighted_pair_metric results ~config_a:"vc2" ~config_b:"op"
          ~f:(fun a b -> Clusteer_harness.Metrics.slowdown_pct ~baseline:b a))
      groups
  in
  {
    ipc = List.fold_left (fun a s -> a +. Stats.ipc s) 0.0 runs /. n;
    copies_per_kuop = 1000.0 *. float_of_int copies /. float_of_int committed;
    vc2_slowdown_pct =
      List.fold_left ( +. ) 0.0 slowdowns
      /. float_of_int (List.length slowdowns);
  }

(* Group single-configuration results, given as (item, salt, stats),
   into one point result per (benchmark, machine, salt) holding op and
   vc2 side by side; the point results of a (benchmark, machine) form
   one group, so its slowdown is the mean over the salts. *)
let item_groups runs =
  let groups = Hashtbl.create 8 and order = ref [] in
  List.iter
    (fun (item, salt, s) ->
      let point = point_of item.source in
      let key = (point.Pinpoints.benchmark, item.machine_key) in
      let by_salt =
        match Hashtbl.find_opt groups key with
        | Some g -> g
        | None ->
            order := key :: !order;
            []
      in
      let run = (Conf.name item.config, s) in
      let result =
        match List.assoc_opt salt by_salt with
        | Some r -> { r with Runner.runs = r.Runner.runs @ [ run ] }
        | None -> { Runner.point; runs = [ run ] }
      in
      Hashtbl.replace groups key ((salt, result) :: List.remove_assoc salt by_salt))
    runs;
  List.rev_map (fun key -> List.rev_map snd (Hashtbl.find groups key)) !order

let sweep_groups (results : Runner.point_result list) =
  let by_bench = Hashtbl.create 64 and order = ref [] in
  List.iter
    (fun (r : Runner.point_result) ->
      let b = r.Runner.point.Pinpoints.benchmark in
      match Hashtbl.find_opt by_bench b with
      | None ->
          order := b :: !order;
          Hashtbl.replace by_bench b [ r ]
      | Some rs -> Hashtbl.replace by_bench b (r :: rs))
    results;
  List.rev_map (fun b -> List.rev (Hashtbl.find by_bench b)) !order

let sweep_stats results =
  List.concat_map (fun (r : Runner.point_result) -> List.map snd r.Runner.runs) results

(* A digest of every statistic, in order: two runs agree on all
   simulated outputs iff their digests agree. *)
let digest stats =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.map
             (fun s -> Clusteer_obs.Json.to_string (Stats.to_json s))
             stats)))
