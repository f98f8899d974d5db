(* The interconnect topology subsystem: metric axioms of the distance
   function, JSON round trips, the link-occupancy fabric, the
   adversarial scenario generator's static validity, parallel-harness
   determinism on non-uniform fabrics, and the pinned pre-topology
   goldens (default p2p must stay bit-identical to the seed). *)

module Topology = Clusteer_topo.Topology
module Fabric = Clusteer_topo.Fabric
module Adversarial = Clusteer_workloads.Adversarial
module Synth = Clusteer_workloads.Synth
module Spec2000 = Clusteer_workloads.Spec2000
module Profile = Clusteer_workloads.Profile
module Runner = Clusteer_harness.Runner
module Config = Clusteer_uarch.Config
module Stats = Clusteer_uarch.Stats
module Checker = Clusteer_analysis.Checker
module Diag = Clusteer_isa.Diag

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- generators ---------------------------------------------------- *)

let gen_topology =
  QCheck.Gen.(
    int_range 0 4 >>= fun kind ->
    match kind with
    | 0 -> map (fun c -> Topology.p2p ~clusters:(1 + c) ()) (int_bound 11)
    | 1 -> map (fun c -> Topology.bus ~clusters:(1 + c) ()) (int_bound 11)
    | 2 ->
        map
          (fun (c, l) -> Topology.ring ~link_latency:(1 + l) ~clusters:(1 + c) ())
          (pair (int_bound 11) (int_bound 2))
    | 3 ->
        map
          (fun (cols, rows) -> Topology.mesh ~cols:(1 + cols) ~rows:(1 + rows) ())
          (pair (int_bound 3) (int_bound 3))
    | _ ->
        map
          (fun (g, s, ul) ->
            Topology.hier ~uplink_latency:(1 + ul) ~groups:(1 + g)
              ~group_size:(1 + s) ())
          (triple (int_bound 3) (int_bound 3) (int_bound 5)))

let arb_topology =
  QCheck.make ~print:Topology.describe gen_topology

(* ---- distance is a metric ------------------------------------------ *)

let prop_distance_metric =
  QCheck.Test.make ~name:"distance is a metric" ~count:200 arb_topology
    (fun t ->
      let n = t.Topology.clusters in
      let d = Topology.distance t in
      let ok = ref true in
      for i = 0 to n - 1 do
        if d i i <> 0 then ok := false;
        for j = 0 to n - 1 do
          if i <> j && d i j <= 0 then ok := false;
          if d i j <> d j i then ok := false;
          if Topology.latency t i j <> Topology.latency t j i then ok := false;
          for k = 0 to n - 1 do
            if d i k > d i j + d j k then ok := false
          done
        done
      done;
      !ok)

let prop_derived_queries_agree =
  QCheck.Test.make ~name:"matrix/diameter/mean agree with distance" ~count:100
    arb_topology (fun t ->
      let n = t.Topology.clusters in
      let m = Topology.distance_matrix t in
      let max_d = ref 0 and sum = ref 0 and pairs = ref 0 in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if m.(i).(j) <> Topology.distance t i j then
            QCheck.Test.fail_report "matrix disagrees with distance";
          if i <> j then begin
            max_d := max !max_d m.(i).(j);
            sum := !sum + m.(i).(j);
            incr pairs
          end
        done
      done;
      Topology.diameter t = !max_d
      && Float.abs
           (Topology.mean_distance t
           -. (if !pairs = 0 then 0.0
               else float_of_int !sum /. float_of_int !pairs))
         < 1e-9)

let prop_json_roundtrip =
  QCheck.Test.make ~name:"to_json/of_json round trip" ~count:200 arb_topology
    (fun t ->
      match Topology.of_json (Topology.to_json t) with
      | Ok t' -> Topology.equal t t'
      | Error m -> QCheck.Test.fail_report m)

let prop_name_roundtrip =
  QCheck.Test.make ~name:"of_name inverts name (shape and size)" ~count:200
    arb_topology (fun t ->
      match
        Topology.of_name ~clusters:t.Topology.clusters (Topology.name t)
      with
      | Ok t' ->
          Topology.name t' = Topology.name t
          && t'.Topology.clusters = t.Topology.clusters
          && t'.Topology.kind = t.Topology.kind
      | Error m -> QCheck.Test.fail_report m)

(* ---- fabric -------------------------------------------------------- *)

let test_fabric_p2p_matches_seed_link_model () =
  (* p2p: one slot per directed pair, latency 1 — the seed's
     link_free matrix exactly. *)
  let f = Fabric.create (Topology.p2p ~clusters:2 ()) in
  check_int "first transfer" 1 (Fabric.try_transfer f ~now:0 ~from:0 ~to_:1);
  check_int "same-cycle same link refused" (-1)
    (Fabric.try_transfer f ~now:0 ~from:0 ~to_:1);
  check_int "reverse direction is a distinct link" 1
    (Fabric.try_transfer f ~now:0 ~from:1 ~to_:0);
  check_int "free again next cycle" 1
    (Fabric.try_transfer f ~now:1 ~from:0 ~to_:1);
  Fabric.reset f;
  check_int "reset frees everything" 1
    (Fabric.try_transfer f ~now:0 ~from:0 ~to_:1)

let test_fabric_bus_serializes () =
  let f = Fabric.create (Topology.bus ~clusters:4 ()) in
  check_int "first transfer" 1 (Fabric.try_transfer f ~now:0 ~from:0 ~to_:1);
  check_int "any other pair blocked the same cycle" (-1)
    (Fabric.try_transfer f ~now:0 ~from:2 ~to_:3)

let test_fabric_hier_uplink_bandwidth () =
  let topo =
    Topology.hier ~uplink_latency:4 ~uplink_bandwidth:1 ~groups:2 ~group_size:2
      ()
  in
  let f = Fabric.create topo in
  let lat = Fabric.try_transfer f ~now:0 ~from:0 ~to_:2 in
  check_int "cross-group latency = 2*link + uplink" 6 lat;
  check_int "second cross-group transfer blocked (1 uplink channel)" (-1)
    (Fabric.try_transfer f ~now:0 ~from:1 ~to_:3);
  check_int "in-group transfer still free" 1
    (Fabric.try_transfer f ~now:0 ~from:0 ~to_:1)

let prop_fabric_latency_consistent =
  (* Whatever the shape, a granted transfer on an idle fabric costs
     exactly Topology.latency. *)
  QCheck.Test.make ~name:"idle-fabric transfer cost = Topology.latency"
    ~count:100 arb_topology (fun t ->
      let n = t.Topology.clusters in
      QCheck.assume (n > 1);
      let f = Fabric.create t in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if i <> j then begin
            Fabric.reset f;
            if Fabric.try_transfer f ~now:0 ~from:i ~to_:j
               <> Topology.latency t i j
            then ok := false
          end
        done
      done;
      !ok)

(* ---- adversarial generator ----------------------------------------- *)

let prop_adversarial_shapes_valid =
  QCheck.Test.make ~name:"of_seed always draws a valid shape" ~count:500
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      match Adversarial.validate (Adversarial.of_seed seed) with
      | Ok () -> true
      | Error m -> QCheck.Test.fail_report m)

let prop_adversarial_pass_checker =
  (* Every generated program passes the static verifier (no errors, no
     warnings) under both a software and the hybrid configuration. *)
  QCheck.Test.make ~name:"generated scenarios pass the checker" ~count:20
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let shape = Adversarial.of_seed seed in
      let w = Adversarial.synth shape in
      let machine = Config.default ~clusters:4 in
      List.for_all
        (fun config ->
          let annot, _ =
            Clusteer.Configuration.prepare config ~program:w.Synth.program
              ~likely:w.Synth.likely ~clusters:4 ()
          in
          let target =
            Checker.target ~program:w.Synth.program ~likely:w.Synth.likely
              ~annot ~config:machine ()
          in
          let diags = Checker.run target in
          Diag.count Diag.Error diags = 0 && Diag.count Diag.Warning diags = 0)
        [
          Clusteer.Configuration.Ob;
          Clusteer.Configuration.Vc { virtual_clusters = 2 };
        ])

let test_adversarial_deterministic () =
  (* Same shape, same program: the synthesized traces replay
     identically, so two runs produce identical statistics. *)
  let machine =
    { (Config.default ~clusters:4) with
      Config.topology = Topology.mesh ~cols:2 ~rows:2 ();
    }
  in
  let configs = [ Clusteer.Configuration.Vc { virtual_clusters = 2 } ] in
  let run () =
    List.map
      (fun (_, w) -> Runner.run_workload ~machine ~configs ~uops:2_000 w)
      Adversarial.all
  in
  check_bool "two runs bit-identical" true (run () = run ())

(* ---- parallel determinism on non-uniform fabrics ------------------- *)

let test_domains_identical_with_topology () =
  let profiles = [ Spec2000.find "mcf"; Spec2000.find "gzip-1" ] in
  let configs =
    [
      Clusteer.Configuration.Op;
      Clusteer.Configuration.Vc { virtual_clusters = 2 };
    ]
  in
  let sweep machine domains =
    List.map
      (fun (r : Runner.point_result) -> r.Runner.runs)
      (Runner.run_suite ~domains ~machine ~configs ~uops:2_000 profiles)
  in
  List.iter
    (fun topo ->
      let machine =
        {
          (Config.default ~clusters:topo.Topology.clusters) with
          Config.topology = topo;
        }
      in
      check_bool
        (Printf.sprintf "%s: domains 1 = domains 4" (Topology.name topo))
        true
        (sweep machine 1 = sweep machine 4))
    [
      Topology.ring ~clusters:4 ();
      Topology.mesh ~cols:2 ~rows:2 ();
      Topology.hier ~groups:2 ~group_size:2 ();
    ]

(* ---- pinned seed goldens ------------------------------------------- *)

(* The per-workload stats documents captured from the pre-topology
   seed build: `csteer simulate --json` under the default p2p machine
   must stay byte-identical. Any diff here means the topology layer
   leaked into the baseline. *)

let exe =
  let candidates =
    [ "../bin/csteer.exe"; "_build/default/bin/csteer.exe"; "bin/csteer.exe" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> "../bin/csteer.exe"

let golden_dir =
  let candidates = [ "goldens"; "test/goldens"; "../test/goldens" ] in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> "goldens"

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let run_stdout args =
  let tmp = Filename.temp_file "csteer_golden" ".json" in
  let cmd =
    Printf.sprintf "%s %s > %s 2>/dev/null" (Filename.quote exe) args
      (Filename.quote tmp)
  in
  let code = Sys.command cmd in
  let out = read_file tmp in
  Sys.remove tmp;
  (code, out)

let seed_golden_cases =
  [
    ("seed_mcf_vc2_4c.json", "simulate -w mcf -p vc2 -c 4 -n 3000 --json");
    ("seed_gzip1_op_4c.json", "simulate -w gzip-1 -p op -c 4 -n 3000 --json");
    ("seed_vpr1_dep_2c.json", "simulate -w vpr-1 -p dep -c 2 -n 3000 --json");
    ( "seed_mcf_oppar_4c.json",
      "simulate -w mcf -p op-parallel -c 4 -n 3000 --json" );
    ( "seed_equake_vc4_4c.json",
      "simulate -w equake -p vc4 -c 4 -n 3000 --json" );
  ]

let test_seed_goldens () =
  List.iter
    (fun (golden, args) ->
      let code, out = run_stdout args in
      check_int (golden ^ " exit") 0 code;
      let expected = read_file (Filename.concat golden_dir golden) in
      check_bool (golden ^ " byte-identical to seed") true (out = expected))
    seed_golden_cases

let test_tune_study_golden () =
  (* A whole vc-space study (search trajectory, AB table, JSON
     artifact) pinned against the pre-topology seed: proves the
     per-candidate machine refactor left the vc space bit-identical. *)
  let out_dir = Filename.temp_file "csteer_tune" "" in
  Sys.remove out_dir;
  let code, out =
    run_stdout
      (Printf.sprintf
         "tune run --space vc --search random --seed 5 --max-evals 3 -w \
          mcf,gzip-1 -c 4 -n 2000 --out %s --json"
         (Filename.quote out_dir))
  in
  check_int "tune exit" 0 code;
  let expected =
    read_file (Filename.concat golden_dir "seed_tune_vc_study.json")
  in
  check_bool "vc study byte-identical to seed" true (out = expected)

(* The engine goldens (test/goldens/engine_*.json, written by
   gen_engine_goldens.sh): mcf, gzip-1 and swim under op, vc2 and
   thermal on p2p, ring and mesh4x2, plus two runs in which a copy
   waits for a link that frees without an event (mcf/vc2 on an
   8-cluster ring, adv-flip/mod3 on mesh4x2), all with the default
   warmup. Each file's command line is re-run plain and observed
   (interval telemetry, Chrome trace); both stats documents and the
   trace's digest must reproduce byte for byte. *)
let test_engine_goldens () =
  let goldens =
    Sys.readdir golden_dir |> Array.to_list
    |> List.filter (fun f ->
           String.starts_with ~prefix:"engine_" f
           && Filename.check_suffix f ".json")
    |> List.sort compare
  in
  check_int "golden count" 29 (List.length goldens);
  List.iter
    (fun golden ->
      let expected = read_file (Filename.concat golden_dir golden) in
      let args =
        match
          Option.bind
            (Result.to_option (Clusteer_obs.Json.of_string expected))
            (Clusteer_obs.Json.member "args")
        with
        | Some (Clusteer_obs.Json.Str a) -> a
        | _ -> Alcotest.failf "%s: no args" golden
      in
      let code, plain = run_stdout (args ^ " --json") in
      check_int (golden ^ " plain exit") 0 code;
      let trace = Filename.temp_file "csteer_engine" ".json" in
      let code, observed =
        run_stdout
          (Printf.sprintf
             "%s --json --stats-interval 300 --trace-out %s --trace-format json"
             args (Filename.quote trace))
      in
      check_int (golden ^ " observed exit") 0 code;
      let md5 = Digest.to_hex (Digest.file trace) in
      Sys.remove trace;
      let got =
        Printf.sprintf
          "{\"args\":\"%s\",\"trace_md5\":\"%s\",\"plain\":%s,\"observed\":%s}\n"
          args md5 (String.trim plain) (String.trim observed)
      in
      check_bool (golden ^ " byte-identical") true (got = expected))
    goldens

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "clusteer_topo"
    [
      ( "metric",
        [
          qc prop_distance_metric;
          qc prop_derived_queries_agree;
          qc prop_json_roundtrip;
          qc prop_name_roundtrip;
        ] );
      ( "fabric",
        [
          Alcotest.test_case "p2p matches the seed link model" `Quick
            test_fabric_p2p_matches_seed_link_model;
          Alcotest.test_case "bus serializes" `Quick test_fabric_bus_serializes;
          Alcotest.test_case "hier uplink bandwidth" `Quick
            test_fabric_hier_uplink_bandwidth;
          qc prop_fabric_latency_consistent;
        ] );
      ( "adversarial",
        [
          qc prop_adversarial_shapes_valid;
          qc prop_adversarial_pass_checker;
          Alcotest.test_case "runs deterministically" `Slow
            test_adversarial_deterministic;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "domains 1 = 4 on non-uniform fabrics" `Slow
            test_domains_identical_with_topology;
        ] );
      ( "goldens",
        [
          Alcotest.test_case "seed stats documents" `Slow test_seed_goldens;
          Alcotest.test_case "seed vc tune study" `Slow test_tune_study_golden;
          Alcotest.test_case "engine runs" `Slow test_engine_goldens;
        ] );
    ]
