module Topology = Clusteer_topo.Topology

type cache = {
  size_bytes : int;
  ways : int;
  line_bytes : int;
  hit_latency : int;
}

type t = {
  clusters : int;
  fetch_width : int;
  fetch_to_dispatch : int;
  tc_size_uops : int;
  tc_line_uops : int;
  tc_ways : int;
  tc_miss_penalty : int;
  dispatch_width : int;
  dispatch_per_cluster : int;
  commit_width : int;
  commit_class_width : int;
  rob_size : int;
  int_iq_size : int;
  int_issue_width : int;
  fp_iq_size : int;
  fp_issue_width : int;
  copy_q_size : int;
  copy_issue_width : int;
  int_regfile : int;
  fp_regfile : int;
  topology : Topology.t;
  lsq_size : int;
  mshrs : int;
  l1d : cache;
  l1_read_ports : int;
  l1_write_ports : int;
  l2 : cache;
  memory_latency : int;
  prefetch_next_line : bool;
  bpred_bits : int;
  redirect_penalty : int;
  steer_serial_stages : int;
}

let default ~clusters =
  {
    clusters;
    fetch_width = 6;
    fetch_to_dispatch = 5;
    tc_size_uops = 24 * 1024;
    tc_line_uops = 6;
    tc_ways = 4;
    tc_miss_penalty = 8;
    dispatch_width = 6;
    dispatch_per_cluster = 6;
    commit_width = 6;
    commit_class_width = 6;
    rob_size = 512;
    int_iq_size = 48;
    int_issue_width = 2;
    fp_iq_size = 48;
    fp_issue_width = 2;
    copy_q_size = 24;
    copy_issue_width = 1;
    int_regfile = 256;
    fp_regfile = 256;
    topology = Topology.p2p ~link_latency:1 ~clusters ();
    lsq_size = 256;
    mshrs = 8;
    l1d = { size_bytes = 32 * 1024; ways = 4; line_bytes = 64; hit_latency = 3 };
    l1_read_ports = 2;
    l1_write_ports = 1;
    l2 =
      {
        size_bytes = 2 * 1024 * 1024;
        ways = 16;
        line_bytes = 64;
        hit_latency = 13;
      };
    memory_latency = 500;
    prefetch_next_line = false;
    bpred_bits = 12;
    redirect_penalty = 1;
    steer_serial_stages = 0;
  }

let default_2c = default ~clusters:2
let default_4c = default ~clusters:4

let max_clusters = 16

let validate t =
  let pos name v =
    if v <= 0 then invalid_arg (Printf.sprintf "Config: %s must be positive" name)
  in
  pos "clusters" t.clusters;
  pos "fetch_width" t.fetch_width;
  pos "fetch_to_dispatch" t.fetch_to_dispatch;
  pos "tc_size_uops" t.tc_size_uops;
  pos "tc_line_uops" t.tc_line_uops;
  pos "tc_ways" t.tc_ways;
  pos "tc_miss_penalty" t.tc_miss_penalty;
  pos "dispatch_width" t.dispatch_width;
  pos "dispatch_per_cluster" t.dispatch_per_cluster;
  pos "commit_width" t.commit_width;
  pos "commit_class_width" t.commit_class_width;
  pos "rob_size" t.rob_size;
  pos "int_iq_size" t.int_iq_size;
  pos "int_issue_width" t.int_issue_width;
  pos "fp_iq_size" t.fp_iq_size;
  pos "fp_issue_width" t.fp_issue_width;
  pos "copy_q_size" t.copy_q_size;
  pos "copy_issue_width" t.copy_issue_width;
  pos "int_regfile" t.int_regfile;
  pos "fp_regfile" t.fp_regfile;
  (match Topology.validate t.topology with
  | Ok () -> ()
  | Error m -> invalid_arg ("Config: " ^ m));
  if t.topology.Topology.clusters <> t.clusters then
    invalid_arg
      (Printf.sprintf "Config: topology %s spans %d clusters, machine has %d"
         (Topology.name t.topology) t.topology.Topology.clusters t.clusters);
  pos "lsq_size" t.lsq_size;
  pos "mshrs" t.mshrs;
  pos "memory_latency" t.memory_latency;
  pos "bpred_bits" t.bpred_bits;
  if t.steer_serial_stages < 0 then
    invalid_arg "Config: steer_serial_stages must be non-negative";
  let cache name (c : cache) =
    pos (name ^ ".size") c.size_bytes;
    pos (name ^ ".ways") c.ways;
    pos (name ^ ".line") c.line_bytes;
    pos (name ^ ".hit") c.hit_latency;
    if c.size_bytes mod (c.ways * c.line_bytes) <> 0 then
      invalid_arg (Printf.sprintf "Config: %s size not divisible by way size" name)
  in
  cache "l1d" t.l1d;
  cache "l2" t.l2;
  if t.clusters > max_clusters then
    invalid_arg (Printf.sprintf "Config: at most %d clusters" max_clusters)

let describe t =
  let kb n = Printf.sprintf "%dKB" (n / 1024) in
  [
    ("Clusters", string_of_int t.clusters);
    ( "Fetch",
      Printf.sprintf
        "%dK micro-op trace cache, %d micro-ops/cycle, %d cycle \
         fetch-to-dispatch"
        (t.tc_size_uops / 1024) t.fetch_width t.fetch_to_dispatch );
    ( "Decode, rename and steer",
      Printf.sprintf "%d micro-ops/cycle (%d per cluster), 1 cycle latency"
        t.dispatch_width t.dispatch_per_cluster );
    ( "Reorder buffer",
      Printf.sprintf "%d entries, commit %d+%d micro-ops/cycle" t.rob_size
        t.commit_class_width t.commit_class_width );
    ( "Register files (per cluster)",
      Printf.sprintf "%d-entry INT, %d-entry FP" t.int_regfile t.fp_regfile );
    ( "Issue queues (per cluster)",
      Printf.sprintf
        "%d-entry INT %d/cycle, %d-entry FP %d/cycle, %d-entry COPY %d/cycle"
        t.int_iq_size t.int_issue_width t.fp_iq_size t.fp_issue_width
        t.copy_q_size t.copy_issue_width );
    ("Inter-cluster communication", Topology.describe t.topology);
    ( "L1 data cache",
      Printf.sprintf "%s, %d-way, %d cycle hit, %dR/%dW ports, %d-entry LSQ"
        (kb t.l1d.size_bytes) t.l1d.ways t.l1d.hit_latency t.l1_read_ports
        t.l1_write_ports t.lsq_size );
    ( "L2 unified cache",
      Printf.sprintf "%s, %d-way, %d cycle hit, %d cycle miss"
        (kb t.l2.size_bytes) t.l2.ways t.l2.hit_latency t.memory_latency );
    ("Branch predictor", Printf.sprintf "gshare, %d bits" t.bpred_bits);
  ]
