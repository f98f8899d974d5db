(** Machine configuration (paper Table 2).

    The baseline is a clustered x86-like out-of-order core with a
    monolithic front-end and [clusters] back-end clusters, each with
    its own INT/FP/COPY issue queues and functional units, joined by
    dedicated 1-cycle point-to-point links. The LSQ and the data cache
    hierarchy are unified and shared. *)

type cache = {
  size_bytes : int;
  ways : int;
  line_bytes : int;
  hit_latency : int;
}

type t = {
  clusters : int;
  (* Front-end *)
  fetch_width : int;  (** 6 micro-ops/cycle *)
  fetch_to_dispatch : int;  (** 5-cycle fetch-to-dispatch depth *)
  tc_size_uops : int;  (** 24K micro-op trace cache *)
  tc_line_uops : int;  (** 6 micro-ops per trace line *)
  tc_ways : int;
  tc_miss_penalty : int;  (** cycles to rebuild a missing trace line *)
  dispatch_width : int;  (** decode/rename/steer: 6 micro-ops/cycle total *)
  dispatch_per_cluster : int;
      (** per-cluster steer-port bandwidth. Default 6 (non-binding):
          modelling Table 2's "3+3" as a hard 3/cluster or 3-INT+3-FP
          cap over-serializes this reproduction's front-end and
          inverts the paper's OP-vs-software ordering, so the notation
          is read as a total width of 6; the cap stays configurable
          for sensitivity studies. *)
  commit_width : int;  (** 6 micro-ops/cycle total *)
  commit_class_width : int;
      (** per-class (INT / FP) commit bandwidth; default 6
          (non-binding) for the same reason as [dispatch_per_cluster] *)
  rob_size : int;  (** 256+256 entries *)
  (* Per-cluster back-end *)
  int_iq_size : int;  (** 48 entries *)
  int_issue_width : int;  (** 2/cycle *)
  fp_iq_size : int;  (** 48 entries *)
  fp_issue_width : int;  (** 2/cycle *)
  copy_q_size : int;  (** 24 entries *)
  copy_issue_width : int;  (** 1/cycle *)
  int_regfile : int;  (** 256-entry INT register file per cluster *)
  fp_regfile : int;  (** 256-entry FP register file per cluster *)
  (* Interconnect *)
  topology : Clusteer_topo.Topology.t;
      (** inter-cluster fabric shape and per-hop/uplink latencies; the
          default is the paper's 1-cycle point-to-point link over
          [clusters] clusters. [topology.clusters] must equal
          [clusters] ({!validate} enforces it); build alternatives
          with {!Clusteer_topo.Topology.of_name} or its
          constructors. *)
  (* Memory *)
  lsq_size : int;  (** 256 entries *)
  mshrs : int;
      (** maximum outstanding L1 misses (memory-level parallelism);
          paper-unspecified, default 8 *)
  l1d : cache;  (** 32KB 4-way, 3-cycle hit *)
  l1_read_ports : int;  (** 2 *)
  l1_write_ports : int;  (** 1 *)
  l2 : cache;  (** 2MB 16-way, 13-cycle hit *)
  memory_latency : int;  (** >= 500 cycles *)
  prefetch_next_line : bool;
      (** next-line prefetch into L1/L2 on every demand L1 miss
          (paper-unspecified; default off so the baseline matches the
          paper's memory system; the bench quantifies it) *)
  (* Branch prediction (unspecified in the paper; see DESIGN.md) *)
  bpred_bits : int;  (** gshare history/table bits *)
  redirect_penalty : int;  (** extra cycles after a mispredict resolves *)
  steer_serial_stages : int;
      (** extra decode pipeline stages charged to steering policies
          that use the serialized dependence-check + vote hardware
          (§2.1: sequential steering "may not meet the cycle time").
          Default 0 — the paper's evaluation deliberately lets OP keep
          a free serialized steer, making it an upper bound; the bench
          harness sweeps this knob to quantify the hybrid's complexity
          advantage. *)
}

val default : clusters:int -> t
(** Table 2 parameters for a machine with the given cluster count. *)

val default_2c : t
val default_4c : t

val max_clusters : int
(** The widest machine the model supports: 16 clusters. *)

val validate : t -> unit
(** Sanity-check all parameters; raises [Invalid_argument]. *)

val describe : t -> (string * string) list
(** Human-readable parameter listing, used to regenerate Table 2. *)
