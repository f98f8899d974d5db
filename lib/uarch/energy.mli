(** First-order energy accounting.

    Clustered microarchitectures exist for "power, thermal and
    complexity" reasons (paper §1): smaller per-cluster structures are
    cheaper per access, but inter-cluster copies add events. This
    module turns a run's event counts into an energy estimate using
    per-event costs so those trade-offs can be compared across steering
    schemes. Costs are in arbitrary normalized units (an ALU operation
    = 1.0); the defaults follow the usual CACTI-style intuition that
    access cost grows with structure size, halved structures cost
    ~60-70% per access, and DRAM accesses dominate. *)

type costs = {
  dispatch : float;  (** rename + steer, per micro-op *)
  issue : float;  (** wakeup-select + register read, per issued micro-op *)
  execute : float;  (** per micro-op (ALU-equivalent) *)
  copy : float;  (** copy micro-op incl. link traversal *)
  l1_access : float;
  l2_access : float;
  memory_access : float;
  commit : float;
  static_per_cycle : float;
      (** leakage + clock for the whole backend, per cycle *)
}

val default_costs : clusters:int -> costs
(** Per-access costs shrink as the cluster count grows (smaller issue
    queues and register files); static power is independent of the
    cluster count (same total resources). *)

type breakdown = {
  dynamic : float;
  static_ : float;
  copies : float;  (** the part of [dynamic] caused by copy micro-ops *)
  total : float;
  per_uop : float;  (** total / committed micro-ops *)
}

val estimate : ?costs:costs -> clusters:int -> Stats.t -> breakdown

val to_json : breakdown -> Clusteer_obs.Json.t
(** The ["energy"] member of every result document. *)
