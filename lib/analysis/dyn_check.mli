(** Dynamic steering-trace invariants for the hybrid VC policy.

    The hardware contract (paper §4.2, Fig. 3) is that the VC→cluster
    table is consulted for every annotated micro-op but may be
    {e remapped} only at chain leaders. Replaying a recorded decision
    stream against an oracle table — initialised exactly like
    {!Clusteer_steer.Vc_map.make}, updated only at leaders — verifies
    that a policy implementation honours the contract.

    This module also hosts the {e drift checker}: given a
    {!Cost_model.t} and the counters of a finished run, verify that the
    dynamic copy and remap behavior landed inside the static bounds the
    compiler promised.

    Codes:
    - [DYN001] — a recorded event names a static uop id out of range.
    - [DYN002] — a non-leader micro-op was steered away from its VC's
      current table entry (an illegal mid-chain remap).
    - [CM100] (info) — prediction-vs-run summary.
    - [CM101] — dynamic copies exceed {!Cost_model.copy_bound}.
    - [CM102] — more remaps than chain-leader decisions (a mid-chain
      remap slipped past the table contract).
    - [CM103] — a remap moved a VC farther than the topology diameter. *)

open Clusteer_isa
module Uarch = Clusteer_uarch

val codes : string list
val drift_codes : string list

type event = {
  uop : int;  (** static micro-op id *)
  cluster : int;  (** cluster the policy dispatched it to *)
}

val recorder : unit -> Clusteer_obs.Sink.t * (unit -> event list)
(** An observability sink that records the engine's [Steer] events —
    one per [Dispatch_to] decision, so [Stall] decisions (which the
    engine retries) are not events. Install it in the replayed engine
    (the harness runner's [obs] argument); the second
    component returns the events seen so far, oldest first. *)

val check : annot:Annot.t -> clusters:int -> event list -> Diag.t list
(** Replay a decision stream against the oracle table. Events for
    unannotated micro-ops ([vc = -1]) are free choices and always
    legal. *)

(** {1 Prediction-vs-run drift} *)

type run = {
  dispatched : int;  (** program uops dispatched (copies excluded) *)
  copies_generated : int;
  remaps : int;  (** [vc.remaps] counter *)
  leader_decisions : int;  (** [vc.leader_decisions] counter *)
  remap_hops_max : int;  (** largest [steer.remap.hops] observation *)
}

val observe_run :
  registry:Clusteer_obs.Counters.registry -> Uarch.Stats.t -> run
(** Snapshot the quantities the drift check needs from a finished run:
    engine stats plus the steering policy's counters in [registry].
    Counters a policy never registered read as zero, so the same
    snapshot works for static and hardware-only schemes. *)

val check_drift : model:Cost_model.t -> run -> Diag.t list
(** Compare a run against the static model: always one CM100 info,
    plus CM101/CM102/CM103 errors on any bound violation. *)
