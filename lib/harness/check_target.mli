(** The static-check target of one workload × configuration: what
    [csteer check] verifies and what the service's admission check
    gates on. *)

open Clusteer_uarch
open Clusteer_workloads

val annotation :
  machine:Config.t ->
  params:Clusteer.Configuration.params ->
  annot:Clusteer_isa.Annot.t option ->
  Synth.t ->
  Clusteer.Configuration.t ->
  Clusteer_isa.Annot.t
(** [annot] (an [--annot] file) when given, else the annotation the
    configuration compiles for the workload. *)

val make :
  machine:Config.t ->
  params:Clusteer.Configuration.params ->
  annot:Clusteer_isa.Annot.t option ->
  events:Clusteer_analysis.Dyn_check.event list option ->
  Synth.t ->
  Clusteer.Configuration.t ->
  Clusteer_analysis.Checker.target
(** The target on {!annotation}. The compiler's
    partition summary is [claimed] when the annotation has virtual
    clusters, the criticality hints are [critical] under [crit], and
    [events] feed the DYN pass. *)
