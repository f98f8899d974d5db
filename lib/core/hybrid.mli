(** One-stop API for the paper's contribution: the software-hardware
    hybrid steering mechanism based on virtual clusters — its software
    half ({!compile}) and its hardware half ({!policy}).

    To simulate the hybrid end to end, run the [Vc] configuration
    through the harness, which compiles, steers and replays the
    workload's stream in one call:

    {[
      let runs =
        Clusteer_harness.Runner.run_workload
          ~machine:Clusteer_uarch.Config.default_2c
          ~configs:[ Configuration.Vc { virtual_clusters = 2 } ]
          ~uops:50_000 workload
      in
      Fmt.pr "IPC %.2f@." (Clusteer_uarch.Stats.ipc (List.assoc "vc2" runs))
    ]} *)

open Clusteer_isa

val compile :
  program:Program.t ->
  likely:(int -> int option) ->
  virtual_clusters:int ->
  ?region_uops:int ->
  unit ->
  Annot.t
(** The software half (Fig. 2 + Fig. 3): partition every region's DDG
    into virtual clusters and mark chain leaders. *)

val policy :
  annot:Annot.t -> clusters:int -> Clusteer_uarch.Policy.t
(** The hardware half (Fig. 4): the VC→physical mapping table driven
    by workload counters at chain leaders. *)
