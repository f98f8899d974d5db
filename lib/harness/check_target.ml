open Clusteer_uarch
open Clusteer_workloads

let annotation ~machine ~params ~annot (w : Synth.t) config =
  match annot with
  | Some a -> a
  | None ->
      fst
        (Clusteer.Configuration.prepare config ~program:w.Synth.program
           ~likely:w.Synth.likely ~clusters:machine.Config.clusters ~params ())

let make ~machine ~params ~annot ~events (w : Synth.t) config =
  let program = w.Synth.program and likely = w.Synth.likely in
  let region_uops = params.Clusteer.Configuration.region_uops in
  let annot = annotation ~machine ~params ~annot w config in
  let claimed =
    if annot.Clusteer_isa.Annot.virtual_clusters > 0 then
      Some
        (Clusteer_compiler.Diagnostics.of_annot ~program ~likely ~annot
           ~region_uops ())
    else None
  in
  let critical =
    match config with
    | Clusteer.Configuration.Crit ->
        Some
          (Clusteer_compiler.Crit_hints.compute ~program ~likely ~region_uops
             ())
    | _ -> None
  in
  let label =
    Printf.sprintf "%s/%s" w.Synth.profile.Profile.name
      (Clusteer.Configuration.name config)
  in
  Clusteer_analysis.Checker.target ~label ~region_uops ?claimed ?critical
    ?events ~program ~likely ~annot ~config:machine ()
