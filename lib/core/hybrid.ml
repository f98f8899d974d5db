module Compiler = Clusteer_compiler
module Steer = Clusteer_steer

let compile ~program ~likely ~virtual_clusters ?(region_uops = 512) () =
  Compiler.Vc_partition.compile ~program ~likely ~virtual_clusters ~region_uops
    ()

let policy ~annot ~clusters = Steer.Vc_map.make ~annot ~clusters ()
