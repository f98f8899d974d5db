let ensure_dir dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  if not (Sys.is_directory dir) then
    invalid_arg (Printf.sprintf "Report: %s is not a directory" dir)

let write_slowdown_figure ~dir ~name (fig : Experiments.slowdown_figure) =
  ensure_dir dir;
  let csv_path = Filename.concat dir (name ^ ".csv") in
  Experiments.export_slowdowns ~path:csv_path fig;
  let configs =
    match fig.Experiments.rows with
    | row :: _ -> List.map fst row.Experiments.slowdowns
    | [] -> []
  in
  let gp_path = Filename.concat dir (name ^ ".gp") in
  let oc = open_out gp_path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc
        "# Regenerates the %s bar chart from %s.csv\n\
         set terminal pngcairo size 1400,500\n\
         set output '%s.png'\n\
         set datafile separator ','\n\
         set style data histograms\n\
         set style histogram clustered gap 1\n\
         set style fill solid 0.8 border -1\n\
         set ylabel 'slowdown vs OP (%%)'\n\
         set xtics rotate by -45 scale 0\n\
         set key top left\n\
         set grid ytics\n"
        name name name;
      let columns =
        List.mapi
          (fun i config ->
            Printf.sprintf "'%s.csv' using %d:xtic(1) title '%s'" name (i + 3)
              config)
          configs
      in
      Printf.fprintf oc "plot %s\n" (String.concat ", \\\n     " columns));
  [ csv_path; gp_path ]

let write_scatter_figure ~dir (fig : Experiments.scatter_figure) =
  ensure_dir dir;
  let path_prefix = Filename.concat dir "fig6" in
  Experiments.export_scatter ~path_prefix fig;
  let csvs =
    List.map (fun v -> path_prefix ^ "_vs_" ^ v ^ ".csv") [ "ob"; "rhop"; "op" ]
  in
  let gp_path = Filename.concat dir "fig6.gp" in
  let oc = open_out gp_path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc
        "# Regenerates the six Figure 6 scatter panels\n\
         set terminal pngcairo size 1500,900\n\
         set output 'fig6.png'\n\
         set datafile separator ','\n\
         set multiplot layout 2,3\n\
         set grid\n\
         set xzeroaxis\n\
         set yzeroaxis\n\
         set xlabel 'speedup (%%)'\n";
      List.iter
        (fun (title, file, col, ylab) ->
          Printf.fprintf oc
            "set title '%s'\nset ylabel '%s'\nplot '%s' using 2:%d notitle \
             pt 7 ps 0.6\n"
            title ylab file col)
        [
          ("a.1 VC vs OB", "fig6_vs_ob.csv", 3, "copy reduction (%)");
          ("a.2 VC vs RHOP", "fig6_vs_rhop.csv", 3, "copy reduction (%)");
          ("a.3 VC vs OP", "fig6_vs_op.csv", 3, "copy reduction (%)");
          ("b.1 VC vs OB", "fig6_vs_ob.csv", 4, "balance improvement (%)");
          ("b.2 VC vs RHOP", "fig6_vs_rhop.csv", 4, "balance improvement (%)");
          ("b.3 VC vs OP", "fig6_vs_op.csv", 4, "balance improvement (%)");
        ];
      Printf.fprintf oc "unset multiplot\n");
  csvs @ [ gp_path ]
