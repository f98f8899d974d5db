(* The one run path: the workload-name resolver every command shares,
   and the replays behind `csteer analyze --vs-run` and `csteer check
   --dynamic`, which must run exactly the stream `csteer simulate`
   executes. *)

open Clusteer_uarch
module Runner = Clusteer_harness.Runner
module Synth = Clusteer_workloads.Synth
module Pinpoints = Clusteer_workloads.Pinpoints
module Spec2000 = Clusteer_workloads.Spec2000
module Dyn_check = Clusteer_analysis.Dyn_check
module Json = Clusteer_obs.Json

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let exe =
  let candidates =
    [ "../bin/csteer.exe"; "_build/default/bin/csteer.exe"; "bin/csteer.exe" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> "../bin/csteer.exe"

(* Run the CLI; returns (exit code, stdout, stderr). *)
let run args =
  let out = Filename.temp_file "csteer_run_path" ".out" in
  let err = Filename.temp_file "csteer_run_path" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s > %s 2> %s" (Filename.quote exe) args
         (Filename.quote out) (Filename.quote err))
  in
  let read path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove path;
    s
  in
  let stdout = read out in
  (code, stdout, read err)

let contains haystack needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length haystack
    && (String.sub haystack i n = needle || go (i + 1))
  in
  go 0

let resolve ?(phase = 0) name =
  match Runner.resolve ~phase name with
  | Ok r -> r
  | Error _ -> Alcotest.failf "%s (phase %d) does not resolve" name phase

let vc2 = Clusteer.Configuration.Vc { virtual_clusters = 2 }

(* The stream `simulate -n n` executes, replayed from reset. *)
let replay_stats ?obs name n =
  let w, seed = resolve name in
  List.assoc "vc2"
    (Runner.run_workload ~warmup:0 ~seed ?obs
       ~registry:(Clusteer_obs.Counters.create ())
       ~machine:(Config.default ~clusters:2) ~configs:[ vc2 ]
       ~uops:(Runner.default_warmup n + n)
       w)

(* ---- resolver ------------------------------------------------------ *)

let test_every_listed_name_resolves () =
  let code, out, _ = run "list" in
  check_int "list exits 0" 0 code;
  (* Table rows start with the SPEC name; skip the header and rule. *)
  let names =
    String.split_on_char '\n' out
    |> List.filter_map (fun line ->
           match String.split_on_char ' ' (String.trim line) with
           | name :: _ when String.contains name '.' -> Some name
           | _ -> None)
  in
  check_int "every SPEC profile listed" (List.length Spec2000.all)
    (List.length names);
  List.iter
    (fun name ->
      let w, seed = resolve name in
      let point = List.hd (Pinpoints.points (Spec2000.find name)) in
      check_int (name ^ " seed") (Runner.trace_seed point) seed;
      check_bool (name ^ " phase-0 workload") true
        (w.Synth.profile = point.Pinpoints.profile))
    names

let test_synthetic_names_get_seed_one () =
  List.iter
    (fun (name, w) ->
      let w', seed = resolve name in
      check_int (name ^ " seed") 1 seed;
      check_bool (name ^ " same workload") true (w' == w))
    (Clusteer_workloads.Kernels.all @ Clusteer_workloads.Adversarial.all)

let test_phase_range () =
  let phases = (Spec2000.find "mcf").Clusteer_workloads.Profile.phases in
  let last = phases - 1 in
  let _, seed = resolve ~phase:last "mcf" in
  check_int "last phase seed"
    (Runner.trace_seed (List.nth (Pinpoints.points (Spec2000.find "mcf")) last))
    seed;
  let expect_range what phase name n =
    match Runner.resolve ~phase name with
    | Error (Runner.Phase_out_of_range m) -> check_int what n m
    | _ -> Alcotest.failf "%s: expected a phase-range error" what
  in
  expect_range "one past the last SPEC phase" phases "mcf" phases;
  expect_range "negative SPEC phase" (-1) "mcf" phases;
  expect_range "kernel phase 1" 1 "daxpy" 1;
  expect_range "adversarial phase 1" 1 "adv-storm" 1;
  check_bool "unknown name" true
    (Runner.resolve ~phase:0 "not-a-benchmark" = Error Runner.Unknown_workload)

(* ---- replays ------------------------------------------------------- *)

let test_vs_run_replays_simulate_stream () =
  let n = 3000 in
  let code, out, _ =
    run (Printf.sprintf "analyze -w gzip-1 -p vc2 --vs-run -n %d --json" n)
  in
  check_int "analyze exits 0" 0 code;
  let stats = replay_stats "gzip-1" n in
  match Json.of_string (String.trim out) with
  | Error e -> Alcotest.failf "analyze --json unparseable: %s" e
  | Ok doc -> (
      match Option.bind (Json.member "targets" doc) Json.to_list with
      | Some [ target ] ->
          check_int "dispatched" stats.Stats.dispatched
            (Option.get (Option.bind (Json.member "dispatched" target) Json.to_int));
          let cm100 =
            Printf.sprintf "run generated %d copies over %d dispatched"
              stats.Stats.copies_generated stats.Stats.dispatched
          in
          check_bool "CM100 reports the replay's copies" true
            (contains (Json.to_string target) cm100)
      | _ -> Alcotest.fail "expected exactly one target")

let test_dynamic_recorder_sees_every_dispatch () =
  let sink, recorded = Dyn_check.recorder () in
  let stats = replay_stats ~obs:(fun _ -> Some sink) "gzip-1" 2000 in
  let events = recorded () in
  (* One event per steering decision: every dispatched uop, plus the
     decisions a structural hazard then blocked. *)
  check_bool "an event per dispatch" true
    (List.length events >= stats.Stats.dispatched);
  let w, _ = resolve "gzip-1" in
  let annot, _ =
    Clusteer.Configuration.prepare vc2 ~program:w.Synth.program
      ~likely:w.Synth.likely ~clusters:2 ()
  in
  check_int "remap contract holds" 0
    (List.length (Dyn_check.check ~annot ~clusters:2 events))

(* ---- --annot never rides a replay ---------------------------------- *)

let with_annot f =
  let path = Filename.temp_file "csteer_run_path" ".annot" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let code, _, _ =
    run (Printf.sprintf "compile -w gzip-1 -p vc2 --emit %s" (Filename.quote path))
  in
  check_int "compile exits 0" 0 code;
  f (Filename.quote path)

let test_annot_rejected_with_dynamic () =
  with_annot @@ fun path ->
  let code, _, err =
    run (Printf.sprintf "check -w gzip-1 -p vc2 --annot %s --dynamic" path)
  in
  check_int "exit 2" 2 code;
  check_bool "names --dynamic" true (contains err "--dynamic");
  let code, _, _ = run (Printf.sprintf "check -w gzip-1 -p vc2 --annot %s" path) in
  check_int "the file alone still checks" 0 code

let test_annot_rejected_with_vs_run () =
  with_annot @@ fun path ->
  let code, _, err =
    run (Printf.sprintf "analyze -w gzip-1 -p vc2 --annot %s --vs-run" path)
  in
  check_int "exit 2" 2 code;
  check_bool "names --vs-run" true (contains err "--vs-run");
  let code, _, _ =
    run (Printf.sprintf "analyze -w gzip-1 -p vc2 --annot %s" path)
  in
  check_int "the file alone still analyzes" 0 code

let () =
  Alcotest.run "run_path"
    [
      ( "resolver",
        [
          Alcotest.test_case "every listed name resolves" `Quick
            test_every_listed_name_resolves;
          Alcotest.test_case "kernels and adversarial get seed 1" `Quick
            test_synthetic_names_get_seed_one;
          Alcotest.test_case "phase range" `Quick test_phase_range;
        ] );
      ( "replay",
        [
          Alcotest.test_case "vs-run replays the simulate stream" `Quick
            test_vs_run_replays_simulate_stream;
          Alcotest.test_case "dynamic recorder sees every dispatch" `Quick
            test_dynamic_recorder_sees_every_dispatch;
        ] );
      ( "annot",
        [
          Alcotest.test_case "rejected with --dynamic" `Quick
            test_annot_rejected_with_dynamic;
          Alcotest.test_case "rejected with --vs-run" `Quick
            test_annot_rejected_with_vs_run;
        ] );
    ]
