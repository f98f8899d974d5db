module Runner = Clusteer_harness.Runner
module Check_target = Clusteer_harness.Check_target
module Checker = Clusteer_analysis.Checker
module Diag = Clusteer_isa.Diag

(* The verdict depends on every request field but uops, warmup and
   seed (they change the dynamic run, not the program or its
   annotation), so memoize on the canonical bytes without them. *)
let memo_key (req : Request.t) =
  Request.canonical_string
    { req with Request.uops = 1; warmup = None; seed = None }

let verdicts : (string, (unit, string) result) Hashtbl.t = Hashtbl.create 16

let summarize diags =
  let gating d =
    match d.Diag.severity with
    | Diag.Error | Diag.Warning -> true
    | Diag.Info -> false
  in
  let n = Diag.count Diag.Error diags + Diag.count Diag.Warning diags in
  match List.find_opt gating diags with
  | None -> "request failed validation"
  | Some d ->
      let first = Format.asprintf "%a" Diag.pp d in
      if n > 1 then Printf.sprintf "%s (+%d more finding(s))" first (n - 1)
      else first

let validate (req : Request.t) =
  match Request.resolve req with
  | Error _ -> Ok () (* resolution answers with Error_reply *)
  | Ok (machine, stream) -> (
      match
        let w, _seed = Runner.build stream in
        Checker.run
          (Check_target.make ~machine
             ~params:Clusteer.Configuration.default_params ~annot:None
             ~events:None w req.Request.policy)
      with
      | exception e ->
          Error (Printf.sprintf "compilation failed: %s" (Printexc.to_string e))
      | diags ->
          (* The server gates strictly: a warning that a human might
             wave through interactively still wastes a worker here. *)
          if Checker.failed ~strict:true diags then Error (summarize diags)
          else Ok ())

let check req =
  let key = memo_key req in
  match Hashtbl.find_opt verdicts key with
  | Some verdict -> verdict
  | None ->
      let verdict = validate req in
      Hashtbl.replace verdicts key verdict;
      verdict

let install () = Request.check_hook := check
