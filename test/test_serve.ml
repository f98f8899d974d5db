(* Tests for the simulation service layer: canonical request encoding
   and content hashing (with golden values so an accidental
   canonicalization change fails loudly), protocol framing round
   trips, the two-tier result cache, and an end-to-end serve/submit
   exchange against the real binary. *)

module Serve = Clusteer_serve
module Request = Serve.Request
module Protocol = Serve.Protocol
module Json = Clusteer_obs.Json
module Counters = Clusteer_obs.Counters

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ---- canonical requests and hashes ------------------------------- *)

let test_canonical_golden () =
  let r = Request.make ~workload:"mcf" () in
  (* The exact canonical bytes: field order, resolved workload name,
     null optionals. If this changes, every existing cache key is
     invalidated — change it deliberately or not at all. *)
  check_string "canonical bytes"
    {|{"v":1,"workload":"181.mcf","phase":0,"clusters":2,"policy":"vc2","uops":20000,"warmup":null,"seed":null,"overrides":{"fp_ratio":null,"mem_ratio":null,"ilp":null,"footprint_kb":null}}|}
    (Request.canonical_string r)

let test_hash_golden () =
  let r = Request.make ~workload:"mcf" () in
  check_string "hash golden" "8c4a02c0bfe2219a" (Request.hash r);
  let r2 =
    Request.make ~workload:"gzip-1" ~phase:1 ~clusters:4
      ~policy:Clusteer.Configuration.Op ~uops:5000
      ~overrides:{ Request.no_overrides with Request.mem_ratio = Some 0.25 }
      ()
  in
  check_string "hash golden 2" "c53785cc4ab8205f" (Request.hash r2)

let test_workload_name_canonicalization () =
  let short = Request.make ~workload:"mcf" () in
  let full = Request.make ~workload:"181.mcf" () in
  check_string "short and full name are one request" (Request.hash short)
    (Request.hash full)

let test_float_encoding_integer_exact () =
  let with_ratio v =
    Request.make ~workload:"mcf"
      ~overrides:{ Request.no_overrides with Request.mem_ratio = Some v }
      ()
  in
  let r = with_ratio 0.3 in
  check_bool "f64 bit pattern on the wire" true
    (let s = Request.canonical_string r in
     let rec contains i =
       i + 4 <= String.length s
       && (String.sub s i 4 = "f64:" || contains (i + 1))
     in
     contains 0);
  (* A decimal float in hand-written input canonicalizes to the same
     bytes (and so the same hash) as the bit-pattern form. *)
  match
    Json.of_string
      {|{"workload":"mcf","overrides":{"mem_ratio":0.3}}|}
  with
  | Error e -> Alcotest.fail e
  | Ok doc -> (
      match Request.of_json doc with
      | Error e -> Alcotest.fail e
      | Ok decoded ->
          check_string "decimal and f64 inputs hash identically"
            (Request.hash r) (Request.hash decoded))

let test_request_roundtrip () =
  let r =
    Request.make ~workload:"gzip-1" ~phase:2 ~clusters:4
      ~policy:(Clusteer.Configuration.Mod_n { n = 3 })
      ~uops:7000 ~warmup:1000 ~seed:42
      ~overrides:
        {
          Request.fp_ratio = Some 0.5;
          mem_ratio = None;
          ilp = Some 6;
          footprint_kb = Some 512;
        }
      ()
  in
  match Request.of_json (Request.canonical r) with
  | Error e -> Alcotest.fail e
  | Ok r' ->
      check_bool "round trip equal" true (Request.equal r r');
      check_string "round trip hash" (Request.hash r) (Request.hash r')

let test_request_rejects_unknown_field () =
  match Json.of_string {|{"workload":"mcf","uopss":100}|} with
  | Error e -> Alcotest.fail e
  | Ok doc ->
      check_bool "unknown field rejected" true
        (match Request.of_json doc with
        | Error m ->
            (* the message names the offending field *)
            let contains hay needle =
              let n = String.length needle in
              let rec go i =
                i + n <= String.length hay
                && (String.sub hay i n = needle || go (i + 1))
              in
              go 0
            in
            contains m "uopss"
        | Ok _ -> false)

let test_hash_sensitivity () =
  let base = Request.make ~workload:"mcf" () in
  let variants =
    [
      Request.make ~workload:"mcf" ~uops:20_001 ();
      Request.make ~workload:"mcf" ~policy:Clusteer.Configuration.Op ();
      Request.make ~workload:"mcf" ~seed:1 ();
      Request.make ~workload:"mcf" ~phase:1 ();
      Request.make ~workload:"gzip-1" ();
    ]
  in
  List.iter
    (fun v ->
      check_bool
        (Printf.sprintf "distinct from %s" (Request.canonical_string v))
        false
        (Request.hash base = Request.hash v))
    variants

(* ---- protocol framing -------------------------------------------- *)

let test_command_roundtrip () =
  let cases =
    [
      Protocol.Simulate
        {
          id = 7;
          deadline_ms = Some 250.;
          request = Request.make ~workload:"mcf" ~uops:3000 ();
        };
      Protocol.Simulate
        { id = 1; deadline_ms = None; request = Request.make ~workload:"mcf" () };
      Protocol.Stats;
      Protocol.Metrics;
      Protocol.Ping;
      Protocol.Shutdown;
    ]
  in
  List.iter
    (fun c ->
      let line = Protocol.encode_command c in
      check_bool "one line" false (String.contains line '\n');
      match Protocol.parse_command line with
      | Error e -> Alcotest.fail e
      | Ok c' ->
          check_string "command round trip" line (Protocol.encode_command c'))
    cases

let test_response_roundtrip () =
  let cases =
    [
      Protocol.Result
        {
          id = 3;
          hash = "0123456789abcdef";
          cached = true;
          result = Json.Obj [ ("x", Json.Int 1) ];
        };
      Protocol.Rejected { id = 4; reason = Protocol.Queue_full };
      Protocol.Rejected { id = 5; reason = Protocol.Timeout };
      Protocol.Rejected
        {
          id = 7;
          reason = Protocol.Check_failed "error[VC005] uop 3: missing leader";
        };
      Protocol.Error_reply { id = 6; message = "boom" };
      Protocol.Stats_reply (Json.Obj [ ("counters", Json.Obj []) ]);
      (* Exposition text rides inside a JSON string: the newlines must
         survive the escape/unescape round trip without breaking the
         one-line-per-response framing. *)
      Protocol.Metrics_reply "# TYPE serve_requests counter\nserve_requests 3\n";
      Protocol.Pong;
      Protocol.Bye;
    ]
  in
  List.iter
    (fun r ->
      let line = Protocol.encode_response r in
      match Protocol.parse_response line with
      | Error e -> Alcotest.fail e
      | Ok r' ->
          check_string "response round trip" line (Protocol.encode_response r'))
    cases

let test_result_line_verbatim () =
  let result = {|{"stats":{"ipc":1.25},"weird":  "spacing preserved"}|} in
  let line =
    Protocol.encode_result_line ~id:9 ~hash:"deadbeefdeadbeef" ~cached:false
      ~result
  in
  (* The spliced document's bytes survive untouched. *)
  check_bool "verbatim splice" true
    (let n = String.length line and m = String.length result in
     String.sub line (n - m - 1) m = result);
  match Protocol.parse_response line with
  | Ok (Protocol.Result { id = 9; cached = false; hash = "deadbeefdeadbeef"; _ })
    -> ()
  | Ok _ -> Alcotest.fail "parsed to the wrong response"
  | Error e -> Alcotest.fail e

(* ---- cache: memory tier + disk spill ------------------------------ *)

let temp_dir () =
  let path = Filename.temp_file "csteer_cache" "" in
  Sys.remove path;
  path

let test_cache_spill_roundtrip () =
  let registry = Counters.create () in
  let dir = temp_dir () in
  (* Budget fits roughly one entry: storing a second spills the first. *)
  let cache = Serve.Cache.create ~registry ~dir ~budget:64 () in
  let v1 = String.make 40 'x' and v2 = String.make 40 'y' in
  Serve.Cache.store cache "1111111111111111" v1;
  Serve.Cache.store cache "2222222222222222" v2;
  let value name = Counters.value (Counters.counter ~registry name) in
  check_int "first entry spilled" 1 (value "serve.cache.spills");
  check_bool "spill file exists, named by the simulator fingerprint" true
    (Sys.file_exists
       (Filename.concat dir (Serve.Cache.fingerprint ^ "-1111111111111111.json")));
  (* Disk satisfies the miss and promotes back into memory. *)
  Alcotest.(check (option string)) "disk hit" (Some v1)
    (Serve.Cache.find cache "1111111111111111");
  check_int "counted as hit" 1 (value "serve.cache.hits");
  check_int "counted as disk hit" 1 (value "serve.cache.disk_hits");
  Alcotest.(check (option string)) "absent is a miss" None
    (Serve.Cache.find cache "3333333333333333");
  check_int "miss counted" 1 (value "serve.cache.misses")

(* ---- end to end against the real binary --------------------------- *)

(* ---- admission validation ---------------------------------------- *)

let contains haystack needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length haystack
    && (String.sub haystack i n = needle || go (i + 1))
  in
  go 0

let oversized_vc_request () =
  (* 200 virtual clusters against mcf's ~hundred static uops: the one
     wire-reachable ill-formed request shape (VC010). *)
  match Clusteer.Configuration.of_name "vc200" with
  | Ok policy -> Request.make ~workload:"mcf" ~policy ~uops:2000 ()
  | Error (`Msg m) -> Alcotest.fail m

let test_validate_hook () =
  (* The default hook accepts everything; the analyzer-backed validator
     accepts well-formed requests and pins down ill-formed ones. *)
  let good = Request.make ~workload:"gzip-1" ~uops:2000 () in
  (match Request.check good with Ok () -> () | Error e -> Alcotest.fail e);
  (match Serve.Validate.check good with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Serve.Validate.check (oversized_vc_request ()) with
  | Error m -> check_bool "rejection names VC010" true (contains m "VC010")
  | Ok () -> Alcotest.fail "expected the validator to reject vc200");
  (* Unknown workloads are the resolution step's business — the
     validator waves them through so the server can answer precisely. *)
  (match Serve.Validate.check (Request.make ~workload:"nosuch" ~uops:100 ()) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* The hook is an explicit stub point for tests. *)
  let saved = !Request.check_hook in
  Fun.protect ~finally:(fun () -> Request.check_hook := saved) @@ fun () ->
  Request.check_hook := (fun _ -> Error "stubbed");
  match Request.check good with
  | Error "stubbed" -> ()
  | _ -> Alcotest.fail "stubbed hook was not consulted"

let exe =
  let candidates =
    [ "../bin/csteer.exe"; "_build/default/bin/csteer.exe"; "bin/csteer.exe" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> "../bin/csteer.exe"

let start_server args =
  let sock = Filename.temp_file "csteer_serve" ".sock" in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process exe
      (Array.of_list ([ exe; "serve"; "--socket"; sock ] @ args))
      null null null
  in
  Unix.close null;
  let rec wait n =
    (* serve unlinks the temp file and rebinds it as a socket *)
    if (try (Unix.stat sock).Unix.st_kind = Unix.S_SOCK with Unix.Unix_error _ -> false)
    then ()
    else if n = 0 then Alcotest.fail "server did not start"
    else begin
      Unix.sleepf 0.05;
      wait (n - 1)
    end
  in
  wait 200;
  (sock, pid)

let stop_server (sock, pid) =
  (try ignore (Serve.Client.shutdown ~socket:sock) with _ -> ());
  ignore (Unix.waitpid [] pid);
  if Sys.file_exists sock then Sys.remove sock

let test_e2e_cache_hit_and_deadlines () =
  let server = start_server [ "--queue-depth"; "2" ] in
  let sock, _ = server in
  Fun.protect ~finally:(fun () -> stop_server server) @@ fun () ->
  let req = Request.make ~workload:"gzip-1" ~uops:2000 () in
  (* First submit simulates... *)
  let first =
    match Serve.Client.submit ~socket:sock req with
    | Ok (Protocol.Result { cached; hash; result; _ }) ->
        check_bool "first is a miss" false cached;
        check_string "hash echoes" (Request.hash req) hash;
        result
    | Ok _ -> Alcotest.fail "unexpected response"
    | Error e -> Alcotest.fail e
  in
  (* ...the second identical submit is a cache hit with a bit-identical
     result document. *)
  (match Serve.Client.submit ~socket:sock req with
  | Ok (Protocol.Result { cached; result; _ }) ->
      check_bool "second is cached" true cached;
      check_string "bit-identical result" (Json.to_string first)
        (Json.to_string result)
  | Ok _ -> Alcotest.fail "unexpected response"
  | Error e -> Alcotest.fail e);
  (* An already-expired deadline is rejected, not simulated. *)
  let uncached = Request.make ~workload:"gzip-1" ~uops:2100 () in
  (match Serve.Client.submit ~socket:sock ~deadline_ms:0. uncached with
  | Ok (Protocol.Rejected { reason = Protocol.Timeout; _ }) -> ()
  | Ok _ -> Alcotest.fail "expected a timeout rejection"
  | Error e -> Alcotest.fail e);
  (* An ill-formed request is turned away by the admission checker
     before it reaches a worker. *)
  (match Serve.Client.submit ~socket:sock (oversized_vc_request ()) with
  | Ok (Protocol.Rejected { reason = Protocol.Check_failed m; _ }) ->
      check_bool "rejection message names VC010" true (contains m "VC010")
  | Ok _ -> Alcotest.fail "expected a check_failed rejection"
  | Error e -> Alcotest.fail e);
  (* Backpressure: 4 distinct misses against a queue of 2 in one batch. *)
  let cmds =
    List.map
      (fun uops ->
        Protocol.Simulate
          {
            id = uops;
            deadline_ms = None;
            request = Request.make ~workload:"gzip-1" ~uops ();
          })
      [ 1500; 1600; 1700; 1800 ]
  in
  let replies = Serve.Client.call ~socket:sock cmds in
  let full, oks =
    List.fold_left
      (fun (full, oks) r ->
        match r with
        | Ok (Protocol.Rejected { reason = Protocol.Queue_full; _ }) ->
            (full + 1, oks)
        | Ok (Protocol.Result _) -> (full, oks + 1)
        | _ -> (full, oks))
      (0, 0) replies
  in
  check_int "two admitted" 2 oks;
  check_int "two pushed back" 2 full;
  (* Duplicate requests inside one batch simulate once, answer twice. *)
  let dup = Request.make ~workload:"gzip-1" ~uops:2200 () in
  let two =
    Serve.Client.call ~socket:sock
      [
        Protocol.Simulate { id = 1; deadline_ms = None; request = dup };
        Protocol.Simulate { id = 2; deadline_ms = None; request = dup };
      ]
  in
  (match two with
  | [
   Ok (Protocol.Result { result = ra; _ });
   Ok (Protocol.Result { result = rb; _ });
  ] ->
      check_string "dedup answers identically" (Json.to_string ra)
        (Json.to_string rb)
  | _ -> Alcotest.fail "expected two ok responses");
  (* Counters: hits/misses/simulations are visible over the wire. *)
  match Serve.Client.stats ~socket:sock with
  | Error e -> Alcotest.fail e
  | Ok doc ->
      let counter name =
        Option.bind (Json.member "counters" doc) (Json.member name)
        |> Option.map Json.to_int |> Option.join
        |> Option.value ~default:(-1)
      in
      check_int "one hit" 1 (counter "serve.cache.hits");
      check_bool "simulations ran" true (counter "serve.simulations" >= 3);
      check_int "one timeout" 1 (counter "serve.rejected.timeout");
      check_int "two queue-full" 2 (counter "serve.rejected.queue_full");
      check_int "one check failure" 1 (counter "serve.rejected.check_failed");
      (* dedup: 2200-uop request simulated once for two answers *)
      check_int "requests counted" 10 (counter "serve.requests")

let test_e2e_metrics_scrape () =
  let server = start_server [ "--profile" ] in
  let sock, _ = server in
  Fun.protect ~finally:(fun () -> stop_server server) @@ fun () ->
  let scrape () =
    match Serve.Client.metrics ~socket:sock with
    | Ok text -> text
    | Error e -> Alcotest.fail e
  in
  (* Value of a plain counter sample line, e.g. "serve_requests 3". *)
  let metric_value text name =
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
           match String.index_opt line ' ' with
           | Some i when String.sub line 0 i = name ->
               int_of_string_opt
                 (String.sub line (i + 1) (String.length line - i - 1))
           | _ -> None)
    |> Option.value ~default:(-1)
  in
  let before = scrape () in
  check_bool "scrape is typed Prometheus text" true
    (contains before "# TYPE serve_requests counter");
  let r0 = metric_value before "serve_requests" in
  check_bool "request counter present" true (r0 >= 0);
  (match
     Serve.Client.submit ~socket:sock
       (Request.make ~workload:"gzip-1" ~uops:1000 ())
   with
  | Ok (Protocol.Result _) -> ()
  | Ok _ -> Alcotest.fail "unexpected response"
  | Error e -> Alcotest.fail e);
  let after = scrape () in
  check_int "serve.requests advances across scrapes" (r0 + 1)
    (metric_value after "serve_requests");
  (* The self-profiler's spans are live in the same scrape. *)
  check_bool "admission span exposed" true
    (contains after "# TYPE profile_serve_admission_ns histogram");
  check_bool "worker engine phases merged in" true
    (contains after "profile_engine_commit_ns_count 1");
  check_bool "quantiles exposed" true
    (contains after "profile_serve_admission_ns_quantile{q=\"0.99\"}")

(* ---- one request path -------------------------------------------- *)

module Runner = Clusteer_harness.Runner
module Check_target = Clusteer_harness.Check_target
module Checker = Clusteer_analysis.Checker

(* An in-process server on a fresh socket and registry, one worker;
   [f] gets the socket path and the registry, and the server is shut
   down however [f] ends. *)
let with_server ?cache_dir f =
  let socket = Filename.temp_file "csteer_inproc" ".sock" in
  Sys.remove socket;
  let registry = Counters.create () in
  let cfg =
    {
      (Serve.Server.default_config ~socket_path:socket) with
      Serve.Server.domains = Some 1;
      cache_dir;
    }
  in
  let thread = Thread.create (fun () -> Serve.Server.serve ~registry cfg) () in
  let rec wait n =
    match Serve.Client.call ~socket [ Protocol.Ping ] with
    | [ Ok Protocol.Pong ] -> ()
    | _ | (exception Unix.Unix_error _) ->
        if n = 0 then Alcotest.fail "in-process server did not start";
        Unix.sleepf 0.01;
        wait (n - 1)
  in
  wait 1000;
  Fun.protect
    ~finally:(fun () ->
      ignore (Serve.Client.shutdown ~socket);
      Thread.join thread)
    (fun () -> f socket registry)

let submit_line socket request =
  match
    Serve.Client.call_lines ~socket
      [
        Protocol.encode_command
          (Protocol.Simulate { id = 1; deadline_ms = None; request });
      ]
  with
  | [ line ] -> line
  | _ -> Alcotest.fail "expected one reply line"

let vc2 = Clusteer.Configuration.Vc { virtual_clusters = 2 }

let test_served_stats_match_runner () =
  (* dot reads live-in registers (IR007), so the strict admission gate
     turns it away exactly as `csteer check --strict` does; this test
     pins which stream a name replays, so it lets dot past the gate
     and keeps the real validator for every other name. *)
  (match Serve.Validate.check (Request.make ~workload:"dot" ~uops:2000 ()) with
  | Error m -> check_bool "dot trips IR007" true (contains m "IR007")
  | Ok () -> Alcotest.fail "expected dot to fail the strict gate");
  with_server @@ fun socket _ ->
  let saved = !Request.check_hook in
  Fun.protect ~finally:(fun () -> Request.check_hook := saved) @@ fun () ->
  Request.check_hook :=
    (fun r ->
      if r.Request.workload = "dot" then Ok () else Serve.Validate.check r);
  let uops = 2000 in
  List.iter
    (fun (name, phase) ->
      let w, seed =
        match Runner.resolve ~phase name with
        | Ok r -> r
        | Error _ -> Alcotest.failf "%s does not resolve" name
      in
      let expected =
        Runner.run_workload ~warmup:(Runner.default_warmup uops) ~seed
          ~registry:(Counters.create ())
          ~machine:(Clusteer_uarch.Config.default ~clusters:2)
          ~configs:[ vc2 ] ~uops w
        |> List.hd |> snd
      in
      let line =
        submit_line socket
          (Request.make ~workload:name ~phase ~policy:vc2 ~uops ())
      in
      check_bool
        (Printf.sprintf "%s phase %d: served stats = Runner's" name phase)
        true
        (contains line
           ("\"stats\":"
           ^ Json.to_string (Clusteer_uarch.Stats.to_json expected))))
    [ ("gzip-1", 0); ("gzip-1", 1); ("mcf", 0); ("dot", 0); ("adv-storm", 0) ]

let verdict = function Ok () -> "accept" | Error _ -> "reject"

let test_admission_matches_check () =
  let policies =
    List.map
      (fun n ->
        match Clusteer.Configuration.of_name n with
        | Ok p -> p
        | Error (`Msg m) -> Alcotest.fail m)
      [ "vc2"; "vc200"; "crit" ]
  in
  let machine = Clusteer_uarch.Config.default ~clusters:2 in
  let names =
    List.map
      (fun (p : Clusteer_workloads.Profile.t) ->
        p.Clusteer_workloads.Profile.name)
      Clusteer_workloads.Spec2000.all
    @ List.map fst Clusteer_workloads.Adversarial.all
  in
  (* Every phase, against the target `csteer check` builds. *)
  List.iter
    (fun name ->
      let rec phases phase =
        match Runner.resolve ~phase name with
        | Error _ -> ()
        | Ok (w, _) ->
            List.iter
              (fun policy ->
                let strict_check =
                  Checker.failed ~strict:true
                    (Checker.run
                       (Check_target.make ~machine
                          ~params:Clusteer.Configuration.default_params
                          ~annot:None ~events:None w policy))
                in
                Alcotest.(check string)
                  (Printf.sprintf "%s phase %d %s" name phase
                     (Clusteer.Configuration.name policy))
                  (if strict_check then "reject" else "accept")
                  (verdict
                     (Serve.Validate.check
                        (Request.make ~workload:name ~phase ~policy ~uops:2000
                           ()))))
              policies;
            phases (phase + 1)
      in
      phases 0)
    names;
  (* Phase 0, against the binary's own strict verdict per target. *)
  let out = Filename.temp_file "csteer_check" ".json" in
  let code =
    Sys.command
      (Printf.sprintf "%s check --strict --json -c 2 -p vc2,vc200,crit -w %s > %s"
         (Filename.quote exe)
         (Filename.quote (String.concat "," names))
         (Filename.quote out))
  in
  let text = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  check_bool "check ran" true (code = 0 || code = 1);
  let targets =
    match Json.of_string (String.trim text) with
    | Ok doc -> (
        match Json.member "targets" doc with
        | Some (Json.List ts) -> ts
        | _ -> Alcotest.fail "no targets")
    | Error e -> Alcotest.fail e
  in
  let requests =
    List.concat_map
      (fun name ->
        List.map
          (fun policy -> Request.make ~workload:name ~policy ~uops:2000 ())
          policies)
      names
  in
  check_int "one report per request" (List.length requests)
    (List.length targets);
  List.iter2
    (fun req target ->
      let count k =
        Option.value ~default:0 (Option.bind (Json.member k target) Json.to_int)
      in
      Alcotest.(check string)
        (Request.canonical_string req)
        (if count "errors" + count "warnings" > 0 then "reject" else "accept")
        (verdict (Serve.Validate.check req)))
    requests targets

let test_resolution_errors () =
  with_server @@ fun socket registry ->
  let misses () =
    Counters.value (Counters.counter ~registry "serve.cache.misses")
  in
  let error_of request =
    match Protocol.parse_response (submit_line socket request) with
    | Ok (Protocol.Error_reply { message; _ }) -> message
    | Ok _ -> Alcotest.fail "expected an error reply"
    | Error e -> Alcotest.fail e
  in
  let expect what needle request =
    let m = error_of request in
    check_bool (Printf.sprintf "%s: %S names %s" what m needle) true
      (contains m needle)
  in
  expect "64 clusters" "clusters: 64"
    (Request.make ~workload:"mcf" ~clusters:64 ~uops:2000 ());
  expect "NaN override" "fp_ratio"
    (Request.make ~workload:"mcf" ~uops:2000
       ~overrides:{ Request.no_overrides with Request.fp_ratio = Some nan }
       ());
  expect "infinite override" "mem_ratio"
    (Request.make ~workload:"mcf" ~uops:2000
       ~overrides:
         { Request.no_overrides with Request.mem_ratio = Some infinity }
       ());
  expect "overrides on a kernel" "dot"
    (Request.make ~workload:"dot" ~uops:2000
       ~overrides:{ Request.no_overrides with Request.ilp = Some 3 }
       ());
  expect "kernel phase" "1 phases"
    (Request.make ~workload:"adv-storm" ~phase:1 ~uops:2000 ());
  expect "unknown name" "unknown workload"
    (Request.make ~workload:"nosuch" ~uops:2000 ());
  (* Each one is answered before the cache is consulted. *)
  check_int "no cache lookups" 0 (misses ())

(* ---- disk cache fingerprint ---------------------------------------- *)

let test_fingerprint_tracks_goldens () =
  let dir = "goldens" in
  let goldens =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           String.length f > 5
           && String.sub f 0 5 = "seed_"
           && Filename.check_suffix f ".json")
    |> List.sort compare
  in
  check_bool "goldens found" true (goldens <> []);
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat ""
            (List.map
               (fun f ->
                 In_channel.with_open_bin (Filename.concat dir f)
                   In_channel.input_all)
               goldens)))
  in
  check_string "Cache.fingerprint = digest of the seed goldens (bump it)"
    (String.sub digest 0 12) Serve.Cache.fingerprint

let test_stale_spill_not_served () =
  let dir = temp_dir () in
  Unix.mkdir dir 0o755;
  let request = Request.make ~workload:"gzip-1" ~uops:1500 () in
  let planted = {|{"stale":true}|} in
  (* A spill file in the layout of an older simulator. *)
  Out_channel.with_open_bin
    (Filename.concat dir (Request.hash request ^ ".json"))
    (fun oc -> output_string oc planted);
  with_server ~cache_dir:dir @@ fun socket _ ->
  match Protocol.parse_response (submit_line socket request) with
  | Ok (Protocol.Result { cached; result; _ }) ->
      check_bool "simulated, not replayed from disk" false cached;
      check_bool "planted bytes not served" false
        (Json.to_string result = planted)
  | Ok _ -> Alcotest.fail "expected a result"
  | Error e -> Alcotest.fail e

(* ---- fuzzing ------------------------------------------------------ *)

let never_raises f x =
  match f x with
  | Ok _ | Error _ -> true
  | exception e ->
      QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)

let gen_json =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           let scalar =
             oneof
               [
                 return Json.Null;
                 map (fun b -> Json.Bool b) bool;
                 map (fun i -> Json.Int i) int;
                 map (fun f -> Json.Float f) float;
                 map (fun s -> Json.Str s) (string_size ~gen:printable (0 -- 24));
                 map
                   (fun s -> Json.Str s)
                   (oneofl
                      [ "mcf"; "dot"; "adv-storm"; "vc2"; "f64:7ff8000000000000" ]);
               ]
           in
           let key =
             oneofl
               [
                 "v"; "workload"; "phase"; "clusters"; "policy"; "uops";
                 "warmup"; "seed"; "overrides"; "fp_ratio"; "mem_ratio"; "ilp";
                 "footprint_kb"; "op"; "id"; "deadline_ms"; "request"; "x";
               ]
           in
           if n <= 0 then scalar
           else
             frequency
               [
                 (2, scalar);
                 (1, map (fun l -> Json.List l) (list_size (0 -- 4) (self (n / 4))));
                 ( 3,
                   map
                     (fun l -> Json.Obj l)
                     (list_size (0 -- 8) (pair key (self (n / 4)))) );
               ]))

(* Valid lines with bytes flipped, dropped or inserted. *)
let mutate seeds =
  QCheck.Gen.(
    let* line = oneofl seeds in
    let* edits = list_size (1 -- 4) (triple (0 -- 2) nat char) in
    return
      (List.fold_left
         (fun s (op, at, c) ->
           let n = String.length s in
           let at = if n = 0 then 0 else at mod n in
           match op with
           | 0 when n > 0 -> String.mapi (fun i d -> if i = at then c else d) s
           | 1 when n > 0 ->
               String.sub s 0 at ^ String.sub s (at + 1) (n - at - 1)
           | _ -> String.sub s 0 at ^ String.make 1 c ^ String.sub s at (n - at))
         line edits))

let command_seeds =
  List.map Protocol.encode_command
    [
      Protocol.Simulate
        {
          id = 3;
          deadline_ms = Some 0.;
          request =
            Request.make ~workload:"gzip-1" ~phase:1 ~uops:900 ~seed:5
              ~overrides:
                { Request.no_overrides with Request.mem_ratio = Some 0.25 }
              ();
        };
      Protocol.Stats;
      Protocol.Metrics;
      Protocol.Ping;
    ]

let gen_line =
  QCheck.Gen.(
    oneof [ string_size ~gen:char (0 -- 80); mutate command_seeds ])

let prop_request_of_json =
  QCheck.Test.make ~name:"Request.of_json never raises" ~count:2000
    (QCheck.make ~print:Json.to_string gen_json)
    (never_raises Request.of_json)

let prop_parse_command =
  QCheck.Test.make ~name:"Protocol.parse_command never raises" ~count:2000
    (QCheck.make ~print:String.escaped gen_line)
    (never_raises Protocol.parse_command)

(* Fuzzed lines that would run work are made harmless first: a simulate
   command gets an expired deadline (rejected before any simulation),
   and shutdown is dropped. *)
let harmless line =
  let line = String.map (fun c -> if c = '\n' then ' ' else c) line in
  match Protocol.parse_command line with
  | Ok Protocol.Shutdown -> None
  | Ok (Protocol.Simulate { deadline_ms = Some d; _ }) when d <= 0. -> Some line
  | Ok (Protocol.Simulate s) ->
      Some
        (Protocol.encode_command (Protocol.Simulate { s with deadline_ms = Some 0. }))
  | Ok _ | Error _ -> Some line

let test_fuzzed_batch_keeps_server_alive () =
  let rand = Random.State.make [| 0x5e12e |] in
  let lines =
    List.filter_map harmless
      (QCheck.Gen.generate ~rand ~n:300 gen_line
      @ List.map Json.to_string (QCheck.Gen.generate ~rand ~n:100 gen_json))
    |> List.filter (fun l -> String.trim l <> "")
  in
  with_server @@ fun socket _ ->
  let replies = Serve.Client.call_lines ~socket lines in
  check_int "one reply per line" (List.length lines) (List.length replies);
  List.iter
    (fun r ->
      check_bool "every reply parses" true
        (Result.is_ok (Protocol.parse_response r)))
    replies;
  match Serve.Client.call ~socket [ Protocol.Ping ] with
  | [ Ok Protocol.Pong ] -> ()
  | _ -> Alcotest.fail "server stopped answering ping"

let () =
  Alcotest.run "clusteer_serve"
    [
      ( "request",
        [
          Alcotest.test_case "canonical golden" `Quick test_canonical_golden;
          Alcotest.test_case "hash golden" `Quick test_hash_golden;
          Alcotest.test_case "name canonicalization" `Quick
            test_workload_name_canonicalization;
          Alcotest.test_case "integer-exact floats" `Quick
            test_float_encoding_integer_exact;
          Alcotest.test_case "round trip" `Quick test_request_roundtrip;
          Alcotest.test_case "rejects unknown field" `Quick
            test_request_rejects_unknown_field;
          Alcotest.test_case "hash sensitivity" `Quick test_hash_sensitivity;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "command round trip" `Quick test_command_roundtrip;
          Alcotest.test_case "response round trip" `Quick
            test_response_roundtrip;
          Alcotest.test_case "verbatim result splice" `Quick
            test_result_line_verbatim;
        ] );
      ( "cache",
        [
          Alcotest.test_case "disk spill round trip" `Quick
            test_cache_spill_roundtrip;
          Alcotest.test_case "fingerprint tracks the goldens" `Quick
            test_fingerprint_tracks_goldens;
          Alcotest.test_case "stale spill not served" `Quick
            test_stale_spill_not_served;
        ] );
      ( "request path",
        [
          Alcotest.test_case "served stats = Runner's" `Quick
            test_served_stats_match_runner;
          Alcotest.test_case "admission = check --strict" `Slow
            test_admission_matches_check;
          Alcotest.test_case "resolution errors" `Quick test_resolution_errors;
        ] );
      ( "fuzz",
        [
          QCheck_alcotest.to_alcotest prop_request_of_json;
          QCheck_alcotest.to_alcotest prop_parse_command;
          Alcotest.test_case "fuzzed batch keeps the server alive" `Quick
            test_fuzzed_batch_keeps_server_alive;
        ] );
      ( "serve",
        [
          Alcotest.test_case "validate hook" `Quick test_validate_hook;
          Alcotest.test_case "end to end" `Slow test_e2e_cache_hit_and_deadlines;
          Alcotest.test_case "metrics scrape" `Slow test_e2e_metrics_scrape;
        ] );
    ]
