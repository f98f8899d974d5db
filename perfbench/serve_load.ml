(* The serve layer under load: an in-process Server with one worker
   (no extra domain) on a Unix socket inside the checkout, driven by one
   closed-loop client, plus the seeded request mix of the serve-mixed
   workload.

   The server runs in a system thread of the client's domain. In a
   second domain every minor collection of the server would be a
   stop-the-world rendezvous with the client's domain, blocked in a
   read, and batch times would follow the host's scheduling of that
   wake-up rather than the serve path. *)

module Server = Clusteer_serve.Server
module Client = Clusteer_serve.Client
module Protocol = Clusteer_serve.Protocol
module Request = Clusteer_serve.Request
module Conf = Clusteer.Configuration
module Json = Clusteer_obs.Json

(* ---- server lifecycle -------------------------------------------- *)

type server = { socket : string; thread : Thread.t }

let ping socket =
  match Client.call ~socket [ Protocol.Ping ] with
  | [ Ok Protocol.Pong ] -> true
  | _ -> false
  | exception Unix.Unix_error _ -> false

(* Start a server and return once it answers a ping. The socket path
   is relative to the checkout, which keeps it under the 108-byte
   limit of a Unix socket address wherever the checkout lives. *)
let start ~socket =
  let cfg =
    { (Server.default_config ~socket_path:socket) with Server.domains = Some 1 }
  in
  let registry = Clusteer_obs.Counters.create () in
  let thread = Thread.create (fun () -> Server.serve ~registry cfg) () in
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec wait () =
    if ping socket then ()
    else if Unix.gettimeofday () > deadline then
      failwith "perfbench: server did not answer within 10 s"
    else begin
      Unix.sleepf 0.0005;
      wait ()
    end
  in
  wait ();
  { socket; thread }

let stop s =
  (match Client.shutdown ~socket:s.socket with
  | Ok () -> ()
  | Error m -> failwith ("perfbench: server shutdown: " ^ m));
  Thread.join s.thread

(* ---- one batch ---------------------------------------------------- *)

type reply = {
  ok : bool;  (* status ok, with committed uops *)
  committed : int;
  result : string;  (* the raw result document, byte for byte *)
}

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

let result_bytes line =
  let key = "\"result\":" in
  let n = String.length line and k = String.length key in
  let rec find i =
    if i + k > n then ""
    else if String.sub line i k = key then String.sub line (i + k) (n - i - k - 1)
    else find (i + 1)
  in
  find 0

let failed = { ok = false; committed = 0; result = "" }

let parse line =
  match Protocol.parse_response line with
  | Ok (Protocol.Result { result; _ }) ->
      let committed =
        Option.bind (Json.member "stats" result) (Json.member "committed")
        |> Fun.flip Option.bind Json.to_int
        |> Option.value ~default:0
      in
      { ok = committed > 0; committed; result = result_bytes line }
  | Ok _ | Error _ -> failed

(* Send one batch and wait for every reply; returns the replies and
   the round trip in ms. A batch that raises counts all its requests
   as failed replies. *)
let call s requests =
  let lines =
    List.mapi
      (fun id request ->
        Protocol.encode_command
          (Protocol.Simulate { id; deadline_ms = None; request }))
      requests
  in
  let t0 = Unix.gettimeofday () in
  let replies =
    match Client.call_lines ~socket:s.socket lines with
    | lines -> List.map parse lines
    | exception (Unix.Unix_error _ | Sys_error _ | End_of_file) -> []
  in
  let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  let missing = List.length requests - List.length replies in
  (replies @ List.init (max 0 missing) (fun _ -> failed), ms)

(* Server-side counters: hit ratio, simulations, rejections and the
   deepest admission queue seen. *)
type server_stats = {
  hit_ratio : float;
  simulations : int;
  rejected : int;
  queue_depth_max : int;
}

let server_stats s =
  match Client.stats ~socket:s.socket with
  | Error m -> failwith ("perfbench: stats: " ^ m)
  | Ok doc ->
      let counter name =
        Option.bind (Json.member "counters" doc) (Json.member name)
        |> Fun.flip Option.bind Json.to_int
        |> Option.value ~default:0
      in
      let hits = counter "serve.cache.hits"
      and misses = counter "serve.cache.misses" in
      let depth =
        Option.bind (Json.member "histograms" doc) (Json.member "serve.queue.depth")
        |> Fun.flip Option.bind (Json.member "max")
        |> Fun.flip Option.bind Json.to_int
        |> Option.value ~default:0
      in
      {
        hit_ratio =
          (if hits + misses = 0 then 0.0
           else float_of_int hits /. float_of_int (hits + misses));
        simulations = counter "serve.simulations";
        rejected =
          counter "serve.rejected.queue_full"
          + counter "serve.rejected.timeout"
          + counter "serve.rejected.check_failed"
          + counter "serve.errors";
        queue_depth_max = depth;
      }

(* ---- the serve-mixed request mix --------------------------------- *)

let mix_workloads = [ "gzip-1"; "mcf"; "swim"; "vpr-1" ]
let mix_policies = [ Conf.Op; Conf.Vc { virtual_clusters = 2 } ]
let mix_uops = 4_000

(* A batch of 8: each workload under op and vc2 on one trace seed, so
   every batch costs about the same and pairs op with vc2. *)
let batch_of rng =
  List.concat_map
    (fun workload ->
      let seed = Random.State.bits rng in
      List.map
        (fun policy ->
          Request.make ~workload ~clusters:2 ~policy ~uops:mix_uops ~seed ())
        mix_policies)
    mix_workloads

type batch = Hot | Fresh of Request.t list

type mix = { rng : Random.State.t; hot : Request.t list; mutable pending : batch list }

(* Every round of four batches holds three hot and one fresh batch, the
   fresh one at a seeded position: a fixed share keeps the batch mix,
   and with it p50 (a hot batch) and p90 (a fresh batch), the same on
   every seed. *)
let mix ~seed =
  let rng = Random.State.make [| seed; 0x5e12e |] in
  let hot = batch_of rng in
  { rng; hot; pending = [] }

let next m =
  (match m.pending with
  | [] ->
      let k = Random.State.int m.rng 4 in
      m.pending <-
        List.init 4 (fun i -> if i = k then Fresh (batch_of m.rng) else Hot)
  | _ -> ());
  match m.pending with
  | b :: rest ->
      m.pending <- rest;
      b
  | [] -> assert false

let requests m = function Hot -> m.hot | Fresh rs -> rs
