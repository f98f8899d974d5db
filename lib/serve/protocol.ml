module Json = Clusteer_obs.Json

type command =
  | Simulate of { id : int; deadline_ms : float option; request : Request.t }
  | Stats
  | Metrics
  | Ping
  | Shutdown

type reject_reason = Queue_full | Timeout | Check_failed of string

type response =
  | Result of { id : int; hash : string; cached : bool; result : Json.t }
  | Rejected of { id : int; reason : reject_reason }
  | Error_reply of { id : int; message : string }
  | Stats_reply of Json.t
  | Metrics_reply of string
  | Pong
  | Bye

let reject_reason_name = function
  | Queue_full -> "queue_full"
  | Timeout -> "timeout"
  | Check_failed _ -> "check_failed"

(* Deadlines are delivery metadata, not request content; they are the
   one place the wire format carries a decimal float. Encode with
   enough digits to round-trip ms-scale values exactly for practical
   purposes; nothing hashes these bytes. *)
let deadline_json = function
  | None -> Json.Null
  | Some ms -> Json.Float ms

let encode_command = function
  | Simulate { id; deadline_ms; request } ->
      Json.to_string
        (Json.Obj
           [
             ("op", Json.Str "simulate");
             ("id", Json.Int id);
             ("deadline_ms", deadline_json deadline_ms);
             ("request", Request.canonical request);
           ])
  | Stats -> {|{"op":"stats"}|}
  | Metrics -> {|{"op":"metrics"}|}
  | Ping -> {|{"op":"ping"}|}
  | Shutdown -> {|{"op":"shutdown"}|}

let ( let* ) = Result.bind

let read_lines ic =
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  go []

let parse_command line =
  let* doc = Json.of_string line in
  match Json.member "op" doc with
  | Some (Json.Str "simulate") ->
      let id =
        Option.value ~default:0 (Option.bind (Json.member "id" doc) Json.to_int)
      in
      let deadline_ms =
        Option.bind (Json.member "deadline_ms" doc) Json.to_float
      in
      let* request =
        match Json.member "request" doc with
        | Some r -> Request.of_json r
        | None -> Error "simulate: missing request"
      in
      Ok (Simulate { id; deadline_ms; request })
  | Some (Json.Str "stats") -> Ok Stats
  | Some (Json.Str "metrics") -> Ok Metrics
  | Some (Json.Str "ping") -> Ok Ping
  | Some (Json.Str "shutdown") -> Ok Shutdown
  | Some (Json.Str op) -> Error (Printf.sprintf "unknown op %S" op)
  | _ -> Error "missing op field"

let encode_result_line ~id ~hash ~cached ~result =
  Printf.sprintf {|{"id":%d,"status":"ok","hash":%s,"cached":%b,"result":%s}|}
    id
    (Json.to_string (Json.Str hash))
    cached result

let encode_response = function
  | Result { id; hash; cached; result } ->
      encode_result_line ~id ~hash ~cached ~result:(Json.to_string result)
  | Rejected { id; reason } ->
      Json.to_string
        (Json.Obj
           ([
              ("id", Json.Int id);
              ("status", Json.Str "rejected");
              ("reason", Json.Str (reject_reason_name reason));
            ]
           @
           match reason with
           | Check_failed message -> [ ("message", Json.Str message) ]
           | Queue_full | Timeout -> []))
  | Error_reply { id; message } ->
      Json.to_string
        (Json.Obj
           [
             ("id", Json.Int id);
             ("status", Json.Str "error");
             ("message", Json.Str message);
           ])
  | Stats_reply stats ->
      Json.to_string
        (Json.Obj [ ("status", Json.Str "ok"); ("stats", stats) ])
  | Metrics_reply text ->
      (* The exposition text rides as one JSON string — RFC 8259
         escaping keeps the newline-JSON framing intact. *)
      Json.to_string
        (Json.Obj [ ("status", Json.Str "ok"); ("metrics", Json.Str text) ])
  | Pong -> {|{"status":"ok","pong":true}|}
  | Bye -> {|{"status":"ok","bye":true}|}

let parse_response line =
  let* doc = Json.of_string line in
  let id =
    Option.value ~default:0 (Option.bind (Json.member "id" doc) Json.to_int)
  in
  let str key ~default =
    Option.value ~default (Option.bind (Json.member key doc) Json.to_str)
  in
  match str "status" ~default:"" with
  | "ok" -> (
      match Json.member "result" doc with
      | Some result ->
          let cached =
            Option.value ~default:false
              (Option.bind (Json.member "cached" doc) Json.to_bool)
          in
          Ok (Result { id; hash = str "hash" ~default:""; cached; result })
      | None -> (
          match Json.member "stats" doc with
          | Some stats -> Ok (Stats_reply stats)
          | None -> (
              match Option.bind (Json.member "metrics" doc) Json.to_str with
              | Some text -> Ok (Metrics_reply text)
              | None ->
                  if Json.member "pong" doc <> None then Ok Pong
                  else if Json.member "bye" doc <> None then Ok Bye
                  else Error "ok response without payload")))
  | "rejected" -> (
      match str "reason" ~default:"" with
      | "queue_full" -> Ok (Rejected { id; reason = Queue_full })
      | "timeout" -> Ok (Rejected { id; reason = Timeout })
      | "check_failed" ->
          let message = str "message" ~default:"request failed validation" in
          Ok (Rejected { id; reason = Check_failed message })
      | _ -> Error "rejected response without a known reason")
  | "error" ->
      Ok (Error_reply { id; message = str "message" ~default:"unknown error" })
  | _ -> Error "missing status field"
