(** Framed newline-JSON wire protocol of the simulation service.

    One JSON document per line, both directions. A client connects to
    the Unix-domain socket, writes any number of command lines, shuts
    down its write side, and reads one response line per command (in
    command order) until EOF. Delivery metadata — request id, deadline
    — lives in the envelope, {b outside} {!Request.t}, so it never
    perturbs the content hash.

    Commands:
    {v
    {"op":"simulate","id":7,"deadline_ms":250.0,"request":{...}}
    {"op":"stats"}
    {"op":"metrics"}
    {"op":"ping"}
    {"op":"shutdown"}
    v}

    Responses:
    {v
    {"id":7,"status":"ok","hash":"<16 hex>","cached":false,"result":{...}}
    {"id":7,"status":"rejected","reason":"queue_full"|"timeout"}
    {"id":7,"status":"rejected","reason":"check_failed","message":"..."}
    {"id":7,"status":"error","message":"..."}
    {"status":"ok","stats":{"counters":{...},"histograms":{...}}}
    {"status":"ok","metrics":"# TYPE serve_requests counter\n..."}
    {"status":"ok","pong":true}
    {"status":"ok","bye":true}
    v} *)

type command =
  | Simulate of { id : int; deadline_ms : float option; request : Request.t }
      (** [deadline_ms] is relative to arrival at the server; a
          non-positive value is already expired. [None] = no deadline. *)
  | Stats  (** snapshot of the service counter registry *)
  | Metrics
      (** Prometheus-style text exposition of the same registry (see
          {!Clusteer_obs.Expo}) — a live scrape of a running server *)
  | Ping
  | Shutdown  (** finish this connection's batch, then stop serving *)

type reject_reason =
  | Queue_full
  | Timeout
  | Check_failed of string
      (** the request decoded but failed static validation (see
          {!Validate}); the payload is a one-line explanation *)

type response =
  | Result of { id : int; hash : string; cached : bool; result : Clusteer_obs.Json.t }
  | Rejected of { id : int; reason : reject_reason }
  | Error_reply of { id : int; message : string }
  | Stats_reply of Clusteer_obs.Json.t
  | Metrics_reply of string
      (** the exposition document, carried as one JSON string *)
  | Pong
  | Bye

val reject_reason_name : reject_reason -> string
(** ["queue_full"] / ["timeout"] / ["check_failed"]. *)

val encode_command : command -> string
(** One line, no trailing newline. [Simulate] embeds the request's
    canonical encoding. *)

val parse_command : string -> (command, string) result

val encode_response : response -> string
val parse_response : string -> (response, string) result

val read_lines : in_channel -> string list
(** Every line up to end of input: one side's half of an exchange. *)

val encode_result_line :
  id:int -> hash:string -> cached:bool -> result:string -> string
(** Like {!encode_response} for [Result], but splices [result] — an
    already-serialized JSON document — verbatim. The server answers
    cache hits through this, so a replayed result is byte-identical to
    the run that produced it (no parse/re-encode round trip). *)
