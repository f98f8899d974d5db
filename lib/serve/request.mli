(** Canonical simulation requests and their content hash.

    A request pins everything a simulation's result depends on —
    workload profile (by name, plus optional profile overrides),
    simulation point, machine size, steering policy, measured budget,
    warmup and trace seed — and {b nothing else} (deadlines, ids and
    other delivery metadata live in the protocol envelope, so they
    never perturb the hash). Two requests that mean the same
    simulation are the same bytes:

    - fields are encoded in one fixed order ({!canonical_string});
    - the workload name is resolved to the profile's full name at
      construction (["mcf"] and ["181.mcf"] hash identically);
    - floats are encoded {e integer-exactly} as their IEEE-754 bit
      pattern ([f64:<16 hex digits>]), never as decimal text, so no
      formatting/parsing round-trip can split one value into two
      encodings;
    - absent optional fields encode as [null] (an explicit value equal
      to the default is a {e different} request by design — the
      default derivation may evolve);
    - {!of_json} rejects unknown fields, so a schema change cannot
      silently alias two distinct requests.

    The {!hash} of the canonical bytes (FNV-1a 64, 16 lowercase hex
    digits) is the key of the service's content-addressed result
    cache: PR 2's determinism guarantee makes equal hashes imply
    bit-identical results. *)

type overrides = {
  fp_ratio : float option;
  mem_ratio : float option;
  ilp : int option;
  footprint_kb : int option;
}
(** Optional knobs applied over the named SPEC profile before
    simulation-point derivation — the service-side door to scenarios
    the stock suite does not cover. *)

val no_overrides : overrides

type t = {
  workload : string;  (** full profile name (["181.mcf"]) or ["dot"] *)
  phase : int;  (** simulation-point index, from 0 *)
  clusters : int;
  policy : Clusteer.Configuration.t;
  uops : int;
  warmup : int option;  (** [None] = {!Clusteer_harness.Runner.default_warmup} *)
  seed : int option;  (** [None] = {!Clusteer_harness.Runner.trace_seed} *)
  overrides : overrides;
}

val make :
  workload:string ->
  ?phase:int ->
  ?clusters:int ->
  ?policy:Clusteer.Configuration.t ->
  ?uops:int ->
  ?warmup:int ->
  ?seed:int ->
  ?overrides:overrides ->
  unit ->
  t
(** Defaults: phase 0, 2 clusters, policy [vc2], 20,000 uops. A SPEC
    name becomes its profile's full name; any other is kept verbatim. *)

val resolve :
  t -> (Clusteer_uarch.Config.t * Clusteer_harness.Runner.stream, string) result
(** The machine and the unbuilt stream, through the harness resolver;
    overrides apply to a SPEC profile before its phases derive. Builds
    no program. [Error] is one line: unknown workload, phase or
    clusters out of range, an invalid override, or overrides on a
    kernel or adversarial name. *)

val check : t -> (unit, string) result
(** Run the installed admission check (default: accept everything).
    The server consults this before queuing a cache-miss simulation
    and answers [Error] with a [check_failed] rejection. *)

val check_hook : (t -> (unit, string) result) ref
(** Replaceable admission check; {!Validate.install} points it at the
    static analyzer. Exposed so tests can stub it. *)

val canonical : t -> Clusteer_obs.Json.t
(** The canonical encoding as a JSON tree (fixed field order). *)

val canonical_string : t -> string
(** Compact single-line rendering of {!canonical} — the exact bytes
    that are hashed and sent on the wire. *)

val hash : t -> string
(** FNV-1a 64 of {!canonical_string}, as 16 lowercase hex digits. *)

val of_json : Clusteer_obs.Json.t -> (t, string) result
(** Decode a request object. Accepts floats as plain JSON numbers or
    as [f64:] bit patterns (both canonicalize identically); rejects
    unknown fields, wrong types and non-positive [clusters]/[uops]. *)

val equal : t -> t -> bool
