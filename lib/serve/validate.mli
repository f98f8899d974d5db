(** Analyzer-backed admission validation.

    Before the server queues a cache-miss simulation it runs the
    [lib/analysis] static verifier over the target [csteer check]
    builds ({!Clusteer_harness.Check_target.make}) for the program the
    request's phase runs. A request that would simulate garbage
    (or crash a compiler pass) is rejected up front with
    [check_failed] instead of occupying a worker. The gate is strict:
    warnings reject too (e.g. [VC010], a [vcN] policy asking for more
    virtual clusters than the workload has static micro-ops).

    Requests {!Request.resolve} rejects are the server's to answer with
    an [Error_reply]; the validator accepts them unexamined.

    Verdicts are memoized per (workload, phase, policy, clusters,
    overrides): the program and its annotation are a pure function of
    those fields. *)

val check : Request.t -> (unit, string) result
(** [Error] carries a one-line explanation: the first (most severe)
    diagnostic, plus the error count. *)

val install : unit -> unit
(** Point {!Request.check_hook} at {!check}. Idempotent. *)
