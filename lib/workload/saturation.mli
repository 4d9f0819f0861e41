(** Knee policy for offered-load saturation curves ([ics_cli bench],
    [make saturation-smoke]).

    A curve is a list of {!point}s — one {!Point.open_loop} run per
    offered load, every one checker-gated.  {!knee} picks the fastest
    point that is still healthy, which is the saturation throughput a
    sweep reports. *)

type point = {
  offered : float;  (** target arrival rate, msg/s cluster-wide *)
  outcome : Point.outcome;
}

val p99_bound_ms : float
(** p99 latency above which a point counts as saturated (100 ms) — both
    backends drain their backlog, so achieved throughput tracks offered
    load even past capacity and the latency tail is the honest overload
    signal. *)

val healthy : point -> bool
(** {!Point.ok} (checker green, every node finished) and
    [p99 <= p99_bound_ms] (or no latency samples at all). *)

val knee : point list -> point option
(** The fastest {!healthy} point by achieved throughput; falls back to
    the fastest point overall when no point is healthy, [None] on an
    empty curve. *)
