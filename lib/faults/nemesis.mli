(** Composable, seeded fault injection over any network model.

    A {e plan} is a list of declarative fault clauses — probabilistic
    per-link drop/duplicate/delay, deterministic slowdown windows,
    symmetric partitions with scheduled heal, per-process isolation, and
    scheduled crashes.  {!apply} compiles a plan into a {!Model.t} wrapper
    around any base model: every message consults the plan, all random
    choices come from one RNG derived from [seed] (same seed + same plan +
    same run ⇒ bit-identical faults), every injected fault is recorded in
    the engine trace ({!Trace.Net_drop}, {!Trace.Net_dup},
    {!Trace.Net_delay}, {!Trace.Partition_start}/[_heal]) and counted in
    the returned {!Model.Fault_stats}.

    {!interposer} compiles the same plan into transport middleware for
    either backend.  Both planes share one clause scheduler and one
    per-message fate (partition cut, draws, drop/dup/delay, counters,
    trace records); they differ only in the RNG the fate draws from (one
    plan-order stream for {!apply}, per-link streams for {!interposer})
    and in the next hop (the base model, or the downstream middleware).
    {!apply} stays because the pinned simulator chaos fingerprints are
    defined by its single stream.

    The nemesis models a {e fair-lossy} environment: it may lose, duplicate,
    reorder (via random extra delay) and slow messages, but it never
    corrupts them and never forges them.  Layer it under {!Retransmit.wrap}
    (or {!Retransmit.install} under the interposer) to recover the
    quasi-reliable channels the protocol stack assumes. *)

module Engine = Ics_sim.Engine
module Time = Ics_sim.Time
module Pid = Ics_sim.Pid
module Model = Ics_net.Model
module Env = Ics_net.Env

(** {1 Plan grammar} *)

type window = { from_t : Time.t; until_t : Time.t }
(** Half-open activity interval [\[from_t, until_t)] in virtual time. *)

val always : window
val window : from_t:Time.t -> until_t:Time.t -> window
val in_window : window -> Time.t -> bool

type link = {
  l_src : Pid.t option;  (** [None] matches any sender *)
  l_dst : Pid.t option;  (** [None] matches any receiver *)
  l_layer : string option;  (** [None] matches any protocol layer *)
}
(** A link selector; unspecified fields are wildcards. *)

val any_link : link
val link_matches : link -> Ics_net.Message.t -> bool

type clause =
  | Drop of { link : link; prob : float; window : window }
      (** lose each matching message independently with probability [prob] *)
  | Duplicate of { link : link; prob : float; window : window }
      (** deliver each matching message twice with probability [prob] *)
  | Delay of { link : link; prob : float; max_extra : Time.t; window : window }
      (** add uniform extra latency in [\[0, max_extra)] with probability
          [prob] — the reordering fault, since other traffic overtakes *)
  | Slow of { link : link; extra : Time.t; window : window }
      (** add fixed extra latency to every matching message (degraded-link
          window) *)
  | Partition of { groups : Pid.t list list; window : window }
      (** cut every link between different groups for the window; the heal
          is the window's end.  Pids absent from all groups are unaffected
          (asymmetric partitions come from {!Isolate}) *)
  | Isolate of { pid : Pid.t; inbound : bool; outbound : bool; window : window }
      (** cut [pid]'s inbound and/or outbound links — [outbound]-only is an
          asymmetric partition: the victim hears everyone but nobody hears
          it *)
  | Crash of { pid : Pid.t; at : Time.t }
      (** schedule a crash-stop failure (requires [?engine] in {!apply}) *)

type plan = clause list

val pp_window : Format.formatter -> window -> unit
val pp_link : Format.formatter -> link -> unit
val pp_clause : Format.formatter -> clause -> unit
val pp_plan : Format.formatter -> plan -> unit

val plan_to_string : plan -> string
(** Compact one-line rendering, printed by the chaos sweep for replay. *)

val shift : plan -> by:Time.t -> plan
(** Shift every window and crash time later by [by] (open-ended windows
    stay open).  The live runtime uses this to move a plan authored in
    run-relative time past its warm-up/connect phase.
    @raise Invalid_argument on negative [by]. *)

(** {1 Applying a plan} *)

val apply :
  ?engine:Engine.t ->
  seed:int64 ->
  plan:plan ->
  base:Model.t ->
  unit ->
  Model.t * Model.Fault_stats.t
(** Wrap [base] with the plan's faults.  [engine] is needed to schedule
    [Crash] clauses and partition trace markers at build time; plans with
    only probabilistic clauses work without it (engineless bench
    harnesses).  Probabilistic clauses draw from a dedicated RNG seeded
    with [seed] in fixed plan order per message, so fault decisions are a
    deterministic function of (seed, plan, message sequence) and replays
    are bit-identical.  The returned stats record is also reachable
    through {!Model.fault_stats} on the wrapped model (and so through
    [Stack.fault_counters]). *)

val interposer :
  ?self:Pid.t ->
  env:Env.t ->
  seed:int64 ->
  plan:plan ->
  unit ->
  ((Ics_net.Message.t -> unit) -> Ics_net.Message.t -> unit) * Model.Fault_stats.t
(** Backend-neutral sibling of {!apply}: compile the plan into an outbound
    middleware for {!Ics_net.Transport.interpose}, drawing every random
    choice from a per-(src, dst) RNG stream derived from [seed].  Per-link
    streams are what make the two backends agree: the k-th message on a
    link sees the same drop/dup/delay decisions whether all links run in
    one simulated process or each live node only observes its own outbound
    links — so a seeded plan produces identical {!Model.Fault_stats}
    counters on both.  [self] scopes side effects for a live node: [Crash]
    clauses fire only for [self], and partition trace markers are emitted
    only by node 0 ([None] keeps whole-cluster behaviour for the sim
    backend).  Clause scheduling, trace recording and crash delivery all go
    through [env], never through a concrete engine. *)
