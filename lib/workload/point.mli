(** One run of one workload, on the simulator or on a live cluster.

    A point is a {!Ics_runtime.Node.config}: profile (stack shape and
    workload), seed, fault plan, retransmission flag, chaos-schedule flag
    and session ramp.  The simulator runs it on one engine where every
    pid originates its share of {!Ics_core.Schedule}; the live backend
    forks an {!Ics_runtime.Cluster} whose nodes each originate their
    own.  Both backends fill the one {!outcome} record and judge the
    trace with the same checker battery — the abcast battery, plus the
    application battery when the profile hosts the KV machine.

    Timing is the only backend-specific part of a profile.  A simulated
    run starts its workload at [warmup_ms] and stops at [deadline_ms]
    (virtual ms); a live profile comes from {!live}. *)

module Stats = Ics_prelude.Stats
module Checker = Ics_checker.Checker
module Stack = Ics_core.Stack
module Abcast = Ics_core.Abcast
module Profile = Ics_core.Profile
module Node = Ics_runtime.Node

type sim = {
  setup : Stack.setup;  (** network and host model *)
  oracle_ms : float;  (** crash-detection delay of the oracle detector *)
}

type backend =
  | Sim of sim  (** the deterministic simulator *)
  | Live  (** a forked loopback-TCP cluster *)

val lan : sim
(** Setup 2 (1 Gb/s switched, P4 hosts), 200 ms oracle. *)

type outcome = {
  verdict : Checker.verdict;
  completed : bool;
      (** every node reached the workload's barrier: sim — every replica
          applied the whole workload and its sessions finished (service),
          or delivered {!expected} messages; live — every node exited
          through the all-done barrier *)
  quiescent : bool;
      (** the run stopped by itself: sim — the event queue drained before
          the horizon; live — every node exited through the barrier or its
          deadline, none died or was killed *)
  expected : int;  (** deliveries (service: applied commands) per node *)
  throughput : float;  (** distinct messages (commands) ordered per second *)
  latency : Stats.summary;  (** abroadcast -> adelivery, ms *)
  app_latency : Stats.summary;
      (** client-visible: submit -> applied at the client's home, ms *)
  app_hash : (int * int64) option;  (** deepest (applied cursor, state hash) *)
  util : float;
      (** busiest resource's utilization over the arrival window — sim
          {!open_loop} only, NaN elsewhere *)
  faults : (string * int) list;  (** nemesis counters, summed over nodes *)
  retx : (string * int) list;  (** retransmission counters; [[]] without *)
  trace : Ics_sim.Trace.t option;  (** the simulated trace; [None] live *)
}

val ok : outcome -> bool
(** Checker verdict clean and {!outcome.completed}. *)

val digest : Ics_sim.Trace.t -> string
(** Hex digest of the rendered trace. *)

val fingerprint : outcome -> string
(** {!digest} of the simulated trace — the replay witness; [""] live. *)

val hash_match : outcome -> outcome -> bool
(** Both points {!ok}, and both landed on the same state hash at the
    full cursor — the sim-vs-live agreement gate. *)

val live : run_ms:float -> Profile.t -> Profile.t
(** The live timing of a profile: the workload starts after a 400 ms
    warm-up in which the nodes dial their peers, and the deadline is
    [run_ms] later. *)

val run : backend -> Node.config -> outcome
(** One run.  [self] is ignored.  On [Sim] a non-empty plan wraps the
    setup's network in the nemesis (seeded by [plan_seed], shifted past
    [warmup_ms]) under the retransmission channel when [retransmit], as
    a live node does on its wire.
    @raise Failure on [Live] when {!Ics_runtime.Cluster.supported} is
    false — callers check it first. *)

val replay_check : sim -> Node.config -> (string, string * string) result
(** Run the point twice on the simulator; [Ok fingerprint] iff both
    traces are bit-identical, [Error (first, second)] otherwise. *)

val fixed_rate :
  backend -> offered:float -> duration_ms:float -> Profile.t -> Profile.t
(** The fixed-gap cell at [offered] msg/s cluster-wide: every node
    broadcasts its share at even gaps for [duration_ms], then the run
    drains for 10 s.  Sim: the workload starts at 10 ms. *)

val open_loop :
  backend -> Node.config -> offered:float -> duration_ms:float -> outcome
(** One saturation point at [offered] msg/s cluster-wide, checker-gated.
    Sim: Poisson arrivals through {!Experiment.run}, measured past a
    warm-up of a quarter of the run (at most 1 s); [throughput] counts
    the messages of that window.  Live: the {!fixed_rate} cell. *)

val service :
  ?seed:int64 ->
  ?batching:Abcast.batching ->
  ?hash_every:int ->
  ?ramp_ms:float ->
  ?horizon_ms:float ->
  backend ->
  n:int ->
  clients:int ->
  requests:int ->
  Node.config
(** The closed-loop service cell: [clients] sessions of [requests]
    KV/ledger commands each, 32 B bodies, app seed 42, state hash every
    [hash_every] applies (default 1024), 500 ms client retry.  Sim:
    sessions start at 10 ms, staggered over [ramp_ms] (default 1 s), and
    the run stops at [horizon_ms] (default 120 s).  Live: a 200 ms ramp
    and a 20 s deadline after the {!live} warm-up. *)
