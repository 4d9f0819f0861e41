(** The workload a run drives, shared verbatim by both backends.

    {!start} installs the application hosts of the originating pids and
    schedules the broadcasts (or client sessions) they originate.  A
    live node passes [[self]]; the simulator passes every pid on its one
    engine.  Slots are scheduled slot-major, pid-minor, so equal-time
    slots keep pid order on either backend. *)

type kind =
  | Fixed_gap
      (** every origin A-broadcasts [count] messages of [body_bytes],
          [gap_ms] apart, from [warmup_ms] *)
  | Chaos
      (** the chaos sweep's seeded round-robin schedule: [count] slots in
          total starting 1 ms after [warmup_ms]; with the app hosted, slot
          [i] is the one-request client [i] ({!App_host.Ride}) *)
  | Service
      (** closed-loop client sessions ({!App_host.Service}) start at
          [warmup_ms], staggered over the ramp *)

val kind : chaos:bool -> Profile.t -> kind
(** [Chaos] when [chaos]; otherwise [Service] when the profile hosts the
    app, [Fixed_gap] when it does not. *)

val expected : kind -> Profile.t -> int
(** What each node waits for before it is done: A-deliveries ([count]
    for [Chaos], [count * n] for [Fixed_gap]) or, for [Service], applied
    commands ([clients * requests]; retries make raw deliveries
    overshoot). *)

val start :
  Ics_sim.Engine.t ->
  Ics_net.Transport.t ->
  Abcast.t ->
  Profile.t ->
  kind ->
  seed:int64 ->
  ramp_ms:float ->
  srcs:Ics_sim.Pid.t list ->
  (Ics_sim.Pid.t * App_host.t) list
(** Install one {!App_host} per pid of [srcs] when the profile hosts the
    app, then schedule the workload those pids originate.  [seed] drives
    the [Chaos] spacing; [ramp_ms] staggers [Service] session starts.
    Returns the hosts, in [srcs] order ([[]] without an app). *)
