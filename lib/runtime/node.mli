(** One live node: the full protocol stack over the socket transport.

    A node embodies exactly one pid of the [n]-process stack.  The same
    protocol code as the simulator runs unchanged: the engine is the
    timer heap, driven by the real clock; remote sends leave through the
    codec and the TCP mesh.

    Fault plane: when [plan] is non-empty the node compiles it into the
    backend-neutral {!Ics_faults.Nemesis.interposer} (scoped to this
    node's outbound links and its own crash clauses) and — unless
    [retransmit] is off — installs the wire retransmission channel
    ({!Ics_net.Retransmit.install}) outermost, so retries traverse the
    injected faults exactly as in the simulated chaos stack.

    Workload: the node starts its own share of the
    {!Ics_core.Schedule} the profile names — [count] fixed-gap
    broadcasts, the chaos sweep's seeded round-robin slots
    ([chaos_workload]), or the closed-loop sessions homed here when the
    app is hosted.  When a node has everything {!Ics_core.Schedule.expected}
    asks for, it announces [Done] on the ["ctl"] layer and exits once
    every peer has announced — or at [deadline_ms], or when a plan clause
    crashes its own pid. *)

module Profile = Ics_core.Profile
module Message = Ics_net.Message
module Nemesis = Ics_faults.Nemesis

type Message.payload += Done of int
(** Control-plane completion announcement (the sender's delivery count). *)

val register_codec : unit -> unit

type config = {
  self : int;
  profile : Profile.t;  (** shape + workload; [n] comes from here *)
  seed : int64;  (** cell seed; the chaos schedule derives from it *)
  plan : Nemesis.plan;
      (** run-relative fault plan; shifted past [warmup_ms] internally *)
  plan_seed : int64;
  retransmit : bool;  (** wire retransmission channel when a plan is set *)
  chaos_workload : bool;
      (** replicate the chaos sweep's round-robin schedule instead of the
          every-node-broadcasts-[count] workload *)
  ramp_ms : float;  (** closed-loop sessions start staggered over this *)
}

val default_workload : config
(** [Profile.default] shape and workload, no fault plan, 200 ms session
    ramp. *)

type result = {
  delivered : int;  (** A-deliveries at this node *)
  expected : int;
  clean_exit : bool;  (** finished via the all-done barrier, not the deadline *)
  net : Socket_transport.stats;
  gc : Gc.stat;  (** {!Gc.quick_stat} as the event loop exits *)
  faults : (string * int) list;
      (** this node's outbound-link fault counters; summed across a
          cluster they equal the one-simulation counters for the same
          (seed, plan) — the cross-backend parity invariant *)
  retx : (string * int) list;
  trace : Ics_sim.Trace.t;
}

val result_kv : result -> (string * int) list
(** Fault, retransmission, loop and GC counters as one flat list,
    prefixed ["fault."], ["retx."], ["net."]
    ({!Socket_transport.stats_to_list}) and ["gc."] ([minor_words],
    [top_heap_words]) — the stats-file format a {!Cluster} parent
    sums. *)

val run :
  epoch:float ->
  listen:Unix.file_descr ->
  peer_addrs:Unix.sockaddr array ->
  config ->
  result
(** Run to completion (barrier, deadline, or own-pid crash clause).
    [epoch] must be shared by the whole cluster — virtual time is ms
    since it.  [listen] must already be bound and listening.  The
    returned trace holds this node's own events (filter on [pid = self]
    before writing: the shared protocol code also books foreign-pid
    detector events). *)
