(** Trace-based property checking.

    Every run of the simulator produces a {!Ics_sim.Trace.t}; this module
    replays a trace against the formal specifications of §2 of the paper
    and reports violations with enough detail to debug.  Checks are
    end-of-run (the "eventually" of liveness properties is interpreted as
    "by the quiescent end of the run", so liveness checks are only
    meaningful for runs that reached quiescence).

    Checked abstractions:
    - {e reliable broadcast}: Validity, Uniform integrity, Agreement;
    - {e uniform reliable broadcast}: the above plus Uniform agreement;
    - {e consensus / indirect consensus}: Uniform integrity, Uniform
      agreement, Uniform validity, Termination, and the {b No loss}
      property (every decided identifier is eventually held by some
      correct process — approximated on traces as: some correct process
      eventually rdelivers it);
    - {e atomic broadcast}: Validity, Uniform integrity, Uniform
      agreement, Uniform total order.

    Cost: {!Run.of_trace} makes the one indexing pass over the trace
    (per-process sequences and first-occurrence tables, including which
    replicas applied each command); each property is then one O(E log E)
    pass in the trace length E over those indexes, with hash or set
    lookups and no per-element list scans.  The one exception is
    {!check_causal_order}, which walks every message's causal-predecessor
    list and so costs the size of the happens-before relation it checks. *)

module Pid = Ics_sim.Pid
module Time = Ics_sim.Time
module Trace = Ics_sim.Trace
module Msg_id = Ics_sim.Msg_id

type violation = {
  property : string;  (** e.g. ["abcast.validity"] *)
  culprit : Pid.t option;
  detail : string;
}

val pp_violation : Format.formatter -> violation -> unit

type verdict = { violations : violation list; checked : string list }

val ok : verdict -> bool
val pp_verdict : Format.formatter -> verdict -> unit

val merge : verdict list -> verdict
(** Concatenate violations and checked-property lists. *)

(** The crash/correctness view extracted from a trace. *)
module Run : sig
  type t

  val of_trace : Trace.t -> n:int -> t
  val n : t -> int
  val correct : t -> Pid.t list
  (** Processes with no [Crash] event in the trace. *)

  val crashed : t -> Pid.t list
  val crash_time : t -> Pid.t -> Time.t option

  val exit_time : t -> Pid.t -> Time.t option
  (** Clean barrier exit ([Trace.Exit]), if any: the process stayed
      correct but left the run at this time, so termination obligations
      stop accruing for it past this point. *)

  val abroadcasts : t -> (Pid.t * Msg_id.t * Time.t) list
  val adeliveries : t -> Pid.t -> Msg_id.t list
  (** Identifiers in delivery order at one process. *)

  val rdeliveries : t -> Pid.t -> Msg_id.t list
  val decisions : t -> (Pid.t * int * Msg_id.t list) list

  val rbroadcasts : t -> (Pid.t * Msg_id.t) list
  (** Broadcast-layer send events, chronological. *)

  val local_events : t -> Pid.t -> [ `Bcast of Msg_id.t | `Deliv of Msg_id.t ] list
  (** One process's broadcast-layer events in local order. *)

  val is_correct : t -> Pid.t -> bool

  val app_submits : t -> (Pid.t * int * int) list
  (** Client commands submitted ([App_submit]), chronological; the pid is
      the submitting client's home replica.  First attempts only —
      retries reuse the identity. *)

  val app_applied : t -> Pid.t -> (int * int) list
  (** Commands that took effect at one replica, in application order
      (duplicates dropped by the machine never appear here). *)

  val app_hashes : t -> (Pid.t * int * int64) list
  (** State-hash events: (replica, applied cursor, canonical hash). *)
end

val check_reliable_broadcast : Run.t -> verdict
(** Validity (a correct broadcaster delivers its own message), Uniform
    integrity (at most once, only if broadcast), Agreement (a delivery by a
    correct process implies delivery by all correct processes). *)

val check_uniform_broadcast : Run.t -> verdict
(** As above with {e uniform} agreement: any delivery (even by a process
    that later crashed) implies delivery by all correct processes. *)

val check_consensus : Run.t -> verdict
(** Per instance: Uniform integrity (one decision per process), Uniform
    agreement (all decisions equal), Uniform validity (the decision was
    proposed, id-wise: every decided identifier appeared in some
    proposal), Termination (every correct process that proposed or that
    saw any proposal decides). *)

val check_no_loss : ?strict:bool -> Run.t -> verdict
(** The indirect-consensus No-loss property, §2.3.

    Default (eventual) reading: every identifier in any decision is
    eventually rdelivered (payload held) by at least one correct process.

    With [~strict:true], the paper's exact statement is checked: {e at the
    time of the first decision} on a value, some correct process already
    held every payload — the v-stability the algorithms establish before
    deciding (§3.1).  The correct indirect algorithms satisfy the strict
    reading; a stack that merely repairs payloads after the fact would
    pass the eventual check and fail the strict one. *)

val check_fifo_order : Run.t -> verdict
(** FIFO broadcast order: each process delivers any origin's messages as a
    prefix of that origin's broadcast order. *)

val check_causal_order : Run.t -> verdict
(** Causal broadcast order: if [m1] was broadcast or delivered at [m2]'s
    origin before [m2] was broadcast, every process delivers [m1] before
    [m2] (and never [m2] without [m1]).  Implies {!check_fifo_order}. *)

val check_atomic_broadcast : Run.t -> verdict
(** Validity (correct broadcasters' messages are delivered by all correct
    processes), Uniform integrity (each delivery happens at most once and
    only for broadcast messages), Uniform agreement (any process's
    delivery is eventually delivered by all correct processes), Uniform
    total order (all delivery sequences are prefix-compatible, crashed
    processes included). *)

val check_all_abcast : Run.t -> verdict
(** Union of {!check_atomic_broadcast}, {!check_consensus} and
    {!check_no_loss} in both readings (eventual and strict). *)

val check_app : Run.t -> verdict
(** The hosted application's semantic properties:

    - [app.probes] — the state machine's invariant probes (conservation
      of funds, read-your-writes, gap, cas) never fired;
    - [app.dedup] — no command took effect twice at a replica
      (exactly-once despite client retries);
    - [app.order] — each client's commands took effect in request order;
    - [app.hash-agreement] — replicas at the same applied cursor report
      the same canonical state hash, across backends;
    - [app.progress] — a command submitted by a correct process takes
      effect at every correct replica (crashed submitters excused; a
      replica that exited before the command first took effect anywhere
      is excused).  This is the {e semantic} failure signal: a faulty
      ordering stack that merely stalls — safe but not live — fails here
      even when every abstract abcast property still holds. *)
