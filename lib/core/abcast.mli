(** Atomic broadcast by reduction to (indirect) consensus — Algorithm 1.

    To A-broadcast a message [m], [m] is handed to the broadcast substrate
    (reliable or uniform reliable broadcast).  Whenever a process holds
    identifiers that have been broadcast-delivered but not yet ordered, it
    proposes that identifier set into the next consensus instance [k]; the
    instance's decision — a set of identifiers — is linearized in the
    deterministic {!Ics_net.Msg_id.compare} order and appended to the
    process's ordered sequence.  A message is A-delivered once its
    identifier reaches the head of that sequence {e and} its payload has
    been broadcast-delivered (Algorithm 1 line 23).

    The [ordering] mode selects what consensus runs on:
    - {!Consensus_on_messages}: the original reduction of Chandra & Toueg —
      proposals carry full payloads, so consensus traffic grows with
      message size (the slow baseline of Figure 1);
    - {!Consensus_on_ids}: unmodified consensus on bare identifiers.
      {b Correct only above uniform reliable broadcast.}  Above plain
      reliable broadcast this is the faulty legacy-stack configuration of
      §2.2: a decided identifier's payload can die with its origin and
      Validity is violated (every process blocks on the lost head);
    - {!Indirect_consensus}: the paper's contribution — consensus on
      identifiers with the [rcv] guard, whose No-loss property guarantees
      some correct process holds every decided payload.

    Deviations from the paper's pseudo-code, both required by the
    event-driven setting and both order-preserving:
    - {e join}: a process receiving instance-[k] traffic before proposing
      joins [k] with its current unordered set (possibly empty) so quorums
      exist; Algorithm 1's [wait until decide] loop is the event-driven
      [applied+1] cursor here.
    - {e dedup on apply}: because a joiner's proposal for [k+1] can race
      the decision of [k], an identifier may appear in two decisions; each
      process deterministically skips identifiers it has already ordered,
      so all sequences remain equal. *)

module Pid = Ics_sim.Pid
module Time = Ics_sim.Time
module Msg_id = Ics_net.Msg_id
module App_msg = Ics_net.App_msg
module Transport = Ics_net.Transport
module Broadcast_intf = Ics_broadcast.Broadcast_intf
module Consensus_intf = Ics_consensus.Consensus_intf
module Proposal = Ics_consensus.Proposal

type ordering = Consensus_on_messages | Consensus_on_ids | Indirect_consensus

type batching = {
  batch : int;
      (** fresh ids (r-delivered, not yet ordered, not riding one of
          this process's open proposals) that trigger a proposal.
          Unbatched (batch=1, pipeline=1) a proposal carries every fresh
          id; otherwise it carries at most [batch x 8], so a backlog
          drains in bounded bites over several instances. *)
  pipeline : int;
      (** instance slots [applied+1 .. applied+pipeline] that may run
          concurrently.  Decisions still commit strictly in instance
          order, so delivery order stays deterministic. *)
  flush_ms : float;
      (** one-shot flush timer armed (via {!Ics_net.Env.t}[.schedule], so
          it is backend-neutral) when fresh ids sit below [batch]; a
          timer that would land past the run horizon flushes immediately
          instead, keeping faulted runs quiescent. *)
}

val no_batching : batching
(** [{batch = 1; pipeline = 1; flush_ms = 2.0}] — the seed behaviour:
    one instance at a time, proposed the moment an id shows up, no timer
    ever armed.  Event-for-event identical to the pre-batching code. *)

type t

val create :
  ?batching:batching ->
  Transport.t ->
  ordering:ordering ->
  make_broadcast:(deliver:Broadcast_intf.deliver -> Broadcast_intf.handle) ->
  make_consensus:
    (rcv:Consensus_intf.rcv option -> Consensus_intf.callbacks -> Consensus_intf.handle) ->
  deliver:(Pid.t -> App_msg.t -> unit) ->
  t
(** Wires the three layers together.  [make_consensus] receives the [rcv]
    function (the closure over every process's received-payload table) only
    in {!Indirect_consensus} mode.  [batching] defaults to {!no_batching}. *)

val abroadcast : ?blob:int64 -> t -> src:Pid.t -> body_bytes:int -> App_msg.t
(** Invoke atomic broadcast at process [src] with a fresh message of the
    given payload size; returns the message (whose [id] is unique).
    No-op apart from id allocation if [src] has crashed. *)

val delivered_sequence : t -> Pid.t -> Msg_id.t list
(** All identifiers A-delivered by this process so far, oldest first. *)

val unordered_count : t -> Pid.t -> int
(** Size of the process's currently unordered set (for diagnostics). *)

val blocked_head : t -> Pid.t -> Msg_id.t option
(** The identifier this process is stuck on: ordered at the head but with
    payload still missing.  [None] when nothing is blocked.  A permanently
    blocked head is the §2.2 Validity violation in the flesh. *)

val holds : t -> Pid.t -> Msg_id.t -> bool
(** Whether the process holds the payload for [id] — the [rcv] substrate. *)

val batching : t -> batching
val broadcast_name : t -> string
val consensus_name : t -> string
