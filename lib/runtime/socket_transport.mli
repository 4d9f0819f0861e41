(** The live transport backend: localhost TCP mesh + ppoll(2) readiness
    loop.

    Wraps {!Ics_net.Transport.create_ext} with real sockets.  Node [i]
    dials every peer once and uses the dialed socket for outbound frames
    only; inbound frames arrive on sockets accepted from the peers'
    dials.  Frames are the {!Ics_codec.Codec} wire format, encoded
    straight into each peer's outbound {!Bq.t} (backpatched header, no
    per-frame staging buffer) and decoded in place from each
    connection's inbound queue; a malformed frame closes its connection
    (a corrupted TCP byte stream cannot be resynchronized) and is
    counted in {!stats}.

    The event loop ({!run}) keeps one persistent pollset for the whole
    run: readiness interest is flipped in place when a queue's occupancy
    changes — a peer's slot carries [POLLOUT] exactly while its outbound
    queue is nonempty — never rebuilt per iteration.  It drives the
    engine's timer queue from the real clock via
    {!Ics_sim.Engine.run_due}, pinning the engine horizon once to the
    run deadline so self-rearming timers (heartbeats) retire on their
    own.

    Timer contract: the loop sleeps in ppoll(2) with a microsecond
    deadline ({!wait_us}), so a timer never fires early and fires late
    only by the kernel's timer slack and CPU contention — not by a
    rounding up to whole milliseconds. *)

module Engine = Ics_sim.Engine
module Transport = Ics_net.Transport

(** The loop's byte queues are the codec plane's {!Ics_codec.Bq} — one
    shared buffer discipline from encoder to socket and socket to
    decoder. *)
module Bq = Ics_codec.Bq

type t

val create :
  engine:Engine.t ->
  clock:Clock.t ->
  self:int ->
  listen:Unix.file_descr ->
  peer_addrs:Unix.sockaddr array ->
  unit ->
  t
(** [listen] must already be bound and listening; it is switched to
    non-blocking.  Dials every [peer_addrs] entry except [self]'s
    (retrying briefly, so standalone nodes may start in any order).
    @raise Invalid_argument if [peer_addrs] doesn't have one entry per
    process. *)

val transport : t -> Transport.t
(** The [Ext]-backend transport protocol layers plug into. *)

val connected : t -> int
(** Number of peers with a live outbound connection. *)

val wait_us : now:float -> next_due:float option -> horizon:float -> int
(** The loop's ppoll timeout in microseconds at engine time [now] (ms):
    until the next timer [next_due] or the [horizon], whichever is
    nearer, capped at 50 ms.  Rounded up to the next microsecond, so a
    timer never fires early; an overdue timer or a passed horizon
    gives 0. *)

val run : t -> deadline:float -> stop:(unit -> bool) -> unit
(** Loop until the clock passes [deadline] (engine-time ms) or [stop]
    returns true and the outbound buffers have drained (with a short
    grace cap, so a dead peer cannot hold the node hostage). *)

val close : t -> unit

type stats = {
  frames_out : int;
  bytes_out : int;
  writes_out : int;
      (** write(2) calls that moved bytes; [frames_out / writes_out] is
          the outbound coalescing factor *)
  frames_in : int;
  bytes_in : int;
  decode_errors : int;
  polls : int;  (** ppoll(2) calls *)
  poll_timeouts : int;  (** ppoll(2) calls that returned with nothing ready *)
  timers_due : int;  (** loop entries that found a timer already due *)
  timer_late_us : int;
      (** summed lateness of the first due timer at each such entry;
          [timer_late_us / timers_due] is the mean *)
  timer_late_hist : int array;
      (** the same lateness bucketed by {!timer_late_bounds_us}: slot
          [i] counts entries late by at most the [i]th bound, the extra
          last slot the rest *)
}

val timer_late_bounds_us : int array
(** Upper bounds of the lateness histogram buckets, microseconds. *)

val stats : t -> stats

val stats_to_list : stats -> (string * int) list
(** Flat counters (histogram slots as [timer_late_le_<b>us] and
    [timer_late_gt_<b>us]) — the stats-file format, summable across
    nodes. *)

val late_quantile_us : (string * int) list -> float -> float option
(** [late_quantile_us kvs q]: upper bound (µs) of the lateness bucket
    holding the [q]-quantile of a {!stats_to_list} list, summed or not;
    [infinity] for the overflow bucket, [None] when no timer was due. *)
