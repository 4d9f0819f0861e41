module Engine = Ics_sim.Engine
module Transport = Ics_net.Transport
module Message = Ics_net.Message
module Layer = Ics_net.Layer
module Codec = Ics_codec.Codec
module Prim = Ics_codec.Prim

(* Connection topology: node [i] dials every peer and uses the dialed
   socket for its outbound frames only; inbound frames arrive on sockets
   accepted from the peers' dials.  One-directional sockets mean a node
   never has to agree with a peer about which of two crossing connections
   to keep. *)

(* The loop's buffers are the shared byte queue from the codec plane:
   frames encode straight into a peer's outbound queue (backpatched
   header, no per-frame staging buffer) and sockets read straight into a
   connection's inbound queue, where frames decode in place.  The queue
   must never copy its whole contents per syscall — a descheduled node
   (five of them timeshare one core) accumulates megabytes of backlog,
   and an O(backlog) copy per 64 KB read turns the catch-up quadratic:
   the node falls further behind the longer it is behind, which is
   exactly the congestion collapse the saturation sweep exposes past the
   knee. *)
module Bq = Ics_codec.Bq

(* Persistent pollset over ppoll(2).  The fds/events/revents arrays live
   across loop iterations — readiness interest is flipped in place when
   a queue's occupancy changes, never rebuilt per iteration (the select
   loop this replaces re-assembled its fd lists on every pass).  Slots
   are compacted by swap-with-last; [reslot] tells the owner its new
   index so owner records can keep an O(1) handle on their slot. *)
module Poll = struct
  (* poll(2) event bits (Linux/BSD values; poll.h has used these
     everywhere that matters for two decades). *)
  let pollin = 0x001
  let pollout = 0x004
  let pollerr = 0x008
  let pollhup = 0x010
  let pollnval = 0x020

  external poll_fds :
    Unix.file_descr array -> int array -> int array -> int -> int -> int
    = "ics_poll_stub"

  type 'a t = {
    mutable fds : Unix.file_descr array;
    mutable events : int array;
    mutable revents : int array;
    mutable owners : 'a array;
    mutable n : int;
    dummy : 'a;
    reslot : 'a -> int -> unit;
  }

  let create ~dummy ~reslot =
    {
      fds = Array.make 8 Unix.stdin;
      events = Array.make 8 0;
      revents = Array.make 8 0;
      owners = Array.make 8 dummy;
      n = 0;
      dummy;
      reslot;
    }

  let grow t =
    let cap = Array.length t.fds in
    if t.n = cap then begin
      let ncap = 2 * cap in
      let nf = Array.make ncap Unix.stdin in
      let ne = Array.make ncap 0 in
      let nr = Array.make ncap 0 in
      let no = Array.make ncap t.dummy in
      Array.blit t.fds 0 nf 0 cap;
      Array.blit t.events 0 ne 0 cap;
      Array.blit t.revents 0 nr 0 cap;
      Array.blit t.owners 0 no 0 cap;
      t.fds <- nf;
      t.events <- ne;
      t.revents <- nr;
      t.owners <- no
    end

  let add t fd ~events owner =
    grow t;
    let slot = t.n in
    t.fds.(slot) <- fd;
    t.events.(slot) <- events;
    t.revents.(slot) <- 0;
    t.owners.(slot) <- owner;
    t.n <- slot + 1;
    t.reslot owner slot;
    slot

  let remove t slot =
    if slot < 0 || slot >= t.n then invalid_arg "Poll.remove: bad slot";
    let last = t.n - 1 in
    if slot <> last then begin
      t.fds.(slot) <- t.fds.(last);
      t.events.(slot) <- t.events.(last);
      t.revents.(slot) <- t.revents.(last);
      t.owners.(slot) <- t.owners.(last);
      t.reslot t.owners.(slot) slot
    end;
    t.owners.(last) <- t.dummy;
    t.n <- last

  let set_events t slot ev =
    if slot < 0 || slot >= t.n then invalid_arg "Poll.set_events: bad slot";
    t.events.(slot) <- ev

  (* Negative return = transient failure (EINTR): report zero ready and
     let the loop re-evaluate its timers, as the select loop did. *)
  let wait t ~timeout_us =
    let r = poll_fds t.fds t.events t.revents t.n timeout_us in
    if r < 0 then 0 else r

  (* Snapshot the ready owners before dispatching any of them: dispatch
     may close a connection, and the swap-with-last removal would
     otherwise make an index walk skip (or double-visit) slots.  Owners
     invalidated mid-dispatch are skipped by the dispatcher via their
     own liveness marker. *)
  let ready t =
    let acc = ref [] in
    for i = t.n - 1 downto 0 do
      if t.revents.(i) <> 0 then acc := (t.owners.(i), t.revents.(i)) :: !acc
    done;
    !acc
end

type peer = {
  mutable out_fd : Unix.file_descr option;
  out : Bq.t;
  mutable pslot : int;  (* pollset slot; -1 when out_fd = None *)
}

type conn = {
  fd : Unix.file_descr;
  in_q : Bq.t;
  mutable cslot : int;  (* pollset slot; -1 once closed *)
}

type owner = Nobody | Listen | Conn of conn | Peer of peer

type t = {
  engine : Engine.t;
  clock : Clock.t;
  self : int;
  n : int;
  listen : Unix.file_descr;
  peers : peer array;
  pollset : owner Poll.t;
  mutable conns : conn list;
  mutable transport : Transport.t option;
  mutable frames_out : int;
  mutable bytes_out : int;
  mutable writes_out : int;
  mutable frames_in : int;
  mutable bytes_in : int;
  mutable decode_errors : int;
  mutable polls : int;
  mutable poll_timeouts : int;
  mutable timers_due : int;
  mutable timer_late_us : int;
  timer_late_hist : int array;
}

let transport t = Option.get t.transport

let close_peer t peer =
  match peer.out_fd with
  | None -> ()
  | Some fd ->
      peer.out_fd <- None;
      if peer.pslot >= 0 then Poll.remove t.pollset peer.pslot;
      peer.pslot <- -1;
      Bq.clear peer.out;
      (try Unix.close fd with Unix.Unix_error _ -> ())

let close_conn t conn =
  t.conns <- List.filter (fun c -> c != conn) t.conns;
  if conn.cslot >= 0 then Poll.remove t.pollset conn.cslot;
  conn.cslot <- -1;
  try Unix.close conn.fd with Unix.Unix_error _ -> ()

let pending peer = Bq.length peer.out

let high_water = 256 * 1024

(* Readiness-interest invariant: a peer's slot carries POLLOUT exactly
   while its outbound queue is nonempty.  [emit] raises the flag on the
   empty->nonempty edge; the drain below lowers it on nonempty->empty.
   Everything else about the pollset is static per connection lifetime,
   so the loop never rebuilds interest sets. *)
let set_pollout t peer on =
  if peer.pslot >= 0 then
    Poll.set_events t.pollset peer.pslot (if on then Poll.pollout else 0)

(* Non-blocking drain of one peer's outbound queue.  Frames accumulate
   between poll iterations ([emit] does not flush), so one write here
   carries every frame queued since the last readiness burst — straight
   from the queue's storage, no copy. *)
let flush_peer t peer =
  match peer.out_fd with
  | None -> Bq.clear peer.out
  | Some fd -> (
      let q = peer.out in
      if Bq.length q > 0 then
        match Unix.write fd (Bq.unsafe_bytes q) (Bq.head q) (Bq.length q) with
        | written ->
            t.writes_out <- t.writes_out + 1;
            Bq.consume q written;
            if Bq.length q = 0 then set_pollout t peer false
        | exception Unix.Unix_error ((EWOULDBLOCK | EAGAIN | EINTR), _, _) -> ()
        | exception Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) ->
            close_peer t peer)

let emit t (msg : Message.t) =
  if msg.Message.dst >= 0 && msg.Message.dst < t.n && msg.Message.dst <> t.self then begin
    let peer = t.peers.(msg.Message.dst) in
    if peer.out_fd <> None then begin
      let before = Bq.length peer.out in
      (* Straight into the outbound queue: header reserved, body encoded,
         length+CRC backpatched — no per-frame staging buffer.  On an
         encoder exception the codec truncates the queue back, so a
         partial frame never reaches the wire. *)
      ignore
        (Codec.encode_frame peer.out ~src:msg.Message.src ~dst:msg.Message.dst
           ~layer:(Layer.name msg.Message.layer) msg.Message.payload
          : int);
      t.frames_out <- t.frames_out + 1;
      t.bytes_out <- t.bytes_out + (Bq.length peer.out - before);
      if before = 0 then set_pollout t peer true;
      (* Coalesce: leave the frame queued for the next readiness burst
         unless the queue has grown past the high-water mark (bounds
         memory if a peer stalls mid-burst). *)
      if pending peer > high_water then flush_peer t peer
    end
  end

(* Decode every complete frame queued on [conn] and re-enter it through
   the transport; a malformed frame kills the connection (a corrupted TCP
   byte stream cannot be resynchronized).  Decoding reads the queue's
   storage in place — [Bytes.unsafe_to_string] is sound here because the
   codec retains no reference into its input past the call — and only
   [limit] (the logical tail) bounds parsing, never the physical buffer,
   which holds stale bytes beyond it. *)
let drain_input t conn =
  let q = conn.in_q in
  let buf = Bytes.unsafe_to_string (Bq.unsafe_bytes q) in
  let limit = Bq.tail q in
  let pos = ref (Bq.head q) in
  let alive = ref true in
  while
    !alive
    && limit - !pos >= Codec.header_bytes
    &&
    match Codec.decode_header ~pos:!pos buf with
    | Error e ->
        t.decode_errors <- t.decode_errors + 1;
        Printf.eprintf "[node %d] frame header error: %s\n%!" t.self e;
        close_conn t conn;
        alive := false;
        false
    | Ok h when h.Codec.h_body_len > 16 * 1024 * 1024 ->
        t.decode_errors <- t.decode_errors + 1;
        Printf.eprintf "[node %d] frame body length %d exceeds cap\n%!" t.self
          h.Codec.h_body_len;
        close_conn t conn;
        alive := false;
        false
    | Ok h ->
        if limit - !pos - Codec.header_bytes < h.Codec.h_body_len then false
        else begin
          (match Codec.decode_body ~pos:(!pos + Codec.header_bytes) buf h with
          | Error e ->
              t.decode_errors <- t.decode_errors + 1;
              Printf.eprintf "[node %d] frame body error: %s\n%!" t.self e;
              close_conn t conn;
              alive := false
          | Ok payload ->
              t.frames_in <- t.frames_in + 1;
              t.bytes_in <- t.bytes_in + Codec.header_bytes + h.Codec.h_body_len;
              (* Re-pin the virtual clock per frame: a descheduled process
                 drains a multi-second backlog in one burst, and stamping
                 every resulting trace event with the loop iteration's
                 start time makes decisions appear to precede the
                 broadcasts they order (merged-trace causality breaks). *)
              Engine.advance t.engine ~upto:(Clock.now t.clock);
              let msg =
                {
                  Message.src = h.Codec.h_src;
                  dst = h.Codec.h_dst;
                  layer = Layer.unregistered h.Codec.h_layer;
                  payload;
                  body_bytes = h.Codec.h_body_len;
                  sent_at = Engine.now t.engine;
                }
              in
              Transport.inject (transport t) msg);
          !alive && (pos := !pos + Codec.header_bytes + h.Codec.h_body_len;
                     true)
        end
  do
    ()
  done;
  if !alive then Bq.consume q (!pos - Bq.head q)

let read_size = 65536

(* Read straight into the queue's tail — no intermediate chunk, no
   concatenation; whatever a burst leaves unparsed just stays queued. *)
let handle_readable t conn =
  let q = conn.in_q in
  Bq.ensure q read_size;
  match Unix.read conn.fd (Bq.unsafe_bytes q) (Bq.tail q) (Bq.tail_room q) with
  | 0 -> close_conn t conn
  | nread ->
      Bq.advance q nread;
      drain_input t conn
  | exception Unix.Unix_error ((EWOULDBLOCK | EAGAIN | EINTR), _, _) -> ()
  | exception Unix.Unix_error ((ECONNRESET | EBADF), _, _) -> close_conn t conn

let accept_ready t =
  let rec go () =
    match Unix.accept t.listen with
    | fd, _ ->
        Unix.set_nonblock fd;
        (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
        let conn = { fd; in_q = Bq.create read_size; cslot = -1 } in
        ignore (Poll.add t.pollset fd ~events:Poll.pollin (Conn conn) : int);
        t.conns <- conn :: t.conns;
        go ()
    | exception Unix.Unix_error ((EWOULDBLOCK | EAGAIN | EINTR), _, _) -> ()
  in
  go ()

let dial addr ~attempts ~retry_delay =
  let rec go k =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () ->
        (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
        Unix.set_nonblock fd;
        Some fd
    | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        if k + 1 >= attempts then (
          ignore e;
          None)
        else begin
          Unix.sleepf retry_delay;
          go (k + 1)
        end
  in
  go 0

(* Due-timer lateness histogram: slot [i] counts timers late by at most
   [timer_late_bounds_us.(i)], the last slot the rest. *)
let timer_late_bounds_us = [| 25; 50; 75; 100; 150; 200; 300; 500; 1000; 2000 |]

let note_late t late_us =
  t.timers_due <- t.timers_due + 1;
  t.timer_late_us <- t.timer_late_us + late_us;
  let nb = Array.length timer_late_bounds_us in
  let rec slot i = if i = nb || late_us <= timer_late_bounds_us.(i) then i else slot (i + 1) in
  let i = slot 0 in
  t.timer_late_hist.(i) <- t.timer_late_hist.(i) + 1

let create ~engine ~clock ~self ~listen ~peer_addrs () =
  let n = Engine.n engine in
  if Array.length peer_addrs <> n then
    invalid_arg "Socket_transport.create: peer_addrs size mismatch";
  (* A peer that exits early (deadline, plan-scheduled crash) closes its
     sockets while we may still be writing; without this the kernel kills
     us with SIGPIPE before [flush_peer]'s EPIPE handler can run. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  Unix.set_nonblock listen;
  let pollset =
    Poll.create ~dummy:Nobody ~reslot:(fun owner slot ->
        match owner with
        | Nobody | Listen -> ()  (* listen is slot 0 and never removed *)
        | Conn c -> c.cslot <- slot
        | Peer p -> p.pslot <- slot)
  in
  let t =
    {
      engine;
      clock;
      self;
      n;
      listen;
      peers = Array.init n (fun _ -> { out_fd = None; out = Bq.create 4096; pslot = -1 });
      pollset;
      conns = [];
      transport = None;
      frames_out = 0;
      bytes_out = 0;
      writes_out = 0;
      frames_in = 0;
      bytes_in = 0;
      decode_errors = 0;
      polls = 0;
      poll_timeouts = 0;
      timers_due = 0;
      timer_late_us = 0;
      timer_late_hist = Array.make (Array.length timer_late_bounds_us + 1) 0;
    }
  in
  ignore (Poll.add pollset listen ~events:Poll.pollin Listen : int);
  let transport = Transport.create_ext engine ~self ~emit:(fun msg -> emit t msg) () in
  (* Before any middleware exists: interposers capture the transport's env
     at install time, so the wall-clock variant must already be in place. *)
  Transport.set_env transport (Clock.env clock engine);
  t.transport <- Some transport;
  for p = 0 to n - 1 do
    if p <> self then begin
      (* The cluster parent pre-binds every listener before forking, so a
         dial normally succeeds on the first try; standalone nodes may
         start in any order and get the retry loop. *)
      let peer = t.peers.(p) in
      peer.out_fd <- dial peer_addrs.(p) ~attempts:100 ~retry_delay:0.05;
      match peer.out_fd with
      | Some fd ->
          (* Registered with no interest bits: POLLOUT is raised by the
             first queued byte, and poll still reports ERR/HUP on an idle
             slot, which is how a vanished peer is noticed. *)
          ignore (Poll.add pollset fd ~events:0 (Peer peer) : int)
      | None -> ()
    end
  done;
  t

let connected t =
  let up = ref 0 in
  Array.iteri (fun p peer -> if p <> t.self && peer.out_fd <> None then incr up) t.peers;
  !up

(* The loop's wait: until the next timer, the horizon, or 50 ms —
   whichever is nearest; the cap re-polls [stop] and the deadline on an
   idle node.  In whole microseconds, rounded up, so a timer never fires
   early; an overdue timer or a passed horizon gives 0. *)
let max_wait_ms = 50.0

let wait_us ~now ~next_due ~horizon =
  let until = match next_due with Some at -> Float.min at horizon | None -> horizon in
  let ms = Float.min max_wait_ms (Float.max 0.0 (until -. now)) in
  int_of_float (Float.ceil (ms *. 1000.0))

(* The live event loop: execute due engine events, then block in ppoll(2)
   until the next timer, inbound traffic, or writability of a clogged
   peer.  The engine's horizon is pinned once to [deadline] so that
   self-rearming timer loops (heartbeats) retire by themselves. *)
let run t ~deadline ~stop =
  Engine.set_horizon t.engine (Some deadline);
  let stopped_at = ref None in
  (* After [stop] turns true the node lingers for the full grace window —
     draining its output AND processing input.  Exiting as soon as the
     output is flushed would close the sockets while peers' last decide
     floods for trailing pipelined instances are still in flight; the
     linger absorbs them, so a cleanly-exited node has seen every decision
     reached before its barrier. *)
  let grace = 250.0 (* ms *) in
  let finished now =
    now >= deadline
    ||
    match !stopped_at with
    | None ->
        if stop () then stopped_at := Some now;
        false
    | Some t0 -> t0 +. grace <= now
  in
  let err_bits = Poll.pollerr lor Poll.pollhup lor Poll.pollnval in
  let dispatch (o, re) =
    match o with
    | Nobody -> ()
    | Listen -> accept_ready t
    | Conn conn ->
        (* cslot < 0: closed by an earlier dispatch in this same burst. *)
        if conn.cslot >= 0 then handle_readable t conn
    | Peer peer -> (
        match peer.out_fd with
        | None -> ()
        | Some _ ->
            if Bq.length peer.out > 0 then
              (* Writable (or erroring — the write surfaces it): one
                 coalesced write per readiness burst. *)
              flush_peer t peer
            else if re land err_bits <> 0 then
              (* ERR/HUP on an idle slot (interest 0): the peer is gone. *)
              close_peer t peer)
  in
  let rec loop () =
    let now = Clock.now t.clock in
    (match Engine.next_due t.engine with
    | Some at when at <= now -> note_late t (int_of_float ((now -. at) *. 1000.0))
    | _ -> ());
    Engine.run_due t.engine ~upto:now;
    let now = Clock.now t.clock in
    if not (finished now) then begin
      let horizon = match !stopped_at with Some t0 -> Float.min deadline (t0 +. grace) | None -> deadline in
      let timeout_us = wait_us ~now ~next_due:(Engine.next_due t.engine) ~horizon in
      let nready = Poll.wait t.pollset ~timeout_us in
      t.polls <- t.polls + 1;
      if nready > 0 then List.iter dispatch (Poll.ready t.pollset)
      else t.poll_timeouts <- t.poll_timeouts + 1;
      loop ()
    end
  in
  loop ()

let close t =
  Array.iter (close_peer t) t.peers;
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.conns;
  t.conns <- [];
  try Unix.close t.listen with Unix.Unix_error _ -> ()

type stats = {
  frames_out : int;
  bytes_out : int;
  writes_out : int;
  frames_in : int;
  bytes_in : int;
  decode_errors : int;
  polls : int;
  poll_timeouts : int;
  timers_due : int;
  timer_late_us : int;
  timer_late_hist : int array;
}

let stats (t : t) =
  {
    frames_out = t.frames_out;
    bytes_out = t.bytes_out;
    writes_out = t.writes_out;
    frames_in = t.frames_in;
    bytes_in = t.bytes_in;
    decode_errors = t.decode_errors;
    polls = t.polls;
    poll_timeouts = t.poll_timeouts;
    timers_due = t.timers_due;
    timer_late_us = t.timer_late_us;
    timer_late_hist = Array.copy t.timer_late_hist;
  }

let late_key i =
  if i < Array.length timer_late_bounds_us then
    Printf.sprintf "timer_late_le_%dus" timer_late_bounds_us.(i)
  else
    Printf.sprintf "timer_late_gt_%dus"
      timer_late_bounds_us.(Array.length timer_late_bounds_us - 1)

let stats_to_list (s : stats) =
  [
    ("frames_out", s.frames_out);
    ("bytes_out", s.bytes_out);
    ("writes_out", s.writes_out);
    ("frames_in", s.frames_in);
    ("bytes_in", s.bytes_in);
    ("decode_errors", s.decode_errors);
    ("polls", s.polls);
    ("poll_timeouts", s.poll_timeouts);
    ("timers_due", s.timers_due);
    ("timer_late_us", s.timer_late_us);
  ]
  @ Array.to_list (Array.mapi (fun i c -> (late_key i, c)) s.timer_late_hist)

(* The bucket holding the [q]-quantile: walk the cumulative counts until
   they cover [q] of the due timers. *)
let late_quantile_us kvs q =
  let count i = Option.value ~default:0 (List.assoc_opt (late_key i) kvs) in
  let slots = Array.length timer_late_bounds_us + 1 in
  let total = List.fold_left ( + ) 0 (List.init slots count) in
  if total = 0 then None
  else
    let need = Float.ceil (q *. float_of_int total) in
    let rec go i acc =
      let acc = acc + count i in
      if i = slots - 1 then Some infinity
      else if float_of_int acc >= need then Some (float_of_int timer_late_bounds_us.(i))
      else go (i + 1) acc
    in
    go 0 0
