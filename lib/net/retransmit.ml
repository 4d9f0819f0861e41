module Engine = Ics_sim.Engine
module Time = Ics_sim.Time
module Pid = Ics_sim.Pid

type params = {
  rto : Time.t;
  backoff : float;
  max_rto : Time.t;
  ack_bytes : int;
}

let default_params = { rto = 8.0; backoff = 2.0; max_rto = 128.0; ack_bytes = 5 }

type stats = {
  mutable transmissions : int;
  mutable retransmits : int;
  mutable acks_sent : int;
  mutable dup_suppressed : int;
  mutable held_out_of_order : int;
}

let stats_to_list s =
  [
    ("transmissions", s.transmissions);
    ("retransmits", s.retransmits);
    ("acks", s.acks_sent);
    ("dups-suppressed", s.dup_suppressed);
    ("held-out-of-order", s.held_out_of_order);
  ]

type Message.payload += Ack of { upto : int }
type Message.payload += Seq of { seq : int; inner : Message.payload }

let seq_overhead = 5  (* tag byte + u32 sequence number *)

(* {1 The go-back-N core}

   Written once against [Env.t]; [wrap] and [install] below only say how a
   data frame and an ack reach the wire.  A frame is kept as the thunk
   that (re)transmits it, and a held frame as the thunk that releases it
   to the layer above, so the core never sees the adapter's frame type. *)

type pending = {
  seq : int;
  tx : unit -> unit;
  mutable last_tx : Time.t;
}

(* One record per (src, dst, layer) connection: the sender half (go-back-N
   window of unacked transmissions, one backoff timer) and the receiver half
   (next expected sequence number, out-of-order hold buffer).  Keying by
   layer mirrors a stack that opens one socket per protocol layer — and
   keeps a blackholed layer from head-of-line-blocking the others.  On a
   live node only one half of each record is ever active, since the node
   embodies a single endpoint. *)
type chan = {
  c_src : Pid.t;
  c_dst : Pid.t;
  c_layer : Layer.t;  (* data-layer token, reused by [install]'s acks *)
  mutable next_seq : int;
  mutable unacked : pending list;  (* oldest first *)
  mutable timer_armed : bool;
  mutable cur_rto : Time.t;
  mutable expected : int;
  mutable held : (int * (unit -> unit)) list;
}

type core = {
  params : params;
  stats : stats;
  channels : (Pid.t * Pid.t * string, chan) Hashtbl.t;
}

(* What an adapter supplies per backend: the environment timers and
   liveness go through, and how a cumulative ack for [c] leaves the
   receiver. *)
type io = { env : Env.t; send_ack : chan -> upto:int -> unit }

let create ~who params =
  if params.rto <= 0.0 || params.backoff < 1.0 || params.max_rto < params.rto then
    invalid_arg ("Retransmit." ^ who ^ ": bad params");
  {
    params;
    stats =
      {
        transmissions = 0;
        retransmits = 0;
        acks_sent = 0;
        dup_suppressed = 0;
        held_out_of_order = 0;
      };
    channels = Hashtbl.create 64;
  }

let chan t ~src ~dst ~layer =
  let key = (src, dst, Layer.name layer) in
  match Hashtbl.find_opt t.channels key with
  | Some c -> c
  | None ->
      let c =
        {
          c_src = src;
          c_dst = dst;
          c_layer = layer;
          next_seq = 0;
          unacked = [];
          timer_armed = false;
          cur_rto = t.params.rto;
          expected = 0;
          held = [];
        }
      in
      Hashtbl.add t.channels key c;
      c

let rec transmit t io p ~retx =
  t.stats.transmissions <- t.stats.transmissions + 1;
  if retx then t.stats.retransmits <- t.stats.retransmits + 1;
  p.last_tx <- io.env.Env.now ();
  p.tx ()

and arm_at t io c ~at =
  (* Past the horizon the run is over: stop rescheduling so the queue can
     drain.  A later ack or fresh send re-arms if needed. *)
  if (not c.timer_armed) && not (Env.beyond_horizon io.env ~at) then begin
    c.timer_armed <- true;
    io.env.Env.schedule ~at (fun () -> on_timer t io c)
  end

and arm t io c =
  (* The deadline belongs to the oldest unacked frame — newer frames must
     not be retried early just because an older frame's timer fired. *)
  match c.unacked with
  | [] -> ()
  | oldest :: _ -> arm_at t io c ~at:(Time.( + ) oldest.last_tx c.cur_rto)

and on_timer t io c =
  c.timer_armed <- false;
  match c.unacked with
  | [] -> ()
  | oldest :: _ ->
      if (not (io.env.Env.is_alive c.c_src)) || not (io.env.Env.is_alive c.c_dst)
      then
        (* Crash-stop purge: a dead endpoint will never make progress, and
           retrying forever would keep the event queue non-empty.  A live
           node only learns of its own crash (a remote endpoint's death
           shows up as silence), so there the purge fires for self-crashes
           and the horizon retires the rest. *)
        c.unacked <- []
      else begin
        let deadline = Time.( + ) oldest.last_tx c.cur_rto in
        if Time.compare (io.env.Env.now ()) deadline < 0 then
          (* An ack made progress since this timer was set; the oldest
             frame's deadline is still in the future. *)
          arm_at t io c ~at:deadline
        else begin
          (* Go-back-N: resend the whole window, back off exponentially. *)
          List.iter (fun p -> transmit t io p ~retx:true) c.unacked;
          c.cur_rto <- Float.min (c.cur_rto *. t.params.backoff) t.params.max_rto;
          arm t io c
        end
      end

(* Sender: [frame seq] is the thunk that puts the frame numbered [seq] on
   the wire, once now and again on every go-back-N retry. *)
let send t io c frame =
  let seq = c.next_seq in
  let p = { seq; tx = frame seq; last_tx = io.env.Env.now () } in
  c.next_seq <- seq + 1;
  c.unacked <- c.unacked @ [ p ];
  transmit t io p ~retx:false;
  arm t io c

let on_ack t io c ~upto =
  let before = List.length c.unacked in
  c.unacked <- List.filter (fun p -> p.seq >= upto) c.unacked;
  if List.length c.unacked < before then begin
    (* Forward progress: the peer is reachable again, restart backoff. *)
    c.cur_rto <- t.params.rto;
    if c.unacked <> [] then arm t io c
  end

let ack t io c =
  t.stats.acks_sent <- t.stats.acks_sent + 1;
  io.send_ack c ~upto:c.expected

(* The ack frame itself, from [c]'s receiver back to its sender. *)
let ack_msg t io c ~layer ~upto =
  {
    Message.src = c.c_dst;
    dst = c.c_src;
    layer;
    payload = Ack { upto };
    body_bytes = t.params.ack_bytes;
    sent_at = io.env.Env.now ();
  }

(* Receiver, running when a (possibly duplicated, possibly stale) frame
   reaches the destination; [release] hands it to the layer above.  A
   crashed destination takes no step, so it neither delivers nor acks. *)
let receive t io c ~seq release =
  if io.env.Env.is_alive c.c_dst then
    if seq < c.expected then begin
      t.stats.dup_suppressed <- t.stats.dup_suppressed + 1;
      ack t io c (* re-ack: the previous ack may have been lost *)
    end
    else if seq = c.expected then begin
      release ();
      c.expected <- c.expected + 1;
      let rec drain () =
        match List.assoc_opt c.expected c.held with
        | None -> ()
        | Some release ->
            c.held <- List.remove_assoc c.expected c.held;
            release ();
            c.expected <- c.expected + 1;
            drain ()
      in
      drain ();
      ack t io c
    end
    else begin
      (* Out of order: hold for in-order release, ack cumulatively. *)
      if not (List.mem_assoc seq c.held) then begin
        t.stats.held_out_of_order <- t.stats.held_out_of_order + 1;
        c.held <- (seq, release) :: c.held
      end;
      ack t io c
    end

(* {1 Model-level channel}

   Inside one address space delivery is an [~arrive] closure the sender
   keeps, so frames need no sequence field on the wire: the closure knows
   its channel and number.  Acks travel through the base model on the
   unregistered ["retx-ack"] layer. *)

let wrap ?(params = default_params) base =
  let t = create ~who:"wrap" params in
  let ack_layer = Layer.unregistered "retx-ack" in
  (* One model only ever runs on one engine, so a single-slot cache avoids
     rebuilding the [io] (and its [Env.t]) per message. *)
  let io_slot = ref None in
  let io_for engine =
    match !io_slot with
    | Some (e, io) when e == engine -> io
    | _ ->
        let rec io =
          {
            env = Env.of_engine engine;
            send_ack =
              (fun c ~upto ->
                Model.send base engine (ack_msg t io c ~layer:ack_layer ~upto)
                  ~arrive:(fun () -> on_ack t io c ~upto));
          }
        in
        io_slot := Some (engine, io);
        io
  in
  let send_fn engine (msg : Message.t) ~arrive =
    let io = io_for engine in
    let c = chan t ~src:msg.src ~dst:msg.dst ~layer:msg.layer in
    send t io c (fun seq () ->
        Model.send base engine msg ~arrive:(fun () -> receive t io c ~seq arrive))
  in
  let model =
    Model.make
      ?faults:(Model.fault_stats base)
      ~name:("retransmit(" ^ Model.name base ^ ")")
      ~resources:(Model.resources base) send_fn
  in
  (model, t.stats)

(* {1 Wire-level channel}

   Across real sockets nothing crosses the wire but bytes, so the protocol
   itself must be wire-encodable: data frames carry an explicit sequence
   number ([Seq] wraps the original payload), and acks travel back as
   ordinary [Ack] frames on the data's own layer.  Installed as transport
   middleware, the very same code runs over the sim backend (through the
   network model) and the live backend (through the socket runtime). *)

let install ?(params = default_params) transport =
  let t = create ~who:"install" params in
  (* The downstream chain (fault interposers, then the raw wire), captured
     when the outbound middleware installs.  Acks and retries reuse it, so
     they are exposed to exactly the same link faults as first
     transmissions — a lost ack is recovered by the sender's timer. *)
  let downstream = ref (fun (_ : Message.t) -> ()) in
  let rec io =
    {
      env = Transport.env transport;
      send_ack = (fun c ~upto -> !downstream (ack_msg t io c ~layer:c.c_layer ~upto));
    }
  in
  Transport.interpose transport (fun inner ->
      downstream := inner;
      fun (msg : Message.t) ->
        match msg.payload with
        | Seq _ | Ack _ -> inner msg  (* already channel traffic *)
        | _ ->
            let c = chan t ~src:msg.src ~dst:msg.dst ~layer:msg.layer in
            send t io c (fun seq ->
                (* Kept verbatim for retries. *)
                let wrapped =
                  {
                    msg with
                    payload = Seq { seq; inner = msg.payload };
                    body_bytes = msg.body_bytes + seq_overhead;
                  }
                in
                fun () -> !downstream wrapped));
  Transport.interpose_inbound transport (fun next ->
      fun (msg : Message.t) ->
        match msg.payload with
        | Seq { seq; inner } ->
            let c = chan t ~src:msg.src ~dst:msg.dst ~layer:msg.layer in
            receive t io c ~seq (fun () ->
                next
                  {
                    msg with
                    payload = inner;
                    body_bytes = Stdlib.max 0 (msg.body_bytes - seq_overhead);
                  })
        | Ack { upto } ->
            (* Arrives at the original data sender: the sender half of the
               channel is keyed by the data direction. *)
            on_ack t io (chan t ~src:msg.dst ~dst:msg.src ~layer:msg.layer) ~upto
        | _ -> next msg);
  t.stats
