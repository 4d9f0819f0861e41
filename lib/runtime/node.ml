module Engine = Ics_sim.Engine
module Pid = Ics_sim.Pid
module Trace = Ics_sim.Trace
module Transport = Ics_net.Transport
module Message = Ics_net.Message
module Retransmit = Ics_net.Retransmit
module Model = Ics_net.Model
module Failure_detector = Ics_fd.Failure_detector
module Stack = Ics_core.Stack
module Profile = Ics_core.Profile
module Schedule = Ics_core.Schedule
module Nemesis = Ics_faults.Nemesis
module Codec = Ics_codec.Codec
module Prim = Ics_codec.Prim
module Rng = Ics_prelude.Rng

(* Runtime control plane: each node announces on the "ctl" layer when it
   has A-delivered the full workload, and exits once every peer has
   announced too — the distributed analogue of the simulator's quiescence
   check, with the run deadline as the fallback. *)
type Message.payload += Done of int

let ctl_layer = "ctl"

let register_codec () =
  Codec.register ~tag:0x48 ~name:"ctl.done"
    ~fits:(function Done _ -> true | _ -> false)
    ~size:(fun _ -> 5)
    ~encode_into:(fun w -> function Done d -> Prim.u32 w d | _ -> assert false)
    ~dec:(fun r -> Done (Prim.r_u32 r))
    ~gen:(fun rng -> Done (Rng.int rng 10_000))

type config = {
  self : int;
  profile : Profile.t;  (** shape + workload; [n] comes from here *)
  seed : int64;  (** cell seed; the chaos schedule derives from it *)
  plan : Nemesis.plan;
      (** run-relative fault plan; shifted past [warmup_ms] here *)
  plan_seed : int64;
  retransmit : bool;  (** wire retransmission channel when a plan is set *)
  chaos_workload : bool;
      (** replicate the chaos sweep's round-robin schedule instead of the
          every-node-broadcasts-[count] workload *)
  ramp_ms : float;  (** closed-loop sessions start staggered over this *)
}

let default_workload =
  {
    self = 0;
    profile = Profile.default;
    seed = 1L;
    plan = [];
    plan_seed = 1L;
    retransmit = true;
    chaos_workload = false;
    ramp_ms = 200.0;
  }

type result = {
  delivered : int;  (** A-deliveries at this node *)
  expected : int;
  clean_exit : bool;  (** finished via the all-done barrier, not the deadline *)
  net : Socket_transport.stats;
  faults : (string * int) list;  (** this node's outbound-link fault counters *)
  retx : (string * int) list;
  trace : Ics_sim.Trace.t;
}

(* Both counter families in one flat list, prefixed so the cluster parent
   can split them apart again after summing across nodes. *)
let result_kv r =
  List.map (fun (k, v) -> ("fault." ^ k, v)) r.faults
  @ List.map (fun (k, v) -> ("retx." ^ k, v)) r.retx

let run ~epoch ~listen ~peer_addrs config =
  let p = config.profile in
  let n = p.Profile.n in
  if config.self < 0 || config.self >= n then invalid_arg "Node.run: self out of range";
  register_codec ();
  (* The heartbeat detector emits before [Stack.assemble] would get a
     chance to register the layer codecs — do it up front. *)
  Ics_core.Codecs.ensure ();
  let engine = Engine.create ~seed:(Int64.of_int (config.self + 1)) ~trace:`On ~n () in
  let clock = Clock.create ~epoch in
  let st =
    Socket_transport.create ~engine ~clock ~self:config.self ~listen ~peer_addrs ()
  in
  let transport = Socket_transport.transport st in
  (* Middleware order matters: faults first, the retransmission channel
     last (outermost), so every retry traverses the faults — same layering
     as the simulated chaos stack (nemesis under Retransmit). *)
  let fstats =
    match config.plan with
    | [] -> None
    | plan ->
        let plan = Nemesis.shift plan ~by:p.Profile.warmup_ms in
        let mw, stats =
          Nemesis.interposer ~self:config.self ~env:(Transport.env transport)
            ~seed:config.plan_seed ~plan ()
        in
        Transport.interpose transport mw;
        Some stats
  in
  let rstats =
    if config.plan <> [] && config.retransmit then
      Some (Retransmit.install transport)
    else None
  in
  let fd =
    Failure_detector.heartbeat transport ~period:p.Profile.hb_period_ms
      ~timeout:p.Profile.hb_timeout_ms
  in
  let kind = Schedule.kind ~chaos:config.chaos_workload p in
  let expected = Schedule.expected kind p in
  let delivered = ref 0 in
  let done_from = Array.make n false in
  let announced = ref false in
  let ctl = Transport.intern transport ctl_layer in
  let announce () =
    if not !announced then begin
      announced := true;
      done_from.(config.self) <- true;
      Transport.send_to_others transport ~src:config.self ~layer:ctl ~body_bytes:5
        (Done !delivered)
    end
  in
  let host = ref None in
  (* Service mode's barrier is semantic — every command applied here —
     instead of a delivery count (retries make raw deliveries overshoot). *)
  let barrier_reached () =
    match (kind, !host) with
    | Schedule.Service, Some h -> Ics_core.App_host.complete h
    | _ -> !delivered >= expected
  in
  let on_deliver pid m =
    if Pid.equal pid config.self then begin
      incr delivered;
      (match !host with Some h -> Ics_core.App_host.on_deliver h m | None -> ());
      if barrier_reached () then announce ()
    end
  in
  let abcast = Stack.assemble transport ~fd ~profile:p ~on_deliver in
  Transport.register transport config.self ~layer:ctl (fun msg ->
      match msg.Message.payload with
      | Done _ -> done_from.(msg.Message.src) <- true
      | _ -> ());
  host :=
    List.assoc_opt config.self
      (Schedule.start engine transport abcast p kind ~seed:config.seed
         ~ramp_ms:config.ramp_ms ~srcs:[ config.self ]);
  let all_done () = !announced && Array.for_all Fun.id done_from in
  (* A plan-scheduled crash of our own pid is process death: leave the
     loop instead of idling to the deadline as a zombie. *)
  let exit_recorded = ref false in
  let stop () =
    if all_done () then begin
      (* Mark the clean exit in the trace: the checker's termination
         properties must not demand this node's participation in
         consensus decisions first reached after it left the run. *)
      if not !exit_recorded then begin
        exit_recorded := true;
        Engine.record engine config.self Trace.Exit
      end;
      true
    end
    else not (Engine.is_alive engine config.self)
  in
  Socket_transport.run st ~deadline:p.Profile.deadline_ms ~stop;
  let clean = all_done () in
  Socket_transport.close st;
  {
    delivered = !delivered;
    expected;
    clean_exit = clean;
    net = Socket_transport.stats st;
    faults =
      (match fstats with Some s -> Model.Fault_stats.to_list s | None -> []);
    retx =
      (match rstats with Some s -> Retransmit.stats_to_list s | None -> []);
    trace = Engine.trace engine;
  }
