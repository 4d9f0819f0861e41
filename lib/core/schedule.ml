(* The workload a run drives, written once for both backends.  A live
   node starts the share it originates ([srcs = [self]]); the simulator
   starts everyone's ([srcs] = every pid) on the one shared engine.  The
   loops below run slot-major, pid-minor, so equal-time slots are
   scheduled in pid order on either backend — the order the simulator's
   pinned fingerprints were captured under. *)

module Engine = Ics_sim.Engine
module Pid = Ics_sim.Pid
module Trace = Ics_sim.Trace
module Rng = Ics_prelude.Rng

type kind = Fixed_gap | Chaos | Service

let kind ~chaos (p : Profile.t) =
  if chaos then Chaos
  else match p.Profile.app with Profile.Kv -> Service | Profile.No_app -> Fixed_gap

let expected kind (p : Profile.t) =
  match kind with
  | Service -> p.Profile.clients * p.Profile.requests
  | Chaos -> p.Profile.count
  | Fixed_gap -> p.Profile.count * p.Profile.n

(* The chaos sweep's schedule, replayed from the cell seed: [count]
   round-robin slots at seeded spacing, origin 0 first (the blackout
   victim must originate).  The RNG is drawn for every slot, whether or
   not one of [srcs] fires it, so every node computes the same timeline.
   With an app hosted, slot [i] carries command (client = i, req = 0) in
   its blob — one Create per one-request client, since this open-loop
   schedule cannot promise per-client FIFO delivery (see App_host). *)
let schedule_chaos engine abcast (p : Profile.t) ~seed ~srcs =
  let app = match p.Profile.app with Profile.Kv -> true | Profile.No_app -> false in
  let body_bytes = if app then App_host.body_bytes p else p.Profile.body_bytes in
  let wrng = Rng.create (Int64.add seed 104729L) in
  let at = ref 1.0 in
  for i = 0 to p.Profile.count - 1 do
    let t = !at in
    let src = i mod p.Profile.n in
    if List.mem src srcs then begin
      let blob = if app then Ics_app.Cmd.pack ~client:i ~req:0 else 0L in
      Engine.schedule engine ~at:(p.Profile.warmup_ms +. t) (fun () ->
          if app && Engine.is_alive engine src then
            Engine.record engine src (Trace.App_submit (i, 0));
          ignore (Abcast.abroadcast ~blob abcast ~src ~body_bytes : Ics_net.App_msg.t))
    end;
    at := t +. 2.0 +. Rng.float wrng 4.0
  done

(* [count] broadcasts per origin, [gap_ms] apart from [warmup_ms]. *)
let schedule_fixed_gap engine abcast (p : Profile.t) ~srcs =
  for k = 0 to p.Profile.count - 1 do
    List.iter
      (fun src ->
        Engine.schedule engine
          ~at:(p.Profile.warmup_ms +. (p.Profile.gap_ms *. float_of_int k))
          (fun () ->
            ignore
              (Abcast.abroadcast abcast ~src ~body_bytes:p.Profile.body_bytes
                : Ics_net.App_msg.t)))
      srcs
  done

let start engine transport abcast (p : Profile.t) kind ~seed ~ramp_ms ~srcs =
  let hosts =
    match p.Profile.app with
    | Profile.No_app -> []
    | Profile.Kv ->
        let mode = match kind with Service -> App_host.Service | _ -> App_host.Ride in
        List.map
          (fun self -> (self, App_host.install transport ~abcast ~profile:p ~self ~mode))
          srcs
  in
  (match kind with
  | Chaos -> schedule_chaos engine abcast p ~seed ~srcs
  | Fixed_gap -> schedule_fixed_gap engine abcast p ~srcs
  | Service ->
      List.iter
        (fun (_, h) -> App_host.start h ~at:p.Profile.warmup_ms ~over_ms:ramp_ms)
        hosts);
  hosts
