(* One run of one workload on either backend — the Neko idea: the same
   protocol code and the same experiment, simulated or on a real network.
   A point is a Node.config (profile, seed, fault plan, retransmission,
   chaos schedule, session ramp); the simulator runs it on one engine with
   every pid originating its share of Ics_core.Schedule, the live backend
   forks a loopback cluster whose nodes each originate their own share.
   Both fill the same outcome record, so the chaos sweep, the saturation
   curve and the service point read one shape whichever backend ran. *)

module Engine = Ics_sim.Engine
module Pid = Ics_sim.Pid
module Trace = Ics_sim.Trace
module Stats = Ics_prelude.Stats
module Model = Ics_net.Model
module Retransmit = Ics_net.Retransmit
module Nemesis = Ics_faults.Nemesis
module Stack = Ics_core.Stack
module Abcast = Ics_core.Abcast
module Profile = Ics_core.Profile
module Schedule = Ics_core.Schedule
module App_host = Ics_core.App_host
module Machine = Ics_app.Machine
module Checker = Ics_checker.Checker
module Node = Ics_runtime.Node
module Cluster = Ics_runtime.Cluster

type sim = { setup : Stack.setup; oracle_ms : float }
type backend = Sim of sim | Live

let lan = { setup = Stack.Setup2; oracle_ms = 200.0 }

type outcome = {
  verdict : Checker.verdict;
  completed : bool;
  quiescent : bool;
  expected : int;
  throughput : float;
  latency : Stats.summary;
  app_latency : Stats.summary;
  app_hash : (int * int64) option;
  util : float;
  faults : (string * int) list;
  retx : (string * int) list;
  trace : Trace.t option;
}

let ok o = Checker.ok o.verdict && o.completed

let digest trace = Digest.to_hex (Digest.string (Format.asprintf "%a" Trace.pp trace))
let fingerprint o = match o.trace with Some t -> digest t | None -> ""

(* Two points agree when both finished the whole workload green and
   landed on the same state hash at the same, full cursor — comparing
   partial prefixes would pass vacuously. *)
let hash_match a b =
  ok a && ok b
  &&
  match (a.app_hash, b.app_hash) with
  | Some (ca, ha), Some (cb, hb) ->
      ca = a.expected && cb = b.expected && ca = cb && Int64.equal ha hb
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Per-backend timing.                                                *)
(* ------------------------------------------------------------------ *)

let live_warmup_ms = 400.0

(* A simulated point starts its workload at the profile's [warmup_ms] and
   stops at [deadline_ms]; a live node needs the warm-up to dial its
   peers, and its deadline counts from the cluster epoch.  This is the
   only place a profile is made live. *)
let live ~run_ms (p : Profile.t) =
  { p with Profile.warmup_ms = live_warmup_ms; deadline_ms = live_warmup_ms +. run_ms }

(* Fault-free points suspect only after a genuinely dead interval: with
   n+1 processes on a few cores, scheduler stalls routinely exceed the
   fault-tuned 120 ms heartbeat timeout, and a false suspicion starts a
   round-change storm that measures the detector, not the stack. *)
let steady_hb_timeout_ms = 2_000.0

(* ------------------------------------------------------------------ *)
(* Simulator.                                                         *)
(* ------------------------------------------------------------------ *)

let stack_config sim (node : Node.config) =
  let p = node.Node.profile in
  {
    Stack.default_config with
    Stack.n = p.Profile.n;
    seed = node.Node.seed;
    algo = p.Profile.algo;
    ordering = p.Profile.ordering;
    broadcast = p.Profile.broadcast;
    batching = Profile.batching p;
    setup = sim.setup;
    fd_kind = Stack.Oracle sim.oracle_ms;
  }

(* The fault plane as the live node builds it: nemesis under the
   retransmission channel, the plan shifted past [warmup_ms]. *)
let faulty_config ~engine (node : Node.config) config =
  match node.Node.plan with
  | [] -> (config, None, None)
  | plan ->
      let base, host = Stack.build_model config in
      let plan = Nemesis.shift plan ~by:node.Node.profile.Profile.warmup_ms in
      let lossy, fstats =
        Nemesis.apply ~engine ~seed:node.Node.plan_seed ~plan ~base ()
      in
      let model, rstats =
        if node.Node.retransmit then
          let m, s = Retransmit.wrap lossy in
          (m, Some s)
        else (lossy, None)
      in
      ( {
          config with
          Stack.setup = Stack.Custom { name = "faulty"; build = (fun ~n:_ -> (model, host)) };
        },
        Some fstats,
        rstats )

let summary = function
  | None -> Stats.empty_summary
  | Some l ->
      {
        Stats.empty_summary with
        Stats.count = l.Cluster.samples;
        mean = l.Cluster.mean_ms;
        p50 = l.Cluster.p50_ms;
        p95 = l.Cluster.p95_ms;
        p99 = l.Cluster.p99_ms;
        max = l.Cluster.max_ms;
      }

let run_sim sim (node : Node.config) =
  let p = node.Node.profile in
  let n = p.Profile.n in
  let engine = Engine.create ~seed:node.Node.seed ~trace:`On ~n () in
  let config, fstats, rstats = faulty_config ~engine node (stack_config sim node) in
  (* Hosts exist only once the stack does; deliveries cannot race the
     assignment, the engine only runs inside [Stack.run]. *)
  let hosts = ref [||] in
  let on_deliver pid m =
    if Array.length !hosts > 0 then App_host.on_deliver !hosts.(pid) m
  in
  let stack = Stack.create ~engine ~on_deliver config in
  let kind = Schedule.kind ~chaos:node.Node.chaos_workload p in
  hosts :=
    Array.of_list
      (List.map snd
         (Schedule.start engine stack.Stack.transport stack.Stack.abcast p kind
            ~seed:node.Node.seed ~ramp_ms:node.Node.ramp_ms ~srcs:(Pid.all ~n)));
  Stack.run ~until:p.Profile.deadline_ms stack;
  let trace = Engine.trace engine in
  let run = Checker.Run.of_trace trace ~n in
  let expected = Schedule.expected kind p in
  let _, latency, app_latency, throughput = Cluster.measure (Trace.events trace) in
  {
    verdict =
      (match p.Profile.app with
      | Profile.Kv -> Checker.merge [ Checker.check_all_abcast run; Checker.check_app run ]
      | Profile.No_app -> Checker.check_all_abcast run);
    (* The simulated counterpart of every node passing its barrier. *)
    completed =
      (match kind with
      | Schedule.Service ->
          Array.for_all App_host.complete !hosts
          && Array.for_all App_host.sessions_done !hosts
      | Schedule.Chaos | Schedule.Fixed_gap ->
          List.for_all
            (fun pid -> List.length (Checker.Run.adeliveries run pid) >= expected)
            (Pid.all ~n));
    quiescent = Engine.pending engine = 0;
    expected;
    throughput;
    latency = summary latency;
    app_latency = summary app_latency;
    (* The deepest replica state: (applied cursor, state hash). *)
    app_hash =
      Array.fold_left
        (fun best h ->
          let c = Machine.cursor (App_host.machine h) in
          match best with
          | Some (cb, _) when cb >= c -> best
          | _ -> Some (c, App_host.hash h))
        None !hosts;
    util = Float.nan;
    faults = (match fstats with Some s -> Model.Fault_stats.to_list s | None -> []);
    retx = (match rstats with Some s -> Retransmit.stats_to_list s | None -> []);
    trace = Some trace;
  }

(* ------------------------------------------------------------------ *)
(* Live cluster.                                                      *)
(* ------------------------------------------------------------------ *)

let run_live node =
  match Cluster.run { Cluster.default with Cluster.node; check = `All } with
  | Error reason -> failwith ("live point: " ^ reason)
  | Ok o ->
      {
        verdict = o.Cluster.verdict;
        completed = Array.for_all (fun c -> c = 0) o.Cluster.exits;
        (* Every node left on its own — through the barrier or its
           deadline — rather than dying or being killed. *)
        quiescent = Array.for_all (fun c -> c = 0 || c = 10) o.Cluster.exits;
        expected = o.Cluster.expected_per_node;
        throughput = o.Cluster.throughput_msg_s;
        latency = summary o.Cluster.latency;
        app_latency = summary o.Cluster.app_latency;
        app_hash = o.Cluster.app_hash;
        util = Float.nan;
        faults = o.Cluster.faults;
        retx = o.Cluster.retx;
        trace = None;
      }

let run backend node = match backend with Sim sim -> run_sim sim node | Live -> run_live node

let replay_check sim node =
  let first = fingerprint (run (Sim sim) node) in
  let second = fingerprint (run (Sim sim) node) in
  if String.equal first second then Ok first else Error (first, second)

(* ------------------------------------------------------------------ *)
(* Workload cells.                                                    *)
(* ------------------------------------------------------------------ *)

let drain_ms = 10_000.0

let fixed_rate backend ~offered ~duration_ms (p : Profile.t) =
  let gap_ms = 1000.0 /. (offered /. float_of_int p.Profile.n) in
  let p =
    {
      p with
      Profile.gap_ms;
      count = max 1 (int_of_float (Float.round (duration_ms /. gap_ms)));
      hb_timeout_ms = steady_hb_timeout_ms;
    }
  in
  match backend with
  | Sim _ -> { p with Profile.warmup_ms = 10.0; deadline_ms = duration_ms +. drain_ms }
  | Live -> live ~run_ms:(duration_ms +. drain_ms) p

(* The sim curve keeps the paper's Poisson arrivals and measures a window
   past its warm-up; live nodes cannot share one arrival process, so they
   run the fixed-gap cell at the same rate. *)
let open_loop backend (node : Node.config) ~offered ~duration_ms =
  match backend with
  | Live ->
      run Live
        { node with Node.profile = fixed_rate Live ~offered ~duration_ms node.Node.profile }
  | Sim sim ->
      let load =
        {
          Experiment.throughput = offered;
          body_bytes = node.Node.profile.Profile.body_bytes;
          duration = duration_ms;
          warmup = Float.min 1_000.0 (duration_ms /. 4.0);
        }
      in
      let r = Experiment.run ~check:true (stack_config sim node) load in
      let n = node.Node.profile.Profile.n in
      let window_s = (load.Experiment.duration -. load.Experiment.warmup) /. 1000.0 in
      {
        verdict = Option.get r.Experiment.verdict;
        completed = r.Experiment.quiescent;
        quiescent = r.Experiment.quiescent;
        expected = r.Experiment.abroadcasts;
        throughput = float_of_int (r.Experiment.measured / n) /. window_s;
        latency = r.Experiment.latency;
        app_latency = Stats.empty_summary;
        app_hash = None;
        util = List.fold_left (fun m (_, u) -> Float.max m u) 0.0 r.Experiment.utilization;
        faults = [];
        retx = [];
        trace = None;
      }

let service ?(seed = 1L) ?(batching = Abcast.no_batching) ?(hash_every = 1024)
    ?(ramp_ms = 1_000.0) ?(horizon_ms = 120_000.0) backend ~n ~clients ~requests =
  let profile =
    {
      Profile.default with
      Profile.n;
      batch = batching.Abcast.batch;
      pipeline = batching.Abcast.pipeline;
      flush_ms = batching.Abcast.flush_ms;
      app = Profile.Kv;
      clients;
      requests;
      app_seed = 42;
      hash_every;
      retry_ms = 500.0;
      count = clients * requests;
      body_bytes = 32;
      hb_timeout_ms = steady_hb_timeout_ms;
    }
  in
  match backend with
  | Sim _ ->
      {
        Node.default_workload with
        Node.profile = { profile with Profile.warmup_ms = 10.0; deadline_ms = horizon_ms };
        seed;
        ramp_ms;
      }
  | Live ->
      { Node.default_workload with Node.profile = live ~run_ms:20_000.0 profile; seed }
