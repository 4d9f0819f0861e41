(* The live workload, live-service: forked 3-node loopback-TCP clusters,
   CT-indirect, ring dissemination, batch 64 / pipeline 4 / flush 1 ms,
   50 closed-loop KV/ledger clients hosted as sessions inside the nodes.
   Arrivals follow replies; a retried submit is redirected to another
   proposer.  Replicas must agree on the state hash at equal cursors.

   A run is a sequence of short clusters until its time is spent, and
   every cluster is reported: the latency percentiles are medians over
   the clusters of each cluster's percentile.  On a small shared host a
   cluster's latency swings with the scheduler state it happens to start
   in, so one long cluster per run would not give a steady figure; the
   application checker also grows faster than linearly with the command
   count, which caps a cluster at 10k commands.

   Every cluster is gated by the checker verdict (full abcast battery
   plus the application battery) and a clean barrier exit on every node.
   The benchmark then reads the per-node traces the nodes wrote into the
   kept cluster directory.  No delay is injected on loopback, so latency
   is CPU and scheduling time; live nodes always trace, so tracing is
   inside every live figure. *)

module Trace = Ics_sim.Trace
module Msg_id = Ics_sim.Msg_id
module Profile = Ics_core.Profile
module Abcast = Ics_core.Abcast
module Checker = Ics_checker.Checker
module Node = Ics_runtime.Node
module Cluster = Ics_runtime.Cluster
module Trace_io = Ics_runtime.Trace_io

let runs_dir = Filename.concat "perfbench" "runs"

let fresh_dir =
  let k = ref 0 in
  fun () ->
    Report.mkdir_p runs_dir;
    incr k;
    let d = Filename.concat runs_dir (Printf.sprintf "%d-%d" (Unix.getpid ()) !k) in
    Report.mkdir_p d;
    d

let remove_dir d =
  Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
  Unix.rmdir d

type cluster = {
  outcome : Cluster.outcome;
  pre_s : float;  (** wall from the start of the iteration to the Cluster.run call *)
  merged : Trace.t;
  cpu_user_s : float;  (** node processes, reaped *)
  cpu_sys_s : float;
  merge_s : float;  (** Trace_io.load of every node file + Trace_io.merge *)
  heap_mb : float;  (** this process's top heap right after Cluster.run *)
}

let run_cluster ~since ~profile ~seed =
  let dir = fresh_dir () in
  let node = { Node.default_workload with Node.profile; seed } in
  let before = Unix.times () in
  let pre_s = Report.now () -. since in
  let result =
    Cluster.run { Cluster.default with Cluster.node; dir = Some dir; keep_dir = true; check = `All }
  in
  let after = Unix.times () in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let finish r =
    remove_dir dir;
    r
  in
  match result with
  | Error reason -> finish (Error reason)
  | Ok outcome ->
      let files =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".trace")
        |> List.sort compare
      in
      let merged, merge_s =
        Report.time (fun () ->
            Trace_io.merge (List.map (fun f -> Trace_io.load (Filename.concat dir f)) files))
      in
      finish
        (Ok
           {
             outcome;
             pre_s;
             merged;
             cpu_user_s = after.Unix.tms_cutime -. before.Unix.tms_cutime;
             cpu_sys_s = after.Unix.tms_cstime -. before.Unix.tms_cstime;
             merge_s;
             heap_mb;
           })

(* Set-up: from the start of the iteration to the first command applied
   anywhere in the cluster.  Sessions start as soon as a node's event
   loop runs (no warm-up delay) and a node dials every peer before that,
   so this point comes after the forks, each node's start-up, the
   connections and one consensus round, and moves with each of them.
   Trace times are ms since the cluster epoch, which Cluster.run takes
   after binding its listeners; the call time stands in for the epoch,
   so that binding is the one part of set-up not counted. *)
let setup_s c =
  let t = ref infinity in
  Trace.iter c.merged (fun e ->
      match e.Trace.kind with
      | Trace.App_applied _ when e.Trace.time < !t -> t := e.Trace.time
      | _ -> ());
  c.pre_s +. (!t /. 1000.0)

let distinct_abcasts trace =
  let ids = Msg_id.Table.create 4096 in
  Trace.iter trace (fun e ->
      match e.Trace.kind with Trace.Abroadcast id -> Msg_id.Table.replace ids id () | _ -> ());
  Msg_id.Table.length ids

(* Replicas at equal applied cursors must carry equal state hashes, and
   every replica must reach the final cursor. *)
let hashes_agree trace ~n ~final =
  let at = Hashtbl.create 64 in
  let ok = ref true in
  Trace.iter trace (fun e ->
      match e.Trace.kind with
      | Trace.App_hash (c, h) -> (
          match Hashtbl.find_opt at c with
          | Some (h0, pids) ->
              if not (Int64.equal h h0) then ok := false;
              Hashtbl.replace at c (h0, e.Trace.pid :: pids)
          | None -> Hashtbl.add at c (h, [ e.Trace.pid ]))
      | _ -> ());
  !ok
  &&
  match Hashtbl.find_opt at final with
  | Some (_, pids) -> List.length (List.sort_uniq compare pids) = n
  | None -> false

(* Commands that were not applied at every node. *)
let unapplied (st : Stages.t) ~expected ~n =
  let full =
    Msg_id.Table.fold (fun _ k acc -> if k >= n then acc + 1 else acc) st.Stages.delivered_at 0
  in
  max 0 (expected - full)

let n = 3
let clients = 50
let requests = 200
let commands = clients * requests

let profile app_seed =
  {
    Profile.default with
    Profile.n;
    algo = Profile.Ct;
    ordering = Abcast.Indirect_consensus;
    broadcast = Profile.Ring;
    batch = 64;
    pipeline = 4;
    flush_ms = 1.0;
    body_bytes = 32;
    app = Profile.Kv;
    clients;
    requests;
    count = commands;
    app_seed;
    hash_every = 1024;
    retry_ms = 500.0;
    warmup_ms = 0.0;
    (* No faults are injected: suspect a peer only after a genuinely dead
       interval, not after a scheduler stall on a busy host. *)
    hb_timeout_ms = 2_000.0;
    deadline_ms = 60_000.0;
  }

(* One cluster, reduced to what the run reports; the merged trace is
   dropped here so a run's memory does not grow with its length. *)
type measured = {
  st : Stages.t;
  consensus : Layers.consensus;
  msgs : int;  (** distinct abroadcasts *)
  cpu_user_s : float;
  cpu_sys_s : float;
  merge_s : float;
  heap_mb : float;
  setup_s : float;
  checker_s : (float * float * float) option;
      (** traced runs: Run.of_trace, check_all_abcast, check_app *)
}

let measure rep ~spans ~since ~seed profile =
  match run_cluster ~since ~profile ~seed with
  | Error reason ->
      Report.problem rep ("cluster could not run: " ^ reason);
      Report.count rep ~attempted:commands ~failed:commands;
      None
  | Ok c ->
      let st = Stages.decompose c.merged in
      let ok = Cluster.ok c.outcome in
      if not ok then
        Report.problem rep
          (Format.asprintf "cluster failed: exits [%s], %a"
             (String.concat " " (Array.to_list (Array.map string_of_int c.outcome.Cluster.exits)))
             Checker.pp_verdict c.outcome.Cluster.verdict);
      let agree = hashes_agree c.merged ~n ~final:commands in
      if not agree then Report.problem rep "replica state hashes disagree";
      Report.count rep ~attempted:commands
        ~failed:(if ok && agree then unapplied st ~expected:commands ~n else commands);
      (* The checker timed from outside: Cluster.run already judged the
         trace, this replays the same calls on the merged copy. *)
      let checker_s =
        if not spans then None
        else begin
          let run, of_trace_s = Report.time (fun () -> Checker.Run.of_trace c.merged ~n) in
          let _, abcast_s = Report.time (fun () -> Checker.check_all_abcast run) in
          let _, app_s = Report.time (fun () -> Checker.check_app run) in
          Some (of_trace_s, abcast_s, app_s)
        end
      in
      Some
        {
          st;
          consensus = Layers.consensus_of c.merged;
          msgs = distinct_abcasts c.merged;
          cpu_user_s = c.cpu_user_s;
          cpu_sys_s = c.cpu_sys_s;
          merge_s = c.merge_s;
          heap_mb = c.heap_mb;
          setup_s = setup_s c;
          checker_s;
        }

(* Clusters until [seconds] have passed (at least one).  Each cluster
   gets its own seed, which also picks its command mix. *)
let live_service rep ~seed ~seconds ~spans =
  let start = Report.now () in
  let rec go k acc =
    if k > 0 && Report.now () -. start >= seconds then List.rev acc
    else begin
      let since = Report.now () in
      let cluster_seed = (seed * 1_000) + k + 1 in
      match measure rep ~spans ~since ~seed:(Int64.of_int cluster_seed) (profile cluster_seed) with
      | None -> List.rev acc
      | Some m -> go (k + 1) (m :: acc)
    end
  in
  let ms = go 0 [] in
  if ms <> [] then begin
    let median f = Report.median (List.map f ms) in
    let total f = List.fold_left (fun acc m -> acc +. f m) 0.0 ms in
    Report.note rep "clusters" (string_of_int (List.length ms));
    Report.metric rep "setup_s" "s" (median (fun m -> m.setup_s));
    if spans then begin
      let per_msg f = total f *. 1e6 /. total (fun m -> float_of_int m.msgs) in
      Report.metric rep "runtime.cpu_user_us_per_msg" "us" (per_msg (fun m -> m.cpu_user_s));
      Report.metric rep "runtime.cpu_sys_us_per_msg" "us" (per_msg (fun m -> m.cpu_sys_s));
      Report.metric rep "runtime.merge_s" "s" (median (fun m -> m.merge_s));
      Layers.emit rep (List.map (fun m -> (m.st, m.consensus)) ms);
      let checker pick = median (fun m -> Option.fold ~none:0.0 ~some:pick m.checker_s) in
      Report.metric rep "checker.of_trace_s" "s" (checker (fun (a, _, _) -> a));
      Report.metric rep "checker.abcast_s" "s" (checker (fun (_, b, _) -> b));
      Report.metric rep "checker.app_s" "s" (checker (fun (_, _, c) -> c));
      Codec_bench.run rep ~seed
    end
    else begin
      let span_s m = (m.st.Stages.last_end -. m.st.Stages.first_submit) /. 1000.0 in
      Report.metric rep "throughput_per_s" "1/s"
        (total (fun m -> float_of_int (Msg_id.Table.length m.st.Stages.delivered_at))
        /. total span_s);
      Report.latency rep (List.map (fun m -> m.st.Stages.home_latency) ms);
      Report.metric rep "peak_heap_mb" "MB" (List.hd ms).heap_mb
    end
  end
