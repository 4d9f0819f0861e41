(* Live runtime: clock clamping, trace serialization, and — where the
   sandbox allows sockets — a real forked loopback cluster verified by
   the checker. *)

module Trace = Ics_sim.Trace
module Msg_id = Ics_net.Msg_id
module Clock = Ics_runtime.Clock
module Trace_io = Ics_runtime.Trace_io
module Node = Ics_runtime.Node
module Cluster = Ics_runtime.Cluster
module Socket_transport = Ics_runtime.Socket_transport
module Checker = Ics_checker.Checker
module Stack = Ics_core.Stack
module Abcast = Ics_core.Abcast
module Profile = Ics_core.Profile

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let test_clock_monotone () =
  (* An epoch in the future makes raw readings negative: the clamp must
     hold the clock at its high-water mark instead of going backwards. *)
  let c = Clock.create ~epoch:(Unix.gettimeofday ()) in
  let a = Clock.now c in
  let b = Clock.now c in
  checkb "forward" true (b >= a);
  let future = Clock.create ~epoch:(Unix.gettimeofday () +. 3600.0) in
  let x = Clock.now future in
  let y = Clock.now future in
  checkb "clamped, not decreasing" true (y >= x)

let sample_events =
  let id o s = Msg_id.make ~origin:o ~seq:s in
  [
    { Trace.time = 0.25; pid = 0; kind = Trace.Abroadcast (id 0 0) };
    { Trace.time = 1.0; pid = 1; kind = Trace.Rbroadcast (id 0 0) };
    { Trace.time = 1.5; pid = 1; kind = Trace.Rdeliver (id 0 0) };
    { Trace.time = 2.0; pid = 2; kind = Trace.Urb_broadcast (id 2 7) };
    { Trace.time = 2.25; pid = 2; kind = Trace.Urb_deliver (id 2 7) };
    { Trace.time = 3.0; pid = 0; kind = Trace.Propose (4, [ id 0 0; id 2 7 ]) };
    { Trace.time = 3.5; pid = 0; kind = Trace.Decide (4, []) };
    { Trace.time = 4.0; pid = 1; kind = Trace.Adeliver (id 0 0) };
    { Trace.time = 4.5; pid = 2; kind = Trace.Suspect 1 };
    { Trace.time = 5.0; pid = 2; kind = Trace.Trust 1 };
    { Trace.time = 5.5; pid = 1; kind = Trace.Crash };
    { Trace.time = 6.0; pid = 0; kind = Trace.Net_drop 2 };
    { Trace.time = 6.1; pid = 0; kind = Trace.Net_dup 1 };
    { Trace.time = 6.2; pid = 0; kind = Trace.Net_delay 0 };
    { Trace.time = 7.0; pid = 0; kind = Trace.Partition_start "split {0}|{1,2}" };
    { Trace.time = 8.0; pid = 0; kind = Trace.Partition_heal "split {0}|{1,2}" };
    { Trace.time = 9.0; pid = 2; kind = Trace.Note "free form\twith tab" };
  ]

let test_trace_io_roundtrip () =
  let path = Filename.temp_file "ics-trace" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let t = Trace.create () in
      List.iter
        (fun (e : Trace.event) ->
          Trace.record t ~time:e.Trace.time ~pid:e.Trace.pid e.Trace.kind)
        sample_events;
      Trace_io.save path t ~keep:(fun _ -> true);
      let back = Trace_io.load path in
      checki "event count" (List.length sample_events) (List.length back);
      List.iter2
        (fun (a : Trace.event) (b : Trace.event) ->
          checkb "time" true (Float.abs (a.Trace.time -. b.Trace.time) < 1e-6);
          checki "pid" a.Trace.pid b.Trace.pid;
          Alcotest.(check string)
            "kind"
            (Format.asprintf "%a" Trace.pp_kind a.Trace.kind)
            (Format.asprintf "%a" Trace.pp_kind b.Trace.kind))
        sample_events back)

let test_trace_io_keep_filter () =
  let path = Filename.temp_file "ics-trace" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let t = Trace.create () in
      List.iter
        (fun (e : Trace.event) ->
          Trace.record t ~time:e.Trace.time ~pid:e.Trace.pid e.Trace.kind)
        sample_events;
      Trace_io.save path t ~keep:(fun e -> e.Trace.pid = 0);
      let back = Trace_io.load path in
      checki "only pid 0"
        (List.length (List.filter (fun (e : Trace.event) -> e.Trace.pid = 0) sample_events))
        (List.length back))

let test_trace_io_rejects_garbage () =
  List.iter
    (fun line ->
      checkb (Printf.sprintf "reject %S" line) true
        (match Trace_io.parse_line line with
        | _ -> false
        | exception Trace_io.Error _ -> true))
    [ ""; "nonsense"; "1.0"; "1.0 x AB"; "1.0 2"; "1.0 2 ZZ extra"; "1.0 2 AB not-an-id" ]

let test_merge_sorts_stably () =
  let a =
    [
      { Trace.time = 1.0; pid = 0; kind = Trace.Note "a1" };
      { Trace.time = 3.0; pid = 0; kind = Trace.Note "a3" };
    ]
  in
  let b =
    [
      { Trace.time = 1.0; pid = 1; kind = Trace.Note "b1" };
      { Trace.time = 2.0; pid = 1; kind = Trace.Note "b2" };
    ]
  in
  let merged = Trace.events (Trace_io.merge [ a; b ]) in
  let notes =
    List.map
      (fun (e : Trace.event) ->
        match e.Trace.kind with Trace.Note s -> s | _ -> assert false)
      merged
  in
  Alcotest.(check (list string)) "stable by time" [ "a1"; "b1"; "b2"; "a3" ] notes

(* The loop's ppoll deadline: microseconds, rounded up (a timer never
   fires early), capped at 50 ms, and bounded by the horizon.  A
   millisecond-granular wait would turn the 0.3 ms timer into 1000. *)
let test_wait_us () =
  let w = Socket_transport.wait_us in
  checki "0.3 ms timer" 300 (w ~now:0.0 ~next_due:(Some 0.3) ~horizon:1e6);
  checki "0.3 ms timer, later clock" 300
    (w ~now:1000.0 ~next_due:(Some 1000.3) ~horizon:1e6);
  checki "sub-microsecond rounds up" 1 (w ~now:0.0 ~next_due:(Some 0.0004) ~horizon:1e6);
  checki "due now" 0 (w ~now:5.0 ~next_due:(Some 5.0) ~horizon:1e6);
  checki "overdue" 0 (w ~now:10.0 ~next_due:(Some 9.0) ~horizon:1e6);
  checki "no timer" 50_000 (w ~now:0.0 ~next_due:None ~horizon:1e6);
  checki "far timer" 50_000 (w ~now:0.0 ~next_due:(Some 400.0) ~horizon:1e6);
  checki "horizon nearer than the timer" 200
    (w ~now:0.0 ~next_due:(Some 5.0) ~horizon:0.2);
  checki "horizon nearer, no timer" 200 (w ~now:0.0 ~next_due:None ~horizon:0.2);
  checki "horizon passed" 0 (w ~now:10.0 ~next_due:(Some 20.0) ~horizon:5.0)

(* The lateness histogram's quantile walk over a summed counter list. *)
let test_late_quantile () =
  let kvs = [ ("timer_late_le_25us", 3); ("timer_late_le_75us", 1); ("timer_late_gt_2000us", 1) ] in
  let q = Socket_transport.late_quantile_us in
  Alcotest.(check (option (float 0.0))) "p50" (Some 25.0) (q kvs 0.5);
  Alcotest.(check (option (float 0.0))) "p80" (Some 75.0) (q kvs 0.8);
  Alcotest.(check (option (float 0.0))) "p90" (Some infinity) (q kvs 0.9);
  Alcotest.(check (option (float 0.0))) "no data" None (q [] 0.5)

(* The live loop counters reach the cluster outcome through the per-node
   stats files: the cluster-smoke shape must write no more often than it
   queues frames, decode everything, and fire its timers through the
   loop. *)
let test_cluster_net_counters () =
  if Cluster.supported () then
    let node =
      {
        Node.default_workload with
        Node.profile = { Profile.default with Profile.count = 10; deadline_ms = 20_000.0 };
      }
    in
    match Cluster.run { Cluster.default with Cluster.node } with
    | Error _ -> ()
    | Ok o ->
        checkb "cluster ok" true (Cluster.ok o);
        let net k =
          match List.assoc_opt k o.Cluster.net with
          | Some v -> v
          | None -> Alcotest.failf "net.%s missing" k
        in
        checkb "frames_out >= writes_out" true (net "frames_out" >= net "writes_out");
        checkb "writes_out > 0" true (net "writes_out" > 0);
        checki "decode_errors" 0 (net "decode_errors");
        checkb "timers_due > 0" true (net "timers_due" > 0);
        checkb "polls > 0" true (net "polls" > 0);
        checkb "gc minor words" true
          (Option.value ~default:0 (List.assoc_opt "minor_words" o.Cluster.gc) > 0)

(* Fork a real 3-node loopback cluster and let the checker judge the
   merged logs.  Skipped (cleanly) where the sandbox forbids sockets. *)
let cluster_case name config =
  Alcotest.test_case name `Slow (fun () ->
      if not (Cluster.supported ()) then ()
      else
        match Cluster.run { Cluster.default with Cluster.node = config } with
        | Error _ -> ()
        | Ok o ->
            checkb (name ^ " checker verdict") true (Checker.ok o.Cluster.verdict);
            Array.iteri
              (fun i c -> checki (Printf.sprintf "%s node %d exit" name i) 0 c)
              o.Cluster.exits;
            Array.iteri
              (fun i d ->
                checki (Printf.sprintf "%s node %d deliveries" name i)
                  o.Cluster.expected_per_node d)
              o.Cluster.delivered_per_node)

let small count =
  {
    Node.default_workload with
    Node.profile = { Profile.default with Profile.count };
  }

let with_profile config f =
  { config with Node.profile = f config.Node.profile }

let suites =
  [
    ( "runtime",
      [
        Alcotest.test_case "clock monotone" `Quick test_clock_monotone;
        Alcotest.test_case "trace io round-trip" `Quick test_trace_io_roundtrip;
        Alcotest.test_case "trace io keep filter" `Quick test_trace_io_keep_filter;
        Alcotest.test_case "trace io rejects garbage" `Quick test_trace_io_rejects_garbage;
        Alcotest.test_case "merge stable by time" `Quick test_merge_sorts_stably;
        Alcotest.test_case "ppoll wait in microseconds" `Quick test_wait_us;
        Alcotest.test_case "timer lateness quantile" `Quick test_late_quantile;
      ] );
    ( "live-cluster",
      [
        cluster_case "ct flood" (small 8);
        cluster_case "mr flood"
          (with_profile (small 8) (fun p -> { p with Profile.algo = Stack.Mr }));
        cluster_case "ct fd-relay"
          (with_profile (small 8) (fun p ->
               { p with Profile.broadcast = Stack.Fd_relay }));
        cluster_case "ct uniform on-ids"
          (with_profile (small 8) (fun p ->
               {
                 p with
                 Profile.broadcast = Stack.Uniform;
                 ordering = Abcast.Consensus_on_ids;
               }));
        Alcotest.test_case "net counters reach the outcome" `Slow
          test_cluster_net_counters;
      ] );
  ]
