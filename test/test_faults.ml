(* Tests for the fault-injection layer: nemesis plans, the retransmission
   channel, and the chaos harness built on both. *)

module Engine = Ics_sim.Engine
module Pid = Ics_sim.Pid
module Time = Ics_sim.Time
module Trace = Ics_sim.Trace
module Model = Ics_net.Model
module Message = Ics_net.Message
module Layer = Ics_net.Layer
module Retransmit = Ics_net.Retransmit
module Transport = Ics_net.Transport
module Host = Ics_net.Host
module Nemesis = Ics_faults.Nemesis
module Stack = Ics_core.Stack
module Abcast = Ics_core.Abcast
module Checker = Ics_checker.Checker
module Chaos = Ics_workload.Chaos
module Point = Ics_workload.Point

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let msg ?(layer = "test") ~src ~dst () =
  {
    Message.src;
    dst;
    layer = Layer.unregistered layer;
    payload = Message.Ping;
    body_bytes = 8;
    sent_at = 0.0;
  }

let mk_base n = Model.constant ~delay:1.0 ~n ~seed:1L ()

(* --- Nemesis ------------------------------------------------------------- *)

let test_drop_all () =
  let e = Engine.create ~n:2 () in
  let model, stats =
    Nemesis.apply ~engine:e ~seed:1L
      ~plan:[ Nemesis.Drop { link = Nemesis.any_link; prob = 1.0; window = Nemesis.always } ]
      ~base:(mk_base 2) ()
  in
  let arrived = ref 0 in
  for _ = 1 to 5 do
    Model.send model e (msg ~src:0 ~dst:1 ()) ~arrive:(fun () -> incr arrived)
  done;
  Engine.run e;
  checki "nothing arrives" 0 !arrived;
  checki "all drops counted" 5 stats.Model.Fault_stats.drops;
  checki "drops recorded in trace" 5
    (List.length
       (Trace.filter (Engine.trace e) (fun ev ->
            match ev.Trace.kind with Trace.Net_drop _ -> true | _ -> false)))

let test_partition_cuts_cross_group_only () =
  let e = Engine.create ~n:4 () in
  let plan =
    [
      Nemesis.Partition
        {
          groups = [ [ 0; 1 ]; [ 2; 3 ] ];
          window = Nemesis.window ~from_t:0.0 ~until_t:100.0;
        };
    ]
  in
  let model, stats = Nemesis.apply ~engine:e ~seed:1L ~plan ~base:(mk_base 4) () in
  let arrived = ref [] in
  let send ~at ~src ~dst =
    Engine.schedule e ~at (fun () ->
        Model.send model e (msg ~src ~dst ()) ~arrive:(fun () ->
            arrived := (src, dst) :: !arrived))
  in
  send ~at:1.0 ~src:0 ~dst:1;  (* same group: passes *)
  send ~at:1.0 ~src:0 ~dst:2;  (* cross group: cut *)
  send ~at:1.0 ~src:3 ~dst:1;  (* cross group, other direction: cut *)
  send ~at:150.0 ~src:0 ~dst:2;  (* after heal: passes *)
  Engine.run e;
  checki "two arrivals" 2 (List.length !arrived);
  checki "two partition drops" 2 stats.Model.Fault_stats.partition_drops;
  let marker k =
    List.length (Trace.filter (Engine.trace e) (fun ev -> ev.Trace.kind = k))
  in
  checki "partition start traced" 1 (marker (Trace.Partition_start "{0 1}|{2 3}"));
  checki "partition heal traced" 1 (marker (Trace.Partition_heal "{0 1}|{2 3}"))

let test_isolate_outbound_only () =
  let e = Engine.create ~n:3 () in
  let plan =
    [
      Nemesis.Isolate
        { pid = 1; inbound = false; outbound = true; window = Nemesis.always };
    ]
  in
  let model, stats = Nemesis.apply ~engine:e ~seed:1L ~plan ~base:(mk_base 3) () in
  let arrived = ref [] in
  let send ~src ~dst =
    Model.send model e (msg ~src ~dst ()) ~arrive:(fun () ->
        arrived := (src, dst) :: !arrived)
  in
  send ~src:1 ~dst:0;  (* outbound from the victim: cut *)
  send ~src:0 ~dst:1;  (* inbound to the victim: passes (asymmetric) *)
  Engine.run e;
  Alcotest.(check (list (pair int int))) "only inbound arrives" [ (0, 1) ] !arrived;
  checki "one partition drop" 1 stats.Model.Fault_stats.partition_drops

let test_crash_clause () =
  let e = Engine.create ~n:3 () in
  let _, stats =
    Nemesis.apply ~engine:e ~seed:1L
      ~plan:[ Nemesis.Crash { pid = 1; at = 5.0 } ]
      ~base:(mk_base 3) ()
  in
  Engine.run e;
  checkb "p1 dead" false (Engine.is_alive e 1);
  checki "crash counted" 1 stats.Model.Fault_stats.crashes

let test_nemesis_deterministic () =
  let outcomes seed =
    let e = Engine.create ~n:2 () in
    let model, stats =
      Nemesis.apply ~engine:e ~seed
        ~plan:
          [ Nemesis.Drop { link = Nemesis.any_link; prob = 0.5; window = Nemesis.always } ]
        ~base:(mk_base 2) ()
    in
    let arrived = ref 0 in
    for _ = 1 to 40 do
      Model.send model e (msg ~src:0 ~dst:1 ()) ~arrive:(fun () -> incr arrived)
    done;
    Engine.run e;
    (!arrived, stats.Model.Fault_stats.drops)
  in
  let a1 = outcomes 7L and a2 = outcomes 7L in
  Alcotest.(check (pair int int)) "same seed, same faults" a1 a2;
  let arrived, drops = a1 in
  checki "partial loss" 40 (arrived + drops);
  checkb "some dropped, some passed" true (arrived > 0 && drops > 0)

let test_plan_pp () =
  let plan =
    [
      Nemesis.Drop
        {
          link = { Nemesis.l_src = Some 0; l_dst = None; l_layer = Some "rb" };
          prob = 1.0;
          window = Nemesis.always;
        };
      Nemesis.Crash { pid = 0; at = 10.0 };
    ]
  in
  let s = Nemesis.plan_to_string plan in
  checkb "mentions drop" true (Test_util.contains s "drop(src=0,layer=rb");
  checkb "mentions crash" true (Test_util.contains s "crash(p0");
  checkb "single line" true (not (String.contains s '\n'))

(* --- Retransmission channel ---------------------------------------------- *)

(* Both adapters of the go-back-N channel under one harness: [send ~src
   ~dst k] queues one message whose in-order, exactly-once delivery at
   [dst] runs [k].  [over_wrap] drives {!Retransmit.wrap} through
   [Model.send] (losses from [Nemesis.apply]); [over_install] drives
   {!Retransmit.install} on a simulated transport (losses from
   [Nemesis.interposer]).  An empty plan installs no nemesis at all. *)
type harness = {
  engine : Engine.t;
  send : src:Pid.t -> dst:Pid.t -> (unit -> unit) -> unit;
  stats : Retransmit.stats;
}

let over_wrap ~n plan =
  let e = Engine.create ~n () in
  let base =
    if plan = [] then mk_base n
    else fst (Nemesis.apply ~engine:e ~seed:1L ~plan ~base:(mk_base n) ())
  in
  let model, stats = Retransmit.wrap base in
  {
    engine = e;
    stats;
    send = (fun ~src ~dst k -> Model.send model e (msg ~src ~dst ()) ~arrive:k);
  }

type Message.payload += Nth of int

let over_install ~n plan =
  let e = Engine.create ~n () in
  let t = Transport.create e ~model:(mk_base n) ~host:Host.instant in
  if plan <> [] then begin
    let mw, _ =
      Nemesis.interposer ~env:(Transport.env t) ~seed:1L ~plan ()
    in
    Transport.interpose t mw
  end;
  let stats = Retransmit.install t in
  let layer = Transport.intern t "test" in
  let on_arrival = Hashtbl.create 8 in
  for p = 0 to n - 1 do
    Transport.register t p ~layer (fun m ->
        match m.Message.payload with
        | Nth i -> (Hashtbl.find on_arrival i) ()
        | _ -> ())
  done;
  let next = ref 0 in
  {
    engine = e;
    stats;
    send =
      (fun ~src ~dst k ->
        let i = !next in
        incr next;
        Hashtbl.replace on_arrival i k;
        Transport.send t ~src ~dst ~layer ~body_bytes:8 (Nth i));
  }

let test_retransmit_lossless_passthrough over () =
  let h = over ~n:2 [] in
  let order = ref [] in
  for i = 1 to 5 do
    h.send ~src:0 ~dst:1 (fun () -> order := i :: !order)
  done;
  Engine.run ~until:200.0 h.engine;
  Alcotest.(check (list int)) "in order, exactly once" [ 1; 2; 3; 4; 5 ] (List.rev !order);
  checki "no retransmits on a clean link" 0 h.stats.Retransmit.retransmits;
  checki "one transmission per message" 5 h.stats.Retransmit.transmissions;
  checki "queue drained" 0 (Engine.pending h.engine)

let test_retransmit_recovers_from_drop_window over () =
  let h =
    over ~n:2
      [
        Nemesis.Drop
          {
            link = Nemesis.any_link;
            prob = 1.0;
            window = Nemesis.window ~from_t:0.0 ~until_t:12.0;
          };
      ]
  in
  let order = ref [] in
  Engine.schedule h.engine ~at:1.0 (fun () ->
      for i = 1 to 3 do
        h.send ~src:0 ~dst:1 (fun () -> order := i :: !order)
      done);
  Engine.run ~until:500.0 h.engine;
  Alcotest.(check (list int)) "all delivered in order after the window"
    [ 1; 2; 3 ] (List.rev !order);
  checkb "recovery needed retransmits" true (h.stats.Retransmit.retransmits > 0);
  checki "queue drained" 0 (Engine.pending h.engine)

let test_retransmit_restores_order over () =
  (* Slow only the first send by 5 ms: it enters the base model after the
     second one and arrives out of order underneath the channel. *)
  let h =
    over ~n:2
      [
        Nemesis.Slow
          {
            link = Nemesis.any_link;
            extra = 5.0;
            window = Nemesis.window ~from_t:0.0 ~until_t:2.0;
          };
      ]
  in
  let order = ref [] in
  Engine.schedule h.engine ~at:1.0 (fun () ->
      h.send ~src:0 ~dst:1 (fun () -> order := 1 :: !order));
  Engine.schedule h.engine ~at:3.0 (fun () ->
      h.send ~src:0 ~dst:1 (fun () -> order := 2 :: !order));
  Engine.run ~until:100.0 h.engine;
  Alcotest.(check (list int)) "FIFO restored" [ 1; 2 ] (List.rev !order);
  checkb "second frame was held" true (h.stats.Retransmit.held_out_of_order > 0)

let test_retransmit_purges_on_crash over () =
  let h =
    over ~n:2
      [ Nemesis.Drop { link = Nemesis.any_link; prob = 1.0; window = Nemesis.always } ]
  in
  let arrived = ref 0 in
  Engine.schedule h.engine ~at:1.0 (fun () ->
      h.send ~src:0 ~dst:1 (fun () -> incr arrived));
  Engine.crash_at h.engine 1 ~at:20.0;
  (* The destination is dead and every frame is dropped: without the
     crash-stop purge the retry loop would keep the queue non-empty
     forever and this horizon-less drain would never return. *)
  Engine.run ~until:100.0 h.engine;
  Engine.run h.engine;
  checki "nothing delivered" 0 !arrived;
  checki "queue fully drained" 0 (Engine.pending h.engine)

(* A crashed process takes no steps, so it must not acknowledge either:
   the frames go unacked and the sender's crash-stop purge retires them. *)
let test_retransmit_crashed_receiver_silent over () =
  let h = over ~n:2 [] in
  let arrived = ref 0 in
  Engine.crash_at h.engine 1 ~at:0.5;
  Engine.schedule h.engine ~at:1.0 (fun () ->
      for _ = 1 to 3 do
        h.send ~src:0 ~dst:1 (fun () -> incr arrived)
      done);
  Engine.run h.engine;
  checki "nothing delivered" 0 !arrived;
  checki "no acks from the dead" 0 h.stats.Retransmit.acks_sent;
  checki "queue drained" 0 (Engine.pending h.engine)

let test_retransmit_validates_params () =
  Alcotest.check_raises "bad params"
    (Invalid_argument "Retransmit.wrap: bad params") (fun () ->
      ignore
        (Retransmit.wrap
           ~params:{ Retransmit.default_params with backoff = 0.5 }
           (mk_base 2)))

(* The wire-level channel under a whole protocol stack: indirect CT over
   an ideal LAN, with a seeded drop/dup/delay interposer underneath
   [install].  Pins the full trace, so any change to the channel's
   sequencing, acking or retry schedule on the middleware path shows. *)
let test_wire_stack_pinned () =
  let config =
    {
      Stack.abcast_indirect with
      setup = Stack.Ideal_lan { delay = 1.0; jitter = 0.0 };
      fd_kind = Stack.Oracle 10.0;
      seed = 3L;
    }
  in
  let stack = Stack.create config in
  let transport = stack.Stack.transport in
  let plan =
    [
      Nemesis.Drop { link = Nemesis.any_link; prob = 0.15; window = Nemesis.always };
      Nemesis.Duplicate { link = Nemesis.any_link; prob = 0.1; window = Nemesis.always };
      Nemesis.Delay
        { link = Nemesis.any_link; prob = 0.2; max_extra = 5.0; window = Nemesis.always };
    ]
  in
  let mw, faults =
    Nemesis.interposer ~env:(Transport.env transport) ~seed:9L ~plan ()
  in
  Transport.interpose transport mw;
  let retx = Retransmit.install transport in
  for i = 0 to 9 do
    Engine.schedule stack.Stack.engine ~at:(1.0 +. (2.0 *. float_of_int i)) (fun () ->
        ignore (Stack.abroadcast stack ~src:(i mod 3) ~body_bytes:16))
  done;
  Stack.run ~until:5_000.0 stack;
  Test_util.assert_clean_verdict "wire stack"
    (Checker.check_all_abcast (Test_util.checker_run stack));
  checki "queue drained" 0 (Engine.pending stack.Stack.engine);
  Alcotest.(check string) "trace digest" "2ff3b5ce4a1c62c18d598cd46492f801"
    (Point.digest (Engine.trace stack.Stack.engine));
  Alcotest.(check (list (pair string int))) "channel counters"
    [
      ("transmissions", 128);
      ("retransmits", 36);
      ("acks", 117);
      ("dups-suppressed", 22);
      ("held-out-of-order", 18);
    ]
    (Retransmit.stats_to_list retx);
  Alcotest.(check (list (pair string int))) "fault counters"
    [ ("drops", 40); ("dups", 23); ("delays", 38) ]
    (List.filter
       (fun (k, _) -> k = "drops" || k = "dups" || k = "delays")
       (Model.Fault_stats.to_list faults))

(* --- Scripted-rule fault counters (Stack.fault_counters) ------------------ *)

let test_scripted_counters_surface () =
  let config =
    {
      Stack.default_config with
      setup = Stack.Ideal_lan { delay = 1.0; jitter = 0.0 };
      fd_kind = Stack.Oracle 10.0;
    }
  in
  let rule (m : Message.t) =
    if Message.layer_name m = "rb" && m.Message.src = 0 then Model.Drop else Model.Pass
  in
  let stack =
    Test_util.run_stack ~rule config [ (1.0, 0, 16); (5.0, 1, 16) ]
  in
  let counters = Stack.fault_counters stack in
  let get k = try List.assoc k counters with Not_found -> 0 in
  checkb "drops counted" true (get "drops" > 0);
  checki "per-layer attribution" (get "drops") (get "drops[rb]");
  (* A clean stack exposes no counters at all. *)
  let clean = Test_util.run_stack config [ (1.0, 0, 16) ] in
  Alcotest.(check (list (pair string int))) "no faults, no counters" []
    (Stack.fault_counters clean)

(* --- Post-crash silence --------------------------------------------------- *)

let test_no_steps_after_crash () =
  let config =
    {
      Stack.default_config with
      setup = Stack.Ideal_lan { delay = 1.0; jitter = 0.0 };
      fd_kind = Stack.Oracle 10.0;
    }
  in
  let stack =
    Test_util.run_stack ~crashes:[ (0, 10.0) ] config
      [ (1.0, 0, 16); (2.0, 1, 16); (20.0, 2, 16) ]
  in
  let late_p0_events =
    Trace.filter
      (Engine.trace stack.Stack.engine)
      (fun ev ->
        ev.Trace.pid = 0 && ev.Trace.time > 10.0 && ev.Trace.kind <> Trace.Crash)
  in
  checki "a crashed process takes no further protocol steps" 0
    (List.length late_p0_events);
  (* An abroadcast call on behalf of a dead process is a no-op. *)
  let before = List.length (Abcast.delivered_sequence stack.Stack.abcast 1) in
  ignore (Stack.abroadcast stack ~src:0 ~body_bytes:16);
  Stack.run ~until:30_000.0 stack;
  checki "dead-origin abroadcast delivers nothing"
    before
    (List.length (Abcast.delivered_sequence stack.Stack.abcast 1))

(* --- Chaos harness -------------------------------------------------------- *)

let test_chaos_indirect_clean_under_drops () =
  let r = Chaos.run_one Chaos.Ct_indirect Chaos.Drop ~seed:1L in
  checkb "passed" true (Chaos.passed r);
  checkb "faults were actually injected" true
    (List.mem_assoc "drops" r.Chaos.faults);
  checkb "channel worked for it" true (List.length r.Chaos.retx > 0)

let test_chaos_blackout_breaks_on_ids_only () =
  let faulty = Chaos.run_one Chaos.Ct_on_ids Chaos.Blackout ~seed:1L in
  checkb "on-ids violates" true (not (Chaos.passed faulty));
  checkb "no-loss violated" true
    (Test_util.has_violation faulty.Chaos.verdict "indirect-consensus.no-loss");
  checkb "validity violated" true
    (Test_util.has_violation faulty.Chaos.verdict "abcast.validity");
  let indirect = Chaos.run_one Chaos.Ct_indirect Chaos.Blackout ~seed:1L in
  checkb "indirect stays clean under the same plan" true (Chaos.passed indirect);
  let mr = Chaos.run_one Chaos.Mr_indirect Chaos.Blackout ~seed:1L in
  checkb "mr-indirect stays clean too" true (Chaos.passed mr)

(* The satellite pair around strict no-loss: over fair-lossy links the
   stack's quasi-reliable-channel assumption is broken and even the correct
   algorithm fails (seed pinned to a failing run); the retransmission
   channel restores the assumption and the same run is clean. *)
let test_strict_no_loss_needs_retransmission () =
  let with_retx = Chaos.run_one ~retransmit:true Chaos.Ct_indirect Chaos.Drop ~seed:2L in
  checkb "with retransmission: all properties (incl. strict no-loss) hold" true
    (Checker.ok with_retx.Chaos.verdict && with_retx.Chaos.quiescent);
  let without = Chaos.run_one ~retransmit:false Chaos.Ct_indirect Chaos.Drop ~seed:2L in
  checkb "without: the lossy link breaks the stack" true
    (not (Checker.ok without.Chaos.verdict))

let test_chaos_replay_bit_identical () =
  let a = Chaos.run_one Chaos.Ct_on_ids Chaos.Blackout ~seed:3L in
  let b = Chaos.run_one Chaos.Ct_on_ids Chaos.Blackout ~seed:3L in
  Alcotest.(check string) "same fingerprint" a.Chaos.fingerprint b.Chaos.fingerprint;
  Alcotest.(check (list (pair string int))) "same fault counters"
    a.Chaos.faults b.Chaos.faults;
  checki "same violation count"
    (List.length a.Chaos.verdict.Checker.violations)
    (List.length b.Chaos.verdict.Checker.violations);
  let c = Chaos.run_one Chaos.Ct_on_ids Chaos.Blackout ~seed:4L in
  checkb "different seed, different run" true
    (c.Chaos.fingerprint <> a.Chaos.fingerprint)

let test_chaos_sweep_and_report () =
  let cells =
    Chaos.sweep ~seeds:2 ~stacks:[ Chaos.Ct_indirect; Chaos.Ct_on_ids ]
      ~plans:[ Chaos.Drop; Chaos.Blackout ] ()
  in
  checki "four cells" 4 (List.length cells);
  checkb "indirect clean, on-ids dirty" true (Chaos.indirect_clean cells);
  let faulty_cell =
    List.find
      (fun c -> c.Chaos.c_stack = Chaos.Ct_on_ids && c.Chaos.c_plan = Chaos.Blackout)
      cells
  in
  checki "every blackout seed fails on-ids" 2 (List.length faulty_cell.Chaos.failures);
  let report = Format.asprintf "%a" (Chaos.report ~verbose:false) cells in
  checkb "matrix rendered" true (Test_util.contains report "ct-indirect");
  checkb "failure is replayable" true (Test_util.contains report "--seed-base");
  let hint = Chaos.replay_hint (List.hd faulty_cell.Chaos.failures) in
  checkb "hint names the cell" true
    (Test_util.contains hint "--stacks ct-on-ids --plans blackout")

(* A replay line must name the whole cell: parsed back through the chaos
   command's own flag set, a batched, pipelined, app-hosting cell's hint
   yields that cell again — same knobs, same trace fingerprint. *)
let test_chaos_hint_round_trip () =
  let batching = { Ics_core.Abcast.batch = 4; pipeline = 2; flush_ms = 1.0 } in
  let r = Chaos.run_one ~batching ~app:true Chaos.Ct_indirect Chaos.Drop ~seed:3L in
  let hint = Chaos.replay_hint r in
  let argv =
    match String.split_on_char ' ' hint with
    | "ics_cli" :: args -> Array.of_list args
    | _ -> Alcotest.failf "not a CLI line: %s" hint
  in
  let cmd = Cmdliner.Cmd.v (Cmdliner.Cmd.info "chaos") Cli_terms.chaos_cells in
  match Cmdliner.Cmd.eval_value ~argv cmd with
  | Ok (`Ok (c : Cli_terms.chaos_cells)) ->
      checkb "stack" true (c.Cli_terms.stacks = [ r.Chaos.stack ]);
      checkb "plan" true (c.Cli_terms.plans = [ r.Chaos.plan_kind ]);
      checki "seeds" 1 c.Cli_terms.seeds;
      checkb "seed" true (c.Cli_terms.seed_base = r.Chaos.seed);
      checkb "batching" true (c.Cli_terms.batching = batching);
      checkb "app" true c.Cli_terms.app;
      checkb "retransmit" true c.Cli_terms.retransmit;
      checkb "sim backend" true (c.Cli_terms.backend = `Sim);
      let again =
        Chaos.run_one ~backend:c.Cli_terms.backend ~batching:c.Cli_terms.batching
          ~app:c.Cli_terms.app ~retransmit:c.Cli_terms.retransmit ?n:c.Cli_terms.n
          (List.hd c.Cli_terms.stacks) (List.hd c.Cli_terms.plans)
          ~seed:c.Cli_terms.seed_base
      in
      Alcotest.(check string) "same run" r.Chaos.fingerprint again.Chaos.fingerprint
  | _ -> Alcotest.failf "hint did not parse: %s" hint

(* The nondeterminism fence on the parallel sweep: a domains-wide sweep
   must agree with the sequential one on every run's fingerprint (not
   just the failure lists), and both must agree with a fingerprint
   pinned when the sweep was single-domain only — so neither the
   parallel merge nor domain scheduling can move a single trace byte.

   The domain-spawning half runs in a forked child: this OCaml runtime
   forbids [Unix.fork] in any process that has {e ever} spawned a
   domain, and later suites fork live clusters — the same reason
   {!Chaos.sweep} itself forces [jobs = 1] on the live backend. *)
let test_chaos_jobs_fingerprint_identical () =
  let stacks = [ Chaos.Ct_indirect; Chaos.Ct_on_ids ] in
  let plans = [ Chaos.Drop; Chaos.Blackout ] in
  let fingerprints jobs =
    Chaos.sweep_results ~seed_base:2L ~seeds:2 ~jobs ~stacks ~plans ()
    |> List.concat_map (fun (_, results) ->
           List.map (fun r -> r.Chaos.fingerprint) results)
  in
  let seq = fingerprints 1 in
  checki "one fingerprint per run" 8 (List.length seq);
  Alcotest.(check string) "first run matches the single-domain pin"
    "4bc2be962988606fdb1a205603e94b6f" (List.hd seq);
  match Unix.fork () with
  | 0 ->
      let status =
        match fingerprints 4 = seq with
        | true ->
            if Chaos.replay_check ~jobs:4 ~seed_base:2L ~stacks ~plans () = []
            then 0
            else 3
        | false -> 2
        | exception e ->
            Printf.eprintf "parallel sweep raised: %s\n%!" (Printexc.to_string e);
            4
      in
      Unix._exit status
  | pid -> (
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, Unix.WEXITED 2 ->
          Alcotest.fail "jobs=4 sweep fingerprints differ from jobs=1"
      | _, Unix.WEXITED 3 ->
          Alcotest.fail "replay check found mismatches at jobs=4"
      | _, Unix.WEXITED c ->
          Alcotest.fail (Printf.sprintf "parallel sweep child exited %d" c)
      | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
          Alcotest.fail (Printf.sprintf "parallel sweep child killed by signal %d" s))

let suites =
  [
    ( "nemesis",
      [
        Alcotest.test_case "drop-all loses everything" `Quick test_drop_all;
        Alcotest.test_case "partition cuts cross-group" `Quick
          test_partition_cuts_cross_group_only;
        Alcotest.test_case "asymmetric isolation" `Quick test_isolate_outbound_only;
        Alcotest.test_case "crash clause" `Quick test_crash_clause;
        Alcotest.test_case "seeded determinism" `Quick test_nemesis_deterministic;
        Alcotest.test_case "plan rendering" `Quick test_plan_pp;
      ] );
    ( "retransmit",
      [
        Alcotest.test_case "lossless passthrough" `Quick
          (test_retransmit_lossless_passthrough over_wrap);
        Alcotest.test_case "recovers from drop window" `Quick
          (test_retransmit_recovers_from_drop_window over_wrap);
        Alcotest.test_case "restores FIFO order" `Quick
          (test_retransmit_restores_order over_wrap);
        Alcotest.test_case "purges on crash" `Quick
          (test_retransmit_purges_on_crash over_wrap);
        Alcotest.test_case "crashed receiver stays silent" `Quick
          (test_retransmit_crashed_receiver_silent over_wrap);
        Alcotest.test_case "validates params" `Quick test_retransmit_validates_params;
      ] );
    ( "retransmit-wire",
      [
        Alcotest.test_case "lossless passthrough" `Quick
          (test_retransmit_lossless_passthrough over_install);
        Alcotest.test_case "recovers from drop window" `Quick
          (test_retransmit_recovers_from_drop_window over_install);
        Alcotest.test_case "restores FIFO order" `Quick
          (test_retransmit_restores_order over_install);
        Alcotest.test_case "purges on crash" `Quick
          (test_retransmit_purges_on_crash over_install);
        Alcotest.test_case "crashed receiver stays silent" `Quick
          (test_retransmit_crashed_receiver_silent over_install);
        Alcotest.test_case "stack pinned" `Quick test_wire_stack_pinned;
      ] );
    ( "fault-accounting",
      [
        Alcotest.test_case "scripted counters surface" `Quick
          test_scripted_counters_surface;
        Alcotest.test_case "no steps after crash" `Quick test_no_steps_after_crash;
      ] );
    ( "chaos",
      [
        Alcotest.test_case "indirect clean under drops" `Quick
          test_chaos_indirect_clean_under_drops;
        Alcotest.test_case "blackout breaks on-ids only" `Quick
          test_chaos_blackout_breaks_on_ids_only;
        Alcotest.test_case "strict no-loss needs retransmission" `Quick
          test_strict_no_loss_needs_retransmission;
        Alcotest.test_case "replay is bit-identical" `Quick
          test_chaos_replay_bit_identical;
        Alcotest.test_case "sweep and report" `Quick test_chaos_sweep_and_report;
        Alcotest.test_case "replay hint round-trips the cell" `Quick
          test_chaos_hint_round_trip;
        Alcotest.test_case "parallel sweep is bit-identical" `Quick
          test_chaos_jobs_fingerprint_identical;
      ] );
  ]
