(* Tests for the property checker itself: hand-built traces with seeded
   violations must be flagged; clean traces must pass. *)

module Trace = Ics_sim.Trace
module Checker = Ics_checker.Checker
module Msg_id = Ics_sim.Msg_id

let mid origin seq = Msg_id.make ~origin ~seq
let m00 = mid 0 0  (* m00 *)
let ida = mid 0 0
let idb = mid 1 0
let idz = mid 2 9
let ghost = mid 9 999

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let mk_trace events =
  let tr = Trace.create () in
  List.iter (fun (time, pid, kind) -> Trace.record tr ~time ~pid kind) events;
  tr

let run_of events ~n = Checker.Run.of_trace (mk_trace events) ~n

let has run checker property =
  Test_util.has_violation (checker run) property

(* A clean three-process exchange: p0 broadcasts, everyone delivers. *)
let clean_events =
  [
    (1.0, 0, Trace.Abroadcast m00);
    (1.0, 0, Trace.Rbroadcast m00);
    (1.5, 0, Trace.Rdeliver m00);
    (2.0, 1, Trace.Rdeliver m00);
    (2.0, 2, Trace.Rdeliver m00);
    (2.1, 0, Trace.Propose (1, [ m00 ]));
    (2.2, 1, Trace.Propose (1, [ m00 ]));
    (2.3, 2, Trace.Propose (1, [ m00 ]));
    (3.0, 0, Trace.Decide (1, [ m00 ]));
    (3.0, 1, Trace.Decide (1, [ m00 ]));
    (3.0, 2, Trace.Decide (1, [ m00 ]));
    (3.5, 0, Trace.Adeliver m00);
    (3.5, 1, Trace.Adeliver m00);
    (3.5, 2, Trace.Adeliver m00);
  ]

let test_clean_trace_passes () =
  let run = run_of clean_events ~n:3 in
  Test_util.assert_clean_verdict "abcast" (Checker.check_atomic_broadcast run);
  Test_util.assert_clean_verdict "consensus" (Checker.check_consensus run);
  Test_util.assert_clean_verdict "no-loss" (Checker.check_no_loss run);
  Test_util.assert_clean_verdict "rb" (Checker.check_reliable_broadcast run);
  Test_util.assert_clean_verdict "all" (Checker.check_all_abcast run)

let test_validity_violation_detected () =
  (* p0 is correct, abroadcasts, never adelivers its own message. *)
  let events =
    [ (1.0, 0, Trace.Abroadcast m00) ]
  in
  let run = run_of events ~n:3 in
  checkb "validity flagged" true (has run Checker.check_atomic_broadcast "abcast.validity")

let test_validity_crashed_broadcaster_exempt () =
  let events = [ (1.0, 0, Trace.Abroadcast m00); (2.0, 0, Trace.Crash) ] in
  let run = run_of events ~n:3 in
  checkb "faulty broadcaster exempt" false
    (has run Checker.check_atomic_broadcast "abcast.validity")

let test_duplicate_delivery_detected () =
  let events =
    [
      (1.0, 0, Trace.Abroadcast m00);
      (2.0, 0, Trace.Adeliver m00);
      (2.0, 1, Trace.Adeliver m00);
      (2.0, 2, Trace.Adeliver m00);
      (3.0, 1, Trace.Adeliver m00);
    ]
  in
  let run = run_of events ~n:3 in
  checkb "duplicate flagged" true
    (has run Checker.check_atomic_broadcast "abcast.uniform-integrity")

let test_unsourced_delivery_detected () =
  let events = [ (2.0, 1, Trace.Adeliver ghost) ] in
  let run = run_of events ~n:3 in
  checkb "ghost flagged" true
    (has run Checker.check_atomic_broadcast "abcast.uniform-integrity")

let test_uniform_agreement_violation () =
  (* p0 delivers then crashes; p1/p2 never deliver. *)
  let events =
    [
      (1.0, 0, Trace.Abroadcast m00);
      (2.0, 0, Trace.Adeliver m00);
      (3.0, 0, Trace.Crash);
    ]
  in
  let run = run_of events ~n:3 in
  checkb "uniform agreement flagged" true
    (has run Checker.check_atomic_broadcast "abcast.uniform-agreement")

let test_total_order_violation () =
  let events =
    [
      (1.0, 0, Trace.Abroadcast ida);
      (1.0, 1, Trace.Abroadcast idb);
      (2.0, 0, Trace.Adeliver ida);
      (2.1, 0, Trace.Adeliver idb);
      (2.0, 1, Trace.Adeliver idb);
      (2.1, 1, Trace.Adeliver ida);
      (2.0, 2, Trace.Adeliver ida);
      (2.1, 2, Trace.Adeliver idb);
    ]
  in
  let run = run_of events ~n:3 in
  checkb "order flagged" true
    (has run Checker.check_atomic_broadcast "abcast.uniform-total-order")

let test_prefix_sequences_allowed () =
  (* A crashed process's shorter sequence is fine as long as it is a
     prefix. *)
  let events =
    [
      (1.0, 0, Trace.Abroadcast ida);
      (1.1, 1, Trace.Abroadcast idb);
      (2.0, 0, Trace.Adeliver ida);
      (2.1, 0, Trace.Adeliver idb);
      (2.0, 1, Trace.Adeliver ida);
      (2.1, 1, Trace.Adeliver idb);
      (2.0, 2, Trace.Adeliver ida);
      (2.05, 2, Trace.Crash);
    ]
  in
  let run = run_of events ~n:3 in
  checkb "prefix ok" false
    (has run Checker.check_atomic_broadcast "abcast.uniform-total-order")

let test_consensus_agreement_violation () =
  let events =
    [
      (1.0, 0, Trace.Propose (1, [ ida ]));
      (1.0, 1, Trace.Propose (1, [ idb ]));
      (2.0, 0, Trace.Decide (1, [ ida ]));
      (2.0, 1, Trace.Decide (1, [ idb ]));
      (2.0, 2, Trace.Decide (1, [ ida ]));
    ]
  in
  let run = run_of events ~n:3 in
  checkb "disagreement flagged" true
    (has run Checker.check_consensus "consensus.uniform-agreement")

let test_consensus_integrity_violation () =
  let events =
    [
      (1.0, 0, Trace.Propose (1, [ ida ]));
      (2.0, 0, Trace.Decide (1, [ ida ]));
      (3.0, 0, Trace.Decide (1, [ ida ]));
      (2.0, 1, Trace.Decide (1, [ ida ]));
      (2.0, 2, Trace.Decide (1, [ ida ]));
    ]
  in
  let run = run_of events ~n:3 in
  checkb "double decide flagged" true
    (has run Checker.check_consensus "consensus.uniform-integrity")

let test_consensus_validity_violation () =
  let events =
    [
      (1.0, 0, Trace.Propose (1, [ ida ]));
      (2.0, 0, Trace.Decide (1, [ idz ]));
      (2.0, 1, Trace.Decide (1, [ idz ]));
      (2.0, 2, Trace.Decide (1, [ idz ]));
    ]
  in
  let run = run_of events ~n:3 in
  checkb "unproposed decision flagged" true
    (has run Checker.check_consensus "consensus.uniform-validity")

let test_consensus_termination_violations () =
  (* Decided elsewhere but not by a correct process. *)
  let events =
    [
      (1.0, 0, Trace.Propose (1, [ ida ]));
      (2.0, 0, Trace.Decide (1, [ ida ]));
      (2.0, 1, Trace.Decide (1, [ ida ]));
    ]
  in
  let run = run_of events ~n:3 in
  checkb "missing decider flagged" true
    (has run Checker.check_consensus "consensus.termination");
  (* Proposed by a correct process, never decided anywhere. *)
  let events2 = [ (1.0, 0, Trace.Propose (1, [ ida ])) ] in
  let run2 = run_of events2 ~n:3 in
  checkb "undecided instance flagged" true
    (has run2 Checker.check_consensus "consensus.termination")

let test_no_loss_violation () =
  (* The decided id's payload was only ever held by the crashed process. *)
  let events =
    [
      (1.0, 0, Trace.Abroadcast m00);
      (1.1, 0, Trace.Rdeliver m00);
      (2.0, 0, Trace.Propose (1, [ m00 ]));
      (3.0, 0, Trace.Decide (1, [ m00 ]));
      (3.0, 1, Trace.Decide (1, [ m00 ]));
      (3.0, 2, Trace.Decide (1, [ m00 ]));
      (4.0, 0, Trace.Crash);
    ]
  in
  let run = run_of events ~n:3 in
  checkb "no-loss flagged" true (has run Checker.check_no_loss "indirect-consensus.no-loss")

let test_no_loss_strict_vs_eventual () =
  (* Payload reaches a correct process only AFTER the decision: the
     eventual reading passes, the paper's strict reading fails. *)
  let events =
    [
      (1.0, 0, Trace.Abroadcast m00);
      (1.1, 0, Trace.Rdeliver m00);
      (2.0, 0, Trace.Propose (1, [ m00 ]));
      (3.0, 0, Trace.Decide (1, [ m00 ]));
      (3.0, 1, Trace.Decide (1, [ m00 ]));
      (3.0, 2, Trace.Decide (1, [ m00 ]));
      (4.0, 1, Trace.Rdeliver m00);
      (5.0, 0, Trace.Crash);
    ]
  in
  let run = run_of events ~n:3 in
  checkb "eventual passes" false
    (has run (fun r -> Checker.check_no_loss r) "indirect-consensus.no-loss");
  checkb "strict fails" true
    (has run
       (fun r -> Checker.check_no_loss ~strict:true r)
       "indirect-consensus.no-loss-strict");
  (* A pre-decision holder satisfies both. *)
  let ok_events =
    [
      (1.0, 0, Trace.Abroadcast m00);
      (1.1, 1, Trace.Rdeliver m00);
      (3.0, 0, Trace.Propose (1, [ m00 ]));
      (3.5, 0, Trace.Decide (1, [ m00 ]));
      (3.5, 1, Trace.Decide (1, [ m00 ]));
      (3.5, 2, Trace.Decide (1, [ m00 ]));
    ]
  in
  let ok_run = run_of ok_events ~n:3 in
  checkb "strict passes with pre-decision holder" false
    (has ok_run
       (fun r -> Checker.check_no_loss ~strict:true r)
       "indirect-consensus.no-loss-strict")

let test_no_loss_satisfied_by_urb_delivery () =
  let events =
    [
      (1.0, 0, Trace.Abroadcast m00);
      (1.5, 1, Trace.Urb_deliver m00);
      (2.0, 0, Trace.Propose (1, [ m00 ]));
      (3.0, 0, Trace.Decide (1, [ m00 ]));
      (3.0, 1, Trace.Decide (1, [ m00 ]));
      (3.0, 2, Trace.Decide (1, [ m00 ]));
      (4.0, 0, Trace.Crash);
    ]
  in
  let run = run_of events ~n:3 in
  checkb "urb delivery counts as holding" false
    (has run Checker.check_no_loss "indirect-consensus.no-loss")

let test_rb_agreement_not_uniform () =
  (* A faulty process delivering alone violates *uniform* agreement but
     not plain agreement. *)
  let events =
    [
      (1.0, 0, Trace.Abroadcast m00);
      (1.0, 0, Trace.Rbroadcast m00);
      (1.5, 0, Trace.Rdeliver m00);
      (2.0, 0, Trace.Crash);
    ]
  in
  let run = run_of events ~n:3 in
  checkb "plain rb tolerates" false
    (Test_util.has_violation (Checker.check_reliable_broadcast run) "rb.agreement");
  checkb "urb flags" true
    (Test_util.has_violation (Checker.check_uniform_broadcast run) "urb.uniform-agreement")

let test_run_view () =
  let events =
    [
      (1.0, 0, Trace.Abroadcast ida);
      (2.0, 1, Trace.Crash);
      (3.0, 0, Trace.Adeliver ida);
    ]
  in
  let run = run_of events ~n:3 in
  Alcotest.(check (list int)) "correct" [ 0; 2 ] (Checker.Run.correct run);
  Alcotest.(check (list int)) "crashed" [ 1 ] (Checker.Run.crashed run);
  Alcotest.(check (option (float 1e-9))) "crash time" (Some 2.0) (Checker.Run.crash_time run 1);
  checki "abroadcasts" 1 (List.length (Checker.Run.abroadcasts run));
  Alcotest.(check (list string)) "adeliveries" [ "p0#0" ]
    (List.map Msg_id.to_string (Checker.Run.adeliveries run 0))

let test_verdict_pp () =
  let run = run_of [ (2.0, 1, Trace.Adeliver ghost) ] ~n:2 in
  let v = Checker.check_atomic_broadcast run in
  let s = Format.asprintf "%a" Checker.pp_verdict v in
  checkb "mentions property" true (Test_util.contains s "abcast.uniform-integrity");
  let clean = Checker.check_no_loss run in
  checkb "ok rendering" true (Test_util.contains (Format.asprintf "%a" Checker.pp_verdict clean) "OK")

(* ------------------------------------------------------------------ *)
(* The application battery: each test pins the full violation list     *)
(* (property, culprit, detail) in report order.                        *)
(* ------------------------------------------------------------------ *)

let app_report run =
  List.map
    (fun (v : Checker.violation) -> (v.Checker.property, v.Checker.culprit, v.Checker.detail))
    (Checker.check_app run).Checker.violations

let check_app_report name expected run =
  Alcotest.(check (list (triple string (option int) string))) name expected (app_report run)

(* Submissions from each client's home replica, then every replica
   applying the same order. *)
let submit_apply_all ~n ~at cmds =
  List.map (fun (home, (c, r)) -> (at, home, Trace.App_submit (c, r))) cmds
  @ List.concat_map
      (fun p -> List.map (fun (_, (c, r)) -> (at +. 1.0, p, Trace.App_applied (c, r))) cmds)
      (List.init n (fun p -> p))

let test_app_clean_multi_client () =
  let cmds = [ (0, (0, 0)); (1, (1, 0)); (2, (2, 0)); (0, (0, 1)); (1, (1, 1)); (2, (2, 1)) ] in
  let hashes =
    List.concat_map
      (fun p -> [ (3.0, p, Trace.App_hash (3, 0xabcL)); (4.0, p, Trace.App_hash (6, 0xdefL)) ])
      [ 0; 1; 2 ]
  in
  let run = run_of (submit_apply_all ~n:3 ~at:1.0 cmds @ hashes) ~n:3 in
  let v = Checker.check_app run in
  Test_util.assert_clean_verdict "app" v;
  Alcotest.(check (list string)) "checked"
    [ "app.probes"; "app.dedup"; "app.order"; "app.hash-agreement"; "app.progress" ]
    v.Checker.checked

let test_app_probes_reported () =
  let events =
    [
      (1.0, 2, Trace.App_violation "conservation: balances sum to 7, expected 8");
      (2.0, 0, Trace.App_violation "gap: client 3 req 2 after req 0");
    ]
  in
  check_app_report "probes in trace order"
    [
      ("app.probes", Some 2, "conservation: balances sum to 7, expected 8");
      ("app.probes", Some 0, "gap: client 3 req 2 after req 0");
    ]
    (run_of events ~n:3)

let test_app_dedup_reported () =
  let events =
    submit_apply_all ~n:3 ~at:1.0 [ (0, (0, 0)); (1, (1, 0)) ]
    @ [ (5.0, 1, Trace.App_applied (0, 0)); (6.0, 2, Trace.App_applied (1, 0)) ]
  in
  check_app_report "one dedup per replayed effect"
    [
      ("app.dedup", Some 1, "client 0 req 0 took effect twice");
      ("app.dedup", Some 2, "client 1 req 0 took effect twice");
    ]
    (run_of events ~n:3)

let test_app_order_reported () =
  let cmds = [ (0, (0, 0)); (0, (0, 1)); (0, (0, 2)) ] in
  let events =
    List.map (fun (home, (c, r)) -> (1.0, home, Trace.App_submit (c, r))) cmds
    @ List.concat_map
        (fun p -> List.map (fun (_, (c, r)) -> (2.0, p, Trace.App_applied (c, r))) cmds)
        [ 0; 1 ]
    (* p2 applies req 2 first: both earlier reqs are then out of order
       against the watermark, which never moves backwards. *)
    @ [
        (2.0, 2, Trace.App_applied (0, 2));
        (2.1, 2, Trace.App_applied (0, 0));
        (2.2, 2, Trace.App_applied (0, 1));
      ]
  in
  check_app_report "order against the per-client watermark"
    [
      ("app.order", Some 2, "client 0 req 0 applied after req 2");
      ("app.order", Some 2, "client 0 req 1 applied after req 2");
    ]
    (run_of events ~n:3)

let test_app_hash_agreement_reported () =
  let events =
    [
      (1.0, 0, Trace.App_hash (8, 0xaaL));
      (1.0, 1, Trace.App_hash (8, 0xbbL));
      (1.0, 2, Trace.App_hash (8, 0xaaL));
      (2.0, 2, Trace.App_hash (4, 0x2L));
      (2.0, 0, Trace.App_hash (4, 0x1L));
      (2.0, 1, Trace.App_hash (4, 0x3L));
    ]
  in
  check_app_report "cursor-sorted, against each cursor's first reporter"
    [
      ("app.hash-agreement", Some 0, "state hash 1 at cursor 4, but p2 hashed 2");
      ("app.hash-agreement", Some 1, "state hash 3 at cursor 4, but p2 hashed 2");
      ("app.hash-agreement", Some 1, "state hash bb at cursor 8, but p0 hashed aa");
    ]
    (run_of events ~n:3)

let test_app_progress_reported () =
  let events =
    [
      (1.0, 0, Trace.App_submit (0, 0));
      (1.0, 1, Trace.App_submit (1, 0));
      (* A retry reuses the identity and is checked once. *)
      (1.5, 1, Trace.App_submit (1, 0));
      (2.0, 0, Trace.App_applied (0, 0));
      (2.0, 2, Trace.App_applied (0, 0));
    ]
  in
  check_app_report "per submission, then per correct replica"
    [
      ("app.progress", Some 1, "client 0 req 0 submitted by correct p0 but never took effect");
      ("app.progress", Some 0, "client 1 req 0 submitted by correct p1 but never took effect");
      ("app.progress", Some 1, "client 1 req 0 submitted by correct p1 but never took effect");
      ("app.progress", Some 2, "client 1 req 0 submitted by correct p1 but never took effect");
    ]
    (run_of events ~n:3)

let test_app_progress_crashed_submitter_excused () =
  let events =
    [
      (1.0, 2, Trace.App_submit (2, 0));
      (1.0, 0, Trace.App_submit (0, 0));
      (2.0, 0, Trace.App_applied (0, 0));
      (3.0, 2, Trace.Crash);
    ]
  in
  (* p2's command is excused with its submitter; p0's still owes p1
     (and not the crashed p2). *)
  check_app_report "crashed submitter excused"
    [ ("app.progress", Some 1, "client 0 req 0 submitted by correct p0 but never took effect") ]
    (run_of events ~n:3)

let test_app_progress_exit_excused () =
  let events =
    [
      (1.0, 0, Trace.App_submit (0, 0));
      (1.0, 0, Trace.App_submit (0, 1));
      (1.0, 1, Trace.App_submit (1, 0));
      (1.5, 0, Trace.App_applied (0, 0));
      (1.5, 1, Trace.App_applied (0, 0));
      (2.0, 0, Trace.App_applied (1, 0));
      (2.0, 1, Trace.App_applied (1, 0));
      (2.0, 2, Trace.Exit);
      (3.0, 0, Trace.App_applied (0, 1));
      (3.0, 1, Trace.App_applied (0, 1));
    ]
  in
  (* p2 left at 2.0: (0, 1) first took effect after that and is excused;
     (0, 0) took effect before and (1, 0) at the exit instant, so p2
     still owes both. *)
  check_app_report "exit before first application excused"
    [
      ("app.progress", Some 2, "client 0 req 0 submitted by correct p0 but never took effect");
      ("app.progress", Some 2, "client 1 req 0 submitted by correct p1 but never took effect");
    ]
    (run_of events ~n:3)

let test_app_report_order_across_properties () =
  let events =
    [
      (1.0, 0, Trace.App_submit (0, 0));
      (1.0, 0, Trace.App_submit (0, 1));
      (2.0, 1, Trace.App_applied (0, 1));
      (2.1, 1, Trace.App_applied (0, 0));
      (2.0, 0, Trace.App_applied (0, 0));
      (2.1, 0, Trace.App_applied (0, 0));
      (3.0, 0, Trace.App_hash (1, 0x10L));
      (3.0, 1, Trace.App_hash (1, 0x11L));
      (4.0, 1, Trace.App_violation "cas: client 0 read a stale value");
    ]
  in
  check_app_report "probes, dedup/order by pid, hashes, progress"
    [
      ("app.probes", Some 1, "cas: client 0 read a stale value");
      ("app.dedup", Some 0, "client 0 req 0 took effect twice");
      ("app.order", Some 1, "client 0 req 0 applied after req 1");
      ("app.hash-agreement", Some 1, "state hash 11 at cursor 1, but p0 hashed 10");
      ("app.progress", Some 0, "client 0 req 1 submitted by correct p0 but never took effect");
    ]
    (run_of events ~n:2)

let suites =
  [
    ( "checker",
      [
        Alcotest.test_case "clean trace passes" `Quick test_clean_trace_passes;
        Alcotest.test_case "validity violation" `Quick test_validity_violation_detected;
        Alcotest.test_case "crashed broadcaster exempt" `Quick test_validity_crashed_broadcaster_exempt;
        Alcotest.test_case "duplicate delivery" `Quick test_duplicate_delivery_detected;
        Alcotest.test_case "unsourced delivery" `Quick test_unsourced_delivery_detected;
        Alcotest.test_case "uniform agreement" `Quick test_uniform_agreement_violation;
        Alcotest.test_case "total order" `Quick test_total_order_violation;
        Alcotest.test_case "prefix allowed" `Quick test_prefix_sequences_allowed;
        Alcotest.test_case "consensus agreement" `Quick test_consensus_agreement_violation;
        Alcotest.test_case "consensus integrity" `Quick test_consensus_integrity_violation;
        Alcotest.test_case "consensus validity" `Quick test_consensus_validity_violation;
        Alcotest.test_case "consensus termination" `Quick test_consensus_termination_violations;
        Alcotest.test_case "no-loss violation" `Quick test_no_loss_violation;
        Alcotest.test_case "no-loss strict vs eventual" `Quick test_no_loss_strict_vs_eventual;
        Alcotest.test_case "no-loss via urb" `Quick test_no_loss_satisfied_by_urb_delivery;
        Alcotest.test_case "rb vs urb agreement" `Quick test_rb_agreement_not_uniform;
        Alcotest.test_case "run view" `Quick test_run_view;
        Alcotest.test_case "verdict pp" `Quick test_verdict_pp;
        Alcotest.test_case "app clean multi-client" `Quick test_app_clean_multi_client;
        Alcotest.test_case "app probes report" `Quick test_app_probes_reported;
        Alcotest.test_case "app dedup report" `Quick test_app_dedup_reported;
        Alcotest.test_case "app order report" `Quick test_app_order_reported;
        Alcotest.test_case "app hash-agreement report" `Quick test_app_hash_agreement_reported;
        Alcotest.test_case "app progress report" `Quick test_app_progress_reported;
        Alcotest.test_case "app progress crashed submitter" `Quick
          test_app_progress_crashed_submitter_excused;
        Alcotest.test_case "app progress exit excusal" `Quick test_app_progress_exit_excused;
        Alcotest.test_case "app report order" `Quick test_app_report_order_across_properties;
      ] );
  ]
