(* Per-layer metrics of traced runs.  Every traced run prints the whole
   list; a layer the workload bypasses reads 0 (the benchmark never calls
   into it there), so each name has one unit and one meaning across
   workloads. *)

module Trace = Ics_sim.Trace

(* The hot wire tags and the transport layer each one travels on. *)
let codec_tags =
  [
    ("rb.ring", "rb");
    ("ct.est", "consensus");
    ("ct.ack", "consensus");
    ("ct.decide", "consensus");
    ("app.submit", "app");
  ]

let all =
  [
    ("sim.run_s", "s");
    ("sim.events_per_abcast", "count");
    ("core.minor_words_per_abcast", "words");
    ("net.msgs_per_abcast.rb", "count");
    ("net.msgs_per_abcast.consensus", "count");
    ("net.bytes_per_abcast.rb", "B");
    ("net.bytes_per_abcast.consensus", "B");
    ("app.on_deliver_s", "s");
    ("checker.of_trace_s", "s");
    ("checker.abcast_s", "s");
    ("checker.app_s", "s");
  ]
  @ List.concat_map
      (fun s -> [ (s ^ ".mean", "ms"); (s ^ ".p50", "ms") ])
      (Array.to_list Stages.names)
  @ [
      ("stages.attributed_share", "ratio");
      ("stages.unattributed_pairs", "count");
      ("runtime.cpu_user_us_per_msg", "us");
      ("runtime.cpu_sys_us_per_msg", "us");
      ("core.ids_per_decide", "count");
      ("consensus.decides_per_s", "1/s");
      ("fd.suspects", "count");
      ("runtime.merge_s", "s");
    ]
  @ List.concat_map
      (fun (tag, _) ->
        [
          ("codec.encode_ns." ^ tag, "ns");
          ("codec.decode_ns." ^ tag, "ns");
          ("codec.minor_words." ^ tag, "words");
        ])
      codec_tags

(* End-to-end metrics of timed runs: every workload reports all four. *)
let end_to_end =
  [
    ("throughput_per_s", "1/s");
    ("latency_p50_ms", "ms");
    ("setup_s", "s");
    ("peak_heap_mb", "MB");
  ]

(* Keep the metrics of this kind of run, in the table's order; figures of
   the other kind become notes.  A missing end-to-end metric is a
   failure; a layer the run did not exercise reads 0. *)
let finish (rep : Report.t) ~spans =
  let measured = List.rev rep.Report.metrics in
  let table = if spans then all else end_to_end in
  rep.Report.metrics <- [];
  List.iter
    (fun (name, unit_) ->
      match List.find_opt (fun m -> m.Report.name = name) measured with
      | Some m -> rep.Report.metrics <- m :: rep.Report.metrics
      | None ->
          if spans then Report.metric rep name unit_ 0.0
          else Report.problem rep ("no measurement of " ^ name))
    table;
  List.iter
    (fun m ->
      if not (List.mem_assoc m.Report.name table) then
        Report.note rep m.Report.name (Printf.sprintf "%.6g %s" m.Report.value m.Report.unit_))
    measured

(* Consensus activity read off a trace: decided instances, the ids they
   ordered, and failure-detector suspicions. *)
type consensus = { decides : int; ids : int; suspects : int }

let consensus_of trace =
  let seen = Hashtbl.create 1024 in
  let ids = ref 0 and suspects = ref 0 in
  Trace.iter trace (fun e ->
      match e.Trace.kind with
      | Trace.Decide (k, l) ->
          if not (Hashtbl.mem seen k) then begin
            Hashtbl.add seen k ();
            ids := !ids + List.length l
          end
      | Trace.Suspect _ -> incr suspects
      | _ -> ());
  { decides = Hashtbl.length seen; ids = !ids; suspects = !suspects }

(* Stage table and consensus activity pooled over one or more
   decompositions; rates are per second of traffic (first submit to
   last end). *)
let emit rep (parts : (Stages.t * consensus) list) =
  let cat f = Array.concat (List.map f parts) in
  Array.iteri
    (fun s name ->
      let a = cat (fun (t, _) -> t.Stages.stages.(s)) in
      Report.metric rep (name ^ ".mean") "ms" (Report.mean a);
      Report.metric rep (name ^ ".p50") "ms"
        (if a = [||] then 0.0 else Report.percentile a 0.5))
    Stages.names;
  let attributed = List.fold_left (fun acc (t, _) -> acc +. t.Stages.attributed_sum) 0.0 parts in
  let total = List.fold_left (fun acc (t, _) -> acc +. t.Stages.latency_sum) 0.0 parts in
  Report.metric rep "stages.attributed_share" "ratio"
    (if total > 0.0 then attributed /. total else 0.0);
  let unattributed = List.concat_map (fun (t, _) -> t.Stages.unattributed) parts in
  Report.metric rep "stages.unattributed_pairs" "count" (float_of_int (List.length unattributed));
  Report.note rep "stages.pairs"
    (string_of_int (List.fold_left (fun acc (t, _) -> acc + Stages.pairs t) 0 parts));
  if unattributed <> [] then
    Report.note rep "stages.unattributed (first 10)"
      (String.concat ", "
         (List.filteri (fun i _ -> i < 10) unattributed
         |> List.map (fun (id, p, why) ->
                Printf.sprintf "%s@p%d no %s" (Ics_sim.Msg_id.to_string id) p why)));
  let decides = List.fold_left (fun acc (_, c) -> acc + c.decides) 0 parts in
  let ids = List.fold_left (fun acc (_, c) -> acc + c.ids) 0 parts in
  let span_s =
    List.fold_left
      (fun acc (t, _) -> acc +. ((t.Stages.last_end -. t.Stages.first_submit) /. 1000.0))
      0.0 parts
  in
  Report.metric rep "core.ids_per_decide" "count"
    (float_of_int ids /. float_of_int (max 1 decides));
  Report.metric rep "consensus.decides_per_s" "1/s"
    (if span_s > 0.0 then float_of_int decides /. span_s else 0.0);
  Report.metric rep "fd.suspects" "count"
    (float_of_int (List.fold_left (fun acc (_, c) -> acc + c.suspects) 0 parts))
