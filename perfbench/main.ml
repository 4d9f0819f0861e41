(* The repository benchmark.

     main.exe --workload W --seed N --seconds S --trace 0|1 [--commit SHA]

   Workloads: sim-paper, sim-service, live-service (see
   sim_work.ml and live_work.ml for what each one drives and why).
   With --trace 0 a run reports the end-to-end metrics; with --trace 1 it
   runs the same workload again with timers around the calls into each
   layer and reports the per-layer metrics instead.  The last line of
   standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload sim-paper|sim-service|live-service --seed N --seconds S \
     --trace 0|1 [--commit SHA]";
  exit 2

let workloads =
  [
    ("sim-paper", Sim_work.sim_paper);
    ("sim-service", Sim_work.sim_service);
    ("live-service", Live_work.live_service);
  ]

let () =
  let rec parse acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] (List.tl (Array.to_list Sys.argv)) in
  let get key = match List.assoc_opt key opts with Some v -> v | None -> usage () in
  let int key = match int_of_string_opt (get key) with Some v -> v | None -> usage () in
  let workload = get "workload" in
  let run = match List.assoc_opt workload workloads with Some f -> f | None -> usage () in
  let seed = int "seed" and seconds = int "seconds" and trace = int "trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  let commit = Option.value ~default:"unknown" (List.assoc_opt "commit" opts) in
  let spans = trace = 1 in
  let rep = Report.create ~workload ~seed ~trace:spans in
  List.iter
    (fun f -> Report.problem rep ("stage decomposition self-test: " ^ f))
    (Stages.self_test ());
  (try run rep ~seed ~seconds:(float_of_int seconds) ~spans
   with e -> Report.problem rep ("benchmark raised " ^ Printexc.to_string e));
  Layers.finish rep ~spans;
  (* A failed verdict, pin or self-test fails the whole run. *)
  if rep.Report.problems <> [] then rep.Report.failed <- max 1 rep.Report.attempted;
  Report.print rep ~commit
