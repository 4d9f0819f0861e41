(* The knee of an offered-load curve: the highest offered load the stack
   absorbs without its latency tail or its backlog exploding — the
   headline number for the batching/pipelining/ring work (Ring Paxos's
   evaluation methodology, applied to the indirect-consensus split).
   Points come from Point.open_loop on either backend. *)

module Stats = Ics_prelude.Stats

type point = { offered : float; outcome : Point.outcome }

(* Both backends eventually drain their whole backlog (the sim is
   open-loop; the live cluster gets a drain window after the arrival
   window), so achieved tracks offered even somewhat past capacity — the
   tail latency is the honest signal: below the knee the stack delivers
   in single-digit-to-tens of ms, past it p99 grows with the queue, so a
   fixed SLA bound separates serving from queueing.  The bound is set
   above the scheduling noise floor of an oversubscribed host: with n+1
   processes timesharing a core, a node's p99 includes waits of several
   scheduler quanta (tens of ms) even well below capacity, so a tighter
   bound would measure the host's scheduler rather than the stack's
   queue. *)
let p99_bound_ms = 100.0

let healthy p =
  let l = p.outcome.Point.latency in
  Point.ok p.outcome && (l.Stats.count = 0 || l.Stats.p99 <= p99_bound_ms)

(* The fastest healthy point; falls back to the fastest point overall
   when nothing is healthy, so a degenerate sweep still reports. *)
let knee points =
  let fastest = function
    | [] -> None
    | p :: ps ->
        Some
          (List.fold_left
             (fun best p ->
               if p.outcome.Point.throughput > best.outcome.Point.throughput then p
               else best)
             p ps)
  in
  match fastest (List.filter healthy points) with
  | Some p -> Some p
  | None -> fastest points
