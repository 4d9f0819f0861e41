(* Stage decomposition of client-visible latency over a merged trace.

   Each (command, node) pair is timed from the command's App_submit to
   its App_applied at the node, and the interval is cut at four
   boundaries the trace already records:

     App_submit -> Abroadcast            runtime.gen_lag_ms
                -> Rdeliver at P         broadcast.dissem_ms
                -> first Propose (at P)  core.batch_wait_ms
                -> Decide at the node    consensus.order_ms
                -> App_applied           core.commit_wait_ms

   The command's message is the Adeliver the node recorded just before
   the App_applied (the application applies inside the delivery
   callback), which also picks the retry that took effect when a command
   was broadcast more than once.  P, the first proposer, is the process
   whose Propose event is the earliest one containing the message.  The
   stages are differences of consecutive boundaries, so they telescope to
   the pair's latency.  A pair with a missing boundary is not attributed;
   it still counts in the latency, so the attributed share drops below 1. *)

module Trace = Ics_sim.Trace
module Msg_id = Ics_sim.Msg_id

let names =
  [|
    "runtime.gen_lag_ms";
    "broadcast.dissem_ms";
    "core.batch_wait_ms";
    "consensus.order_ms";
    "core.commit_wait_ms";
  |]

type t = {
  latency : float array;  (** every pair, ms *)
  home_latency : float array;
      (** pairs at the client's home replica: the latency the client sees *)
  stages : float array array;  (** [stages.(s)]: stage [s] of each attributed pair *)
  attributed_sum : float;  (** summed latency of the attributed pairs *)
  latency_sum : float;
  unattributed : (Msg_id.t * int * string) list;
      (** (message, node, first missing boundary) *)
  delivered_at : int Msg_id.Table.t;  (** nodes that applied each message *)
  first_submit : float;  (** earliest submit *)
  last_end : float;
}

let pairs t = Array.length t.latency
let attributed t = Array.length t.stages.(0)

let attributed_share t =
  if t.latency_sum > 0.0 then t.attributed_sum /. t.latency_sum else 0.0

let decompose trace =
  let abcast = Msg_id.Table.create 4096 in
  let rdeliver = Hashtbl.create 16384 in
  let decide = Hashtbl.create 16384 in
  let first_propose = Msg_id.Table.create 4096 in
  let submit = Hashtbl.create 4096 in
  let last_adeliver = Hashtbl.create 8 in
  let ends = ref [] in
  let add_once tbl k v = if not (Hashtbl.mem tbl k) then Hashtbl.add tbl k v in
  Trace.iter trace (fun (e : Trace.event) ->
      let p = e.Trace.pid and t = e.Trace.time in
      match e.Trace.kind with
      | Trace.Abroadcast id ->
          if not (Msg_id.Table.mem abcast id) then Msg_id.Table.add abcast id t
      | Trace.Rdeliver id -> add_once rdeliver (p, id) t
      | Trace.Propose (_, ids) ->
          List.iter
            (fun id ->
              if not (Msg_id.Table.mem first_propose id) then
                Msg_id.Table.add first_propose id (t, p))
            ids
      | Trace.Decide (_, ids) -> List.iter (fun id -> add_once decide (p, id) t) ids
      | Trace.Adeliver id -> Hashtbl.replace last_adeliver p id
      | Trace.App_submit (c, r) -> add_once submit (c, r) (p, t)
      | Trace.App_applied (c, r) -> (
          match (Hashtbl.find_opt submit (c, r), Hashtbl.find_opt last_adeliver p) with
          | Some (home, t0), Some id -> ends := (id, p, t0, t, home = p) :: !ends
          | _ -> ())
      | _ -> ());
  let ends = Array.of_list (List.rev !ends) in
  let stages = Array.make (Array.length names) [] in
  let home = ref [] in
  let unattributed = ref [] in
  let attributed_sum = ref 0.0 and latency_sum = ref 0.0 in
  let delivered_at = Msg_id.Table.create 4096 in
  let first_submit = ref infinity and last_end = ref neg_infinity in
  let latency =
    Array.map
      (fun (id, p, t0, t5, at_home) ->
        let lat = t5 -. t0 in
        latency_sum := !latency_sum +. lat;
        if at_home then home := lat :: !home;
        if t0 < !first_submit then first_submit := t0;
        if t5 > !last_end then last_end := t5;
        Msg_id.Table.replace delivered_at id
          (1 + Option.value ~default:0 (Msg_id.Table.find_opt delivered_at id));
        let boundary =
          match Msg_id.Table.find_opt abcast id with
          | None -> Error "Abroadcast"
          | Some t1 -> (
              match Msg_id.Table.find_opt first_propose id with
              | None -> Error "Propose"
              | Some (t3, proposer) -> (
                  match Hashtbl.find_opt rdeliver (proposer, id) with
                  | None -> Error "Rdeliver at the first proposer"
                  | Some t2 -> (
                      match Hashtbl.find_opt decide (p, id) with
                      | None -> Error "Decide at the node"
                      | Some t4 -> Ok [| t0; t1; t2; t3; t4; t5 |])))
        in
        (match boundary with
        | Ok b ->
            attributed_sum := !attributed_sum +. lat;
            Array.iteri (fun s _ -> stages.(s) <- (b.(s + 1) -. b.(s)) :: stages.(s)) names
        | Error missing -> unattributed := (id, p, missing) :: !unattributed);
        lat)
      ends
  in
  {
    latency;
    home_latency = Array.of_list (List.rev !home);
    stages = Array.map (fun l -> Array.of_list (List.rev l)) stages;
    attributed_sum = !attributed_sum;
    latency_sum = !latency_sum;
    unattributed = List.rev !unattributed;
    delivered_at;
    first_submit = !first_submit;
    last_end = !last_end;
  }

(* ------------------------------------------------------------------ *)
(* Self-test on a hand-built trace.                                   *)
(* ------------------------------------------------------------------ *)

(* Two nodes.  Command (0, 0), homed at p0, rides m0 (p0#0), which is
   attributed at both nodes with p1 as its first proposer.  Command
   (1, 0), homed at p1, rides m1 (p1#0), which p0 applies without any
   Propose or Decide containing it, so that pair is reported
   unattributed. *)
let self_test () =
  let m0 = Msg_id.make ~origin:0 ~seq:0 and m1 = Msg_id.make ~origin:1 ~seq:0 in
  let trace = Trace.create () in
  let ev time pid kind = Trace.record trace ~time ~pid kind in
  ev 9.0 0 (Trace.App_submit (0, 0));
  ev 9.5 1 (Trace.App_submit (1, 0));
  ev 10.25 1 (Trace.Abroadcast m1);
  ev 10.5 0 (Trace.Abroadcast m0);
  ev 10.5 1 (Trace.Rdeliver m1);
  ev 11.0 0 (Trace.Rdeliver m0);
  ev 12.0 1 (Trace.Rdeliver m0);
  ev 13.0 1 (Trace.Propose (0, [ m0 ]));
  ev 14.0 0 (Trace.Propose (0, [ m0 ]));
  ev 15.0 1 (Trace.Decide (0, [ m0 ]));
  ev 16.0 1 (Trace.Adeliver m0);
  ev 16.0 1 (Trace.App_applied (0, 0));
  ev 17.0 0 (Trace.Decide (0, [ m0 ]));
  ev 18.0 0 (Trace.Adeliver m0);
  ev 18.0 0 (Trace.App_applied (0, 0));
  ev 19.0 0 (Trace.Adeliver m1);
  ev 19.0 0 (Trace.App_applied (1, 0));
  let close a b = Float.abs (a -. b) < 1e-9 in
  let same a b = Array.length a = Array.length b && Array.for_all2 close a b in
  let t = decompose trace in
  let stage_sums =
    Array.init (attributed t) (fun i -> Array.fold_left (fun acc s -> acc +. s.(i)) 0.0 t.stages)
  in
  let checks =
    [
      ("latencies", same t.latency [| 7.0; 9.0; 9.5 |]);
      ("home latency", same t.home_latency [| 9.0 |]);
      ("gen lag", same t.stages.(0) [| 1.5; 1.5 |]);
      ("dissemination ends at the first proposer", same t.stages.(1) [| 1.5; 1.5 |]);
      ("order ends at each node's decide", same t.stages.(3) [| 2.0; 4.0 |]);
      ("stages telescope", same stage_sums [| 7.0; 9.0 |]);
      ( "unattributed pair reported",
        match t.unattributed with
        | [ (id, 0, "Propose") ] -> Msg_id.equal id m1
        | _ -> false );
      ("attributed share", close (attributed_share t) (16.0 /. 25.5));
    ]
  in
  List.filter_map (fun (name, ok) -> if ok then None else Some name) checks
