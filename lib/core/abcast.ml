module Engine = Ics_sim.Engine
module Pid = Ics_sim.Pid
module Time = Ics_sim.Time
module Trace = Ics_sim.Trace
module Msg_id = Ics_net.Msg_id
module App_msg = Ics_net.App_msg
module Transport = Ics_net.Transport
module Env = Ics_net.Env
module Broadcast_intf = Ics_broadcast.Broadcast_intf
module Consensus_intf = Ics_consensus.Consensus_intf
module Proposal = Ics_consensus.Proposal

type ordering = Consensus_on_messages | Consensus_on_ids | Indirect_consensus

type batching = { batch : int; pipeline : int; flush_ms : float }

let no_batching = { batch = 1; pipeline = 1; flush_ms = 2.0 }

type pstate = {
  received : App_msg.t Msg_id.Table.t;
  mutable unordered : Msg_id.Set.t;
  mutable unordered_elems : Msg_id.t list option;
      (* memo of [Msg_id.Set.elements unordered]; invalidated on mutation *)
  mutable fresh : Msg_id.Set.t;
      (* [unordered] minus the ids riding one of this process's open
         proposals: what the next slot may carry.  Kept incrementally, so
         no arrival pays a walk of the backlog. *)
  mutable fresh_n : int;  (* [Msg_id.Set.cardinal fresh] *)
  proposed_ids : (int, Msg_id.t list) Hashtbl.t;
      (* instance -> ids we proposed there, so they can return to [fresh]
         when the instance's decision is applied *)
  mutable flush_armed : bool;
  ordered_pending : Msg_id.t Queue.t;
  ordered_ever : unit Msg_id.Table.t;
  decisions : (int, Proposal.t) Hashtbl.t;
  mutable applied : int;  (* highest instance whose decision is applied *)
  mutable next_seq : int;
  mutable delivered_rev : Msg_id.t list;
}

type t = {
  engine : Engine.t;
  transport : Transport.t;
  ordering : ordering;
  batching : batching;
  states : pstate array;
  mutable broadcast : Broadcast_intf.handle;
  mutable consensus : Consensus_intf.handle;
  deliver : Pid.t -> App_msg.t -> unit;
}

(* Fetched per use, not captured at [create]: the live runtime installs
   its wall-clock Env on the transport and must win even if it does so
   after the stack is assembled. *)
let env t = Transport.env t.transport

let holds t p id = Msg_id.Table.mem t.states.(p).received id

let unordered_elems st =
  match st.unordered_elems with
  | Some ids -> ids
  | None ->
      let ids = Msg_id.Set.elements st.unordered in
      st.unordered_elems <- Some ids;
      ids

let proposal_of_ids t p ids =
  match t.ordering with
  | Consensus_on_messages ->
      Proposal.on_messages (List.map (Msg_id.Table.find t.states.(p).received) ids)
  | Consensus_on_ids | Indirect_consensus ->
      (* [ids] comes out of a [Msg_id.Set] in order: sorted, duplicate-free. *)
      Proposal.of_sorted ids

let make_proposal t p = proposal_of_ids t p (unordered_elems t.states.(p))

(* [Set.add]/[Set.remove] return the set itself when nothing changes,
   which is what keeps [fresh_n] exact without a membership test. *)
let fresh_add st id =
  let s = Msg_id.Set.add id st.fresh in
  if s != st.fresh then begin
    st.fresh <- s;
    st.fresh_n <- st.fresh_n + 1
  end

let fresh_remove st id =
  let s = Msg_id.Set.remove id st.fresh in
  if s != st.fresh then begin
    st.fresh <- s;
    st.fresh_n <- st.fresh_n - 1
  end

(* Proposal size cap, batched modes only.  [batch] stays a trigger, but a
   single value may not carry an unbounded backlog: every cost downstream
   of a proposal — frame bytes, the rcv-guard scan, a CT round change
   re-shipping the estimate — is linear in its id count, so an O(backlog)
   value makes overload quadratic and the stack collapses instead of
   queueing.  Capped, a backlog drains cap x pipeline ids per decision
   wave.  The cap never binds at batch=1/pipeline=1 (seed behaviour and
   its pinned fingerprints are computed without it). *)
let cap_factor = 8

let batched b = b.batch > 1 || b.pipeline > 1

(* The next proposal's ids, taken out of [fresh] in [Msg_id] order:
   sorted and duplicate-free, as [Proposal.of_sorted] needs.  Batched,
   only the first [batch x cap_factor]: a capped take costs O(cap +
   log fresh_n), never O(fresh_n). *)
let take_fresh b st =
  let cap = b.batch * cap_factor in
  if batched b && st.fresh_n > cap then begin
    let ids = List.of_seq (Seq.take cap (Msg_id.Set.to_seq st.fresh)) in
    let _, _, rest = Msg_id.Set.split (List.nth ids (cap - 1)) st.fresh in
    st.fresh <- rest;
    st.fresh_n <- st.fresh_n - cap;
    ids
  end
  else begin
    let ids = Msg_id.Set.elements st.fresh in
    st.fresh <- Msg_id.Set.empty;
    st.fresh_n <- 0;
    ids
  end

let try_deliver t p =
  let st = t.states.(p) in
  let rec loop () =
    match Queue.peek_opt st.ordered_pending with
    | Some id when Msg_id.Table.mem st.received id ->
        ignore (Queue.pop st.ordered_pending);
        let m = Msg_id.Table.find st.received id in
        st.delivered_rev <- id :: st.delivered_rev;
        Engine.record t.engine p (Trace.Adeliver id);
        t.deliver p m;
        loop ()
    | Some _ | None -> ()
  in
  loop ()

(* Batching and pipelining of Algorithm 1's proposal step.  Instance
   slots [applied+1 .. applied+pipeline] may run concurrently; each id is
   proposed into at most one open instance (it leaves [fresh] until the
   instance is applied), and a slot is opened only once [batch] fresh ids
   have accumulated or the flush timer fires.  [batch] triggers a
   proposal; batched, [batch x cap_factor] caps it, so a backlog drains
   in bounded bites over several instances.  At the default
   batch=1/pipeline=1 this reduces exactly to the seed behaviour — one
   instance at a time, proposed the moment an id shows up carrying every
   unordered id, no timer ever armed — which is what keeps the pinned
   chaos fingerprints bit-identical. *)
let rec try_propose ?(flush = false) t p =
  let st = t.states.(p) in
  let rec slots d =
    if d <= t.batching.pipeline then begin
      let k = st.applied + d in
      (* O(pipeline) occupancy checks per call; a free slot adds one
         O(1) trigger test, and only a proposal touches the pool. *)
      if t.consensus.has_instance p k then slots (d + 1)
      else if st.fresh_n > 0 then
        if flush || st.fresh_n >= t.batching.batch then begin
          let ids = take_fresh t.batching st in
          t.consensus.propose p k (proposal_of_ids t p ids);
          Hashtbl.replace st.proposed_ids k ids;
          slots (d + 1)
        end
        else arm_flush t p
    end
  in
  slots 1

and arm_flush t p =
  let st = t.states.(p) in
  if not st.flush_armed then begin
    let e = env t in
    let at = Time.( + ) (e.Env.now ()) t.batching.flush_ms in
    if Env.beyond_horizon e ~at then
      (* Deadline discipline (the P2 rule for self-rearming timers):
         never park ids behind a timer that would fire after the run's
         horizon — flush now so a faulted run still drains to quiescence. *)
      try_propose ~flush:true t p
    else begin
      st.flush_armed <- true;
      e.Env.schedule ~at (fun () ->
          st.flush_armed <- false;
          if (env t).Env.is_alive p then try_propose ~flush:true t p)
    end
  end

let apply_decisions t p =
  let st = t.states.(p) in
  let progressed = ref false in
  let rec loop () =
    match Hashtbl.find_opt st.decisions (st.applied + 1) with
    | None -> ()
    | Some v ->
        let k = st.applied + 1 in
        Hashtbl.remove st.decisions k;
        st.applied <- k;
        (* Release our own proposal for [k]: its ids not yet ordered return
           to [fresh] for a later slot; those [k] decides leave again below. *)
        (match Hashtbl.find_opt st.proposed_ids k with
        | Some ids ->
            Hashtbl.remove st.proposed_ids k;
            List.iter
              (fun id -> if not (Msg_id.Table.mem st.ordered_ever id) then fresh_add st id)
              ids
        | None -> ());
        (* Proposal ids are sorted (deterministic order, Algorithm 1 line
           20); skip anything already ordered by an earlier instance. *)
        List.iter
          (fun id ->
            if not (Msg_id.Table.mem st.ordered_ever id) then begin
              Msg_id.Table.add st.ordered_ever id ();
              Queue.push id st.ordered_pending;
              st.unordered <- Msg_id.Set.remove id st.unordered;
              st.unordered_elems <- None;
              fresh_remove st id
            end)
          (Proposal.ids v);
        progressed := true;
        loop ()
  in
  loop ();
  if !progressed then begin
    try_deliver t p;
    try_propose t p
  end

let on_decide t p k v =
  Hashtbl.replace t.states.(p).decisions k v;
  apply_decisions t p

let on_broadcast_deliver t p (m : App_msg.t) =
  let st = t.states.(p) in
  if not (Msg_id.Table.mem st.received m.id) then begin
    Msg_id.Table.add st.received m.id m;
    if
      (not (Msg_id.Table.mem st.ordered_ever m.id))
      && not (Msg_id.Set.mem m.id st.unordered)
    then begin
      st.unordered <- Msg_id.Set.add m.id st.unordered;
      st.unordered_elems <- None;
      fresh_add st m.id
    end;
    (* The payload may unblock an already ordered head. *)
    try_deliver t p;
    try_propose t p
  end

let create ?(batching = no_batching) transport ~ordering ~make_broadcast
    ~make_consensus ~deliver =
  if batching.batch < 1 then invalid_arg "Abcast.create: batch < 1";
  if batching.pipeline < 1 then invalid_arg "Abcast.create: pipeline < 1";
  if batching.flush_ms < 0.0 || not (Float.is_finite batching.flush_ms) then
    invalid_arg "Abcast.create: bad flush_ms";
  let engine = Transport.engine transport in
  let n = Transport.n transport in
  let states =
    Array.init n (fun _ ->
        {
          received = Msg_id.Table.create 256;
          unordered = Msg_id.Set.empty;
          unordered_elems = None;
          fresh = Msg_id.Set.empty;
          fresh_n = 0;
          proposed_ids = Hashtbl.create 8;
          flush_armed = false;
          ordered_pending = Queue.create ();
          ordered_ever = Msg_id.Table.create 256;
          decisions = Hashtbl.create 16;
          applied = 0;
          next_seq = 0;
          delivered_rev = [];
        })
  in
  let dummy_broadcast =
    { Broadcast_intf.name = ""; broadcast = (fun ~src:_ _ -> ()); holds = (fun _ _ -> false) }
  in
  let dummy_consensus =
    {
      Consensus_intf.name = "";
      propose = (fun _ _ _ -> ());
      has_instance = (fun _ _ -> false);
    }
  in
  let t =
    {
      engine;
      transport;
      ordering;
      batching;
      states;
      broadcast = dummy_broadcast;
      consensus = dummy_consensus;
      deliver;
    }
  in
  t.broadcast <- make_broadcast ~deliver:(on_broadcast_deliver t);
  let rcv =
    match ordering with
    | Indirect_consensus ->
        Some (fun q ids -> List.for_all (fun id -> holds t q id) ids)
    | Consensus_on_messages | Consensus_on_ids -> None
  in
  (* Join values: unbatched, the full unordered set (Algorithm 1's
     proposal — a joiner's value only matters if the coordinator's is
     lost, and then completeness beats batch shape).  Batched/pipelined,
     the fresh set only, taken out of it like a regular proposal: with
     several instances open, re-offering ids that already ride an earlier
     open instance makes the same ids decide twice in consecutive
     instances (pure waste) and keeps the instance stream running after
     the workload is drained. *)
  let join p k =
    if batched batching then begin
      let st = t.states.(p) in
      let ids = take_fresh batching st in
      if ids <> [] then Hashtbl.replace st.proposed_ids k ids;
      proposal_of_ids t p ids
    end
    else make_proposal t p
  in
  let callbacks = { Consensus_intf.on_decide = on_decide t; join } in
  t.consensus <- make_consensus ~rcv callbacks;
  t

let abroadcast ?(blob = 0L) t ~src ~body_bytes =
  let st = t.states.(src) in
  let id = Msg_id.make ~origin:src ~seq:st.next_seq in
  st.next_seq <- st.next_seq + 1;
  let m = App_msg.make ~blob ~id ~body_bytes ~created_at:(Engine.now t.engine) () in
  if Engine.is_alive t.engine src then begin
    Engine.record t.engine src (Trace.Abroadcast id);
    t.broadcast.broadcast ~src m
  end;
  m

let delivered_sequence t p = List.rev t.states.(p).delivered_rev

let unordered_count t p = Msg_id.Set.cardinal t.states.(p).unordered

let blocked_head t p =
  let st = t.states.(p) in
  match Queue.peek_opt st.ordered_pending with
  | Some id when not (Msg_id.Table.mem st.received id) -> Some id
  | Some _ | None -> None

let batching t = t.batching
let broadcast_name t = t.broadcast.Broadcast_intf.name
let consensus_name t = t.consensus.Consensus_intf.name
