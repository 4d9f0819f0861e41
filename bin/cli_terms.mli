(** Command-line terms shared by [ics_cli] and the tests. *)

val profile_term :
  ?specs:Ics_core.Profile.spec list ->
  Ics_core.Profile.t ->
  Ics_core.Profile.t Cmdliner.Term.t
(** Fold [specs] (default {!Ics_core.Profile.specs}) into one term over
    [base]: each row is an optional [--key VALUE] flag applied with the
    row's [set]; a malformed value exits 2. *)

(** The cell-selecting flags of [ics_cli chaos]: [--seeds],
    [--seed-base], [--n], [--stacks], [--plans], the
    {!Ics_core.Profile.batching_specs} rows, [--no-retransmit], [--app],
    [--live].  {!Ics_workload.Chaos.replay_hint} writes in this
    vocabulary. *)
type chaos_cells = {
  stacks : Ics_workload.Chaos.stack_kind list;
  plans : Ics_workload.Chaos.plan_kind list;
  seeds : int;
  seed_base : int64;
  n : int option;
  batching : Ics_core.Abcast.batching;
  app : bool;
  retransmit : bool;
  backend : Ics_workload.Chaos.backend;
}

val chaos_cells : chaos_cells Cmdliner.Term.t
(** An unknown stack or plan name exits 1. *)
