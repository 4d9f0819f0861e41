(* Command-line terms shared by the CLI and the tests: the profile flag
   fold, and the flags that pick a chaos cell — the vocabulary a chaos
   replay line is written in, so a test can parse a printed replay line
   back through the exact flag set the CLI uses. *)

open Cmdliner
module Abcast = Ics_core.Abcast
module Profile = Ics_core.Profile
module Chaos = Ics_workload.Chaos

(* Profile flags are not written by hand: every command that takes a
   stack shape (and, for the live commands, a workload) folds the
   relevant [Profile.specs] rows into one cmdliner term.  Adding a knob
   to the profile adds the flag to every command at once. *)
let profile_term ?(specs = Profile.specs) base =
  List.fold_left
    (fun term (spec : Profile.spec) ->
      let arg =
        Arg.(
          value
          & opt (some string) None
          & info spec.Profile.keys ~docv:spec.Profile.docv ~doc:spec.Profile.doc)
      in
      let apply profile = function
        | None -> profile
        | Some value -> (
            match spec.Profile.set profile value with
            | Ok profile -> profile
            | Error msg ->
                Format.eprintf "ics-cli: %s@." msg;
                exit 2)
      in
      Term.(const apply $ term $ arg))
    (Term.const base) specs

type chaos_cells = {
  stacks : Chaos.stack_kind list;
  plans : Chaos.plan_kind list;
  seeds : int;
  seed_base : int64;
  n : int option;
  batching : Abcast.batching;
  app : bool;
  retransmit : bool;
  backend : Chaos.backend;
}

let chaos_cells =
  let make seeds seed_base n stacks plans batching no_retransmit app live =
    let parse_csv ~what ~of_string ~all s =
      if s = "all" then all
      else
        String.split_on_char ',' s
        |> List.map String.trim
        |> List.filter (fun s -> s <> "")
        |> List.map (fun name ->
               match of_string name with
               | Some v -> v
               | None ->
                   Format.eprintf "unknown %s %s@." what name;
                   exit 1)
    in
    {
      stacks =
        parse_csv ~what:"stack" ~of_string:Chaos.stack_of_string
          ~all:Chaos.all_stacks stacks;
      plans =
        parse_csv ~what:"plan" ~of_string:Chaos.plan_of_string
          ~all:Chaos.all_plans plans;
      seeds;
      seed_base;
      n;
      batching = Profile.batching batching;
      app;
      retransmit = not no_retransmit;
      backend = (if live then `Live else `Sim);
    }
  in
  let seeds =
    Arg.(value & opt int 100 & info [ "seeds" ] ~doc:"Seeds per (stack, plan) cell.")
  in
  let seed_base =
    Arg.(value & opt int64 1L & info [ "seed-base" ] ~doc:"First seed; cell seeds are base..base+seeds-1.")
  in
  let n =
    Arg.(value & opt (some int) None & info [ "n" ] ~doc:"Override the per-stack process count.")
  in
  let stacks =
    Arg.(
      value & opt string "all"
      & info [ "stacks" ] ~doc:"Comma-separated: ct-indirect, mr-indirect, ct-on-ids; or 'all'.")
  in
  let plans =
    Arg.(
      value & opt string "all"
      & info [ "plans" ]
          ~doc:"Comma-separated: drop, dup, reorder, partition, storm, blackout, mixed; or 'all'.")
  in
  let batching = profile_term ~specs:Profile.batching_specs Profile.default in
  let no_retransmit =
    Arg.(
      value & flag
      & info [ "no-retransmit" ]
          ~doc:"Run directly over the lossy links, without the retransmission channel.")
  in
  let app_flag =
    Arg.(
      value & flag
      & info [ "app" ]
          ~doc:
            "Host the replicated KV/ledger machine on every cell's \
             broadcasts and add the application battery (dedup, order, \
             state-hash agreement, progress) to each verdict: a cell \
             where ordered commands never take effect fails semantically, \
             not just at the message level.")
  in
  let live =
    Arg.(
      value & flag
      & info [ "live" ]
          ~doc:
            "Run each cell as a forked loopback-TCP cluster instead of a \
             simulation: the same seeded plan drives each node's transport \
             interposer and the merged trace goes through the same checker. \
             Exit 2 when the environment cannot create loopback sockets.")
  in
  Term.(
    const make $ seeds $ seed_base $ n $ stacks $ plans $ batching
    $ no_retransmit $ app_flag $ live)
