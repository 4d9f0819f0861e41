(** The ablations, extensions and fault tables behind the paper's
    explanations, as runnable tables.

    Where {!Figures} regenerates the paper's panels, each entry here tests
    one of the reasons the paper gives for them: the f < n/3 boundary of
    indirect MR (§3.3.3), the rcv-check cost behind Figure 3 (§4.3), the
    O(n) vs O(n²) broadcast axis (§4.4), the contention model, the
    consensus engine and kernel size, lossy links healed by
    retransmission, and the {!Claims} verdicts.  [ics_cli figure <id>]
    runs one; EXPERIMENTS.md records their rows. *)

module Table = Ics_prelude.Table

type t = {
  id : string;  (** e.g. ["abl-quorum"]; disjoint from {!Figures.ids} *)
  title : string;
  expectation : string;  (** the shape the rows should show *)
  run : quick:bool -> Table.t;
      (** Every run uses the default seed; [quick] shortens the timed
          simulations about fourfold. *)
}

val all : t list
(** abl-network abl-quorum abl-rb abl-rcv ext-algo ext-scale faults
    claims. *)

val find : string -> t option
