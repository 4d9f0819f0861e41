(** The paper's qualitative conclusions as executable assertions.

    EXPERIMENTS.md records shapes by prose; this module pins them down as
    machine-checked claims.  Each claim runs a handful of targeted
    simulations and asserts an inequality the paper states — who wins, how
    a gap moves with throughput/size/n, where liveness ends.
    [ics_cli figure claims] prints the claim table; the test suite asserts
    every claim holds, so a regression that silently flips a conclusion
    (not just a number) fails CI. *)

type verdict = {
  id : string;  (** e.g. ["fig3.overhead-grows"] *)
  statement : string;  (** the paper's claim, one line *)
  holds : bool;
  detail : string;  (** the measured numbers behind the verdict *)
}

val verify : ?quick:bool -> ?seed:int64 -> unit -> verdict list
(** Evaluate every claim (a few dozen short simulations: seconds, quick or
    not). *)

val mr_survivors : n:int -> f:int -> int
(** Indirect MR on an ideal LAN with the last [f] of [n] processes
    crashed: the number of messages process 0 delivers (1 if the
    survivors stay live, 0 if they block).  Behind the §3.3.3 claim and
    the [abl-quorum] table. *)

val pp_verdict : Format.formatter -> verdict -> unit

val all_hold : verdict list -> bool
