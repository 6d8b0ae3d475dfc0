open! Flb_taskgraph
open! Flb_platform

(** Locality-aware work-stealing engine: FLB's schedule demoted from
    pins to hints, executed by a steal runtime.

    Each domain's deque is seeded with its {e scheduled} entry tasks (in
    schedule order) rather than round-robin, and a newly enabled task is
    routed to the deque of its hinted domain — the processor the
    schedule assigned it — falling back to the enabling domain when the
    hint is dead (QUARK's LOCALITY-flag semantics). Owners pop LIFO off
    the back; an idle thief probes two random victims, steals {e half}
    of the deeper deque FIFO off the front ({!Deque.steal_half}), runs
    the oldest stolen task and deposits the rest at its own front
    ({!Deque.push_front_batch}). Failed probes are bounded before
    exponential backoff, per the decentralized-list-scheduling analysis.

    Stealing is priced: each stolen task whose hint is not the thief
    charges [Machine.comm_time] for its heaviest in-edge against the
    thief's clock (gated by [config.charge_comm]), so theft only pays
    when the imbalance it fixes outweighs the data it moves.

    A killed domain needs no dedicated recovery path — its deque stays
    stealable and such thefts are counted as [recovered].

    [hint_hits]/[hint_misses] in the outcome count tasks executed on
    their scheduled processor vs. elsewhere. *)

val run : ?config:Engine.config -> Schedule.t -> Engine.outcome
(** Executes the schedule's DAG with [Schedule.proc] as affinity hints;
    [predicted_units] is [Schedule.makespan].
    @raise Invalid_argument if [config.domains] differs from the
    schedule's processor count, or on a bad config (see
    {!Engine.State.create}). *)

val migration_costs : Taskgraph.t -> float array
(** Heaviest in-edge weight of each task (0 for entry tasks): the data a
    thief pulls away from the task's hinted domain, priced through
    [Machine.comm_time]. *)
