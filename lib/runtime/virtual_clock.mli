open! Flb_taskgraph
open! Flb_platform

(** Deterministic single-threaded execution under a virtual clock.

    The real engines are nondeterministic (wall-clock jitter, races in
    victim selection); this module replays the same three disciplines
    with a simulated clock so tests can pin their behavior exactly and
    recovery policies compare on exact makespans instead of noisy wall
    clocks. Every replay takes an optional fault spec ([Fault.none] by
    default); fault times are in weight units, directly on the virtual
    clock.

    {!run_static} replays a schedule as a global event loop over claim
    and death events. Without faults each task starts at [max (finish of
    the previous task on its processor) (arrival of each predecessor's
    message)] over the per-processor order {!Engine.plan_of_schedule}
    extracts, with the float operations of the event-driven
    [Flb_sim.Simulator.run], so start and finish times agree with it
    {e bit-for-bit} (a zero-latency message arrives at the predecessor's
    exact finish float; a positive-latency one at [finish +. latency]).
    The qcheck suite asserts this on random DAGs for every registered
    scheduler.

    {!run_steal} and {!run_affinity} are two disciplines over one
    dynamic loop: domains act in lowest-virtual-time-first order (ties to
    the lowest id); an acting domain pops its own deque LIFO, or steals;
    a taken task starts at [max (domain's clock) (readiness time)] where
    readiness charges cross-domain predecessor edges their communication
    weight when [charge_comm] (default [true]). Dead domains stop acting
    but their deques stay stealable, so these need no recovery policy.
    With one domain there is nothing to steal and no communication, so
    the makespan is exactly the sequential sum of the weights (in
    execution order). *)

type outcome = {
  start : float array;  (** [nan] for tasks that never executed *)
  finish : float array;
  exec_domain : int array;  (** [-1] for tasks that never executed *)
  makespan : float;  (** last finish among executed tasks; [0.] if none *)
  completed : int;
  total : int;
  killed : int;
  rescheds : int;
  recovered : int;  (** tasks taken from a dead domain's queue *)
  steals : int;  (** steals, dead victims included (stealing disciplines) *)
  hint_hits : int;
      (** tasks executed on their hinted domain: the scheduled placement
          for {!run_static} and {!run_affinity}, the deque a task was
          placed in for {!run_steal} (own-deque pops) *)
  hint_misses : int;
  per_domain_tasks : int array;
}

val complete : outcome -> bool

val run_static : ?faults:Fault.spec -> ?recover:Engine.recovery -> Schedule.t -> outcome
(** The static discipline: deaths win ties with claims (the worker polls
    its fault clock before taking work; fail-stop is between tasks).
    [recover] (default {!Engine.Steal_queues}) selects the reaction to a
    death: {!Engine.No_recovery} abandons the dead queue's dependence
    cone, {!Engine.Steal_queues} lets survivors take dead queue fronts no
    earlier than the death instant, {!Engine.Resched} freezes the
    executed prefix and re-runs the named scheduler over the frontier
    exactly as [Static.run] does.
    @raise Invalid_argument on a bad spec, an unknown algorithm, an
    incomplete schedule, or a replay that stalls with no domain killed
    (a dependency-inconsistent per-processor order, impossible for
    schedules built through [Schedule.assign]). *)

val run_steal :
  ?charge_comm:bool -> ?faults:Fault.spec -> domains:int -> Taskgraph.t -> outcome
(** Deterministic rendition of the stealing engine {!Steal.run}: entry
    tasks dealt round-robin by id, successors pushed onto the enabling
    domain's deque, and an empty domain stealing the front of the first
    non-empty deque scanning round-robin from its right neighbor.
    @raise Invalid_argument if [domains < 1] or on a bad spec. *)

val run_affinity : ?charge_comm:bool -> ?faults:Fault.spec -> Schedule.t -> outcome
(** Deterministic rendition of the locality-aware stealing engine
    {!Affinity.run}: deques seeded with each processor's scheduled entry
    tasks, newly enabled tasks routed to their hinted (scheduled)
    processor's deque, or the enabling domain's while the hint is dead;
    an empty domain steals half of the {e deepest} other deque (the
    two-random-victim probe of the real engine collapsed to its
    deterministic load-aware limit), and every stolen task whose hint is
    not the thief may not start before [Machine.comm_time] for its
    heaviest in-edge has passed since the steal, when [charge_comm]. A
    batch taken from a dead victim counts wholly as [recovered].
    Repeated runs are bit-identical (qcheck-pinned).
    @raise Invalid_argument on a bad spec or an incomplete schedule. *)
