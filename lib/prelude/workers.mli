(** Shared domain lifecycle: spawn a fixed team of OCaml 5 worker
    domains, contain their exceptions, join them exactly once — and,
    on top of that, a position-stable parallel {!map}.

    Both {!Flb_service.Pool} (the daemon's job pool) and the
    [Flb_runtime] engines need the same three things from their worker
    domains: startup with a worker index, containment of any exception
    that escapes the worker body (a crashed worker must never take the
    process down or leave {!join} hanging), and an idempotent graceful
    join. This module is that one place. Draining semantics — what the
    workers do before they exit — stay with the caller, since the pool
    drains a job queue while the engines run until a task counter or a
    fault says stop. *)

type t

val spawn : ?on_exn:(int -> exn -> unit) -> count:int -> (int -> unit) -> t
(** [spawn ~count f] starts [count] domains, the [i]-th running [f i].
    An exception escaping [f] is passed to [on_exn] (default: swallowed)
    and the domain exits cleanly; an exception escaping [on_exn] itself
    is swallowed too.
    @raise Invalid_argument if [count < 1]. *)

val count : t -> int
(** The team size given to {!spawn} (constant; joined workers still
    count). *)

val join : t -> unit
(** Wait for every worker to return. Idempotent and safe to call from
    multiple threads: each domain is joined exactly once. *)

(** {1 Parallel map}

    The evaluation grids are embarrassingly parallel across cells —
    every cell builds its own graphs and schedulers from a deterministic
    seed — so the experiment harness fans them out over domains. The
    output is position-stable: results are identical to the sequential
    run, only faster. *)

val recommended_domains : unit -> int
(** [max 1 (available cores - 1)], capped at 8 (the experiment cells are
    memory-bandwidth-hungry; more domains rarely help). *)

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~domains f xs] is [List.map f xs] computed by [domains] domains
    (the caller's plus a {!spawn}ed team) pulling indices from a shared
    counter. [domains <= 1] (the default) runs sequentially. [f] must be
    safe to run concurrently with itself on distinct inputs (no shared
    mutable state); every [f] used by the experiment harness is. The
    first exception from [f] is re-raised after the team is joined. *)
