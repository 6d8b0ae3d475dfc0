(** Machine-readable performance-regression harness.

    Measures, for every scheduler in {!Registry.paper_set} on the Fig. 2
    workload suite, two per-task metrics:

    - [ns_per_task]: best-of-N wall time per scheduled task (noisy;
      never compared against the baseline, only within one run by the
      P-sweep gate of {!check});
    - [bytes_per_task]: best-of-N [Gc.allocated_bytes] delta of one run
      divided by the task count — and it {e is} asserted against the
      committed baseline. The mutator's own allocation is deterministic,
      but a minor collection inside the run adds a runtime-internal lump
      (0.9 or 1.8 MB on OCaml 5.1). Each measured run starts right after
      a [Gc.minor ()], which keeps the lump out only of runs that no
      collection interrupts: the quick (V ≈ 400) figures repeat exactly,
      while on the full suite some runs see a collection on every repeat,
      so their best-of-N figure still carries it.

    The report serializes to the committed [BENCH_schedulers.json]; a
    minimal JSON reader loads past baselines back so CI can diff
    allocation behaviour without any external tooling. *)

(** Strict JSON reader/writer helpers for the subset the reports in this
    repository emit (objects, arrays, strings, numbers, booleans, null;
    ASCII escapes). Shared by {!Regress} itself, {!Runtime_real_exp} and
    the bench harness so none of them grows a private parser. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Parse_error of string

  val escape : string -> string
  (** Body of a JSON string literal (no surrounding quotes). *)

  val parse_exn : string -> t
  (** @raise Parse_error on malformed input or trailing content. *)

  val parse : string -> (t, string) result

  val field : string -> t -> t
  (** @raise Parse_error if missing or not applied to an object. *)

  val str : t -> string
  (** @raise Parse_error unless a string. *)

  val num : t -> float
  (** @raise Parse_error unless a number. *)
end

type entry = {
  scheduler : string;
  workload : string;
  tasks : int;  (** actual task count of the measured instance *)
  procs : int;
  ccr : float;
  ns_per_task : float;
  bytes_per_task : float;
}

type report = {
  mode : string;  (** ["full"], ["quick"], or ["full+quick"] *)
  entries : entry list;
}

val run : ?quick:bool -> ?repeats:int -> unit -> report
(** Runs one suite: every {!Registry.paper_set} scheduler at P = 8 on
    each workload. [quick] (default false) shrinks graphs to V≈400 for
    smoke use and adds FLB and FCP at P ∈ \{2, 64, 512, 1024\}, the
    sweep the gates in {!check} read; the full suite uses V≈2000.
    [repeats] overrides the best-of count for both metrics. *)

val run_baseline : ?repeats:int -> unit -> report
(** Runs the full {e and} quick suites and concatenates their entries
    (mode ["full+quick"]). This is what [--regress] writes to the
    committed [BENCH_schedulers.json]: bytes/task is not size-independent
    for every scheduler, so the CI quick run needs quick entries to diff
    against while the full entries document the paper-scale figures. *)

val render : report -> string
(** Human-readable table. *)

val to_json : report -> string

val of_json : string -> (report, string) result
(** Parses exactly the documents {!to_json} produces (strict JSON subset:
    one object with string/number fields and one array of entry
    objects). *)

val check :
  baseline:report -> current:report -> tolerance:float -> (unit, string list) result
(** Compares allocation metrics of [current] against [baseline], keyed by
    (scheduler, workload, procs, tasks) — the task count is part of the
    key so a quick run is only ever compared against quick baseline
    entries. A pair fails when the relative difference in
    [bytes_per_task] exceeds [tolerance] and the absolute difference
    exceeds a 64-byte slack; an entry present in [current] with no
    matching baseline entry also fails.

    When [current] is a quick report, it must carry FLB and FCP at
    P ∈ \{2, 8, 64, 512, 1024\} on every workload (a missing entry
    fails), and two gates read it alone, so they hold on any host:
    - FLB's [bytes_per_task] is at most 2× FCP's on the same workload,
      size and P, at every P (FLB's queue state is O(V + P), like FCP's);
    - the median over workloads of FLB's [ns_per_task] at P = 1024
      divided by its P = 2 figure is at most 4 (its cost per task grows
      with log P); the median keeps one noisy cell from failing it.

    Timing is otherwise never compared, and never against the baseline. *)
