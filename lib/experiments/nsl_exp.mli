(** Figure 4 — normalized schedule lengths.

    For every workload, CCR and processor count, each algorithm's
    makespan is averaged over the seeded instances and normalized by
    MCP's makespan on the same instances (NSL; the paper's Fig. 4
    y-axis, where MCP is the 1.00 line). *)

type cell = {
  workload : string;
  ccr : float;
  procs : int;
  algorithm : string;
  nsl_mean : float;
  nsl_min : float;
  nsl_max : float;
}

val run :
  ?domains:int ->
  ?algorithms:Registry.t list ->
  ?suite:Workload_suite.workload list ->
  ?ccrs:float list ->
  ?procs:int list ->
  ?instances_per_cell:int ->
  unit ->
  cell list
(** Defaults reproduce the paper: {!Registry.paper_set},
    {!Workload_suite.fig4_suite} at 2000 tasks, CCR {0.2, 5.0},
    P in {2 .. 32}, 5 instances. NSL is computed per instance and
    averaged. [domains] > 1 fans the grid out over that many OCaml 5
    domains ({!Flb_prelude.Workers.map}); results are identical to the
    sequential run. *)

val render : cell list -> string
(** One table per (workload, CCR) panel: rows = P, columns =
    algorithms, mean NSL in each cell. *)

val to_csv : cell list -> string
