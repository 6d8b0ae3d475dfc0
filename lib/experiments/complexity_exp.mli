(** Empirical validation of the paper's complexity claim (extension
    experiment E7 in DESIGN.md).

    The paper's headline result is FLB's O(V (log W + log P) + E) bound
    versus ETF's O(W (E + V) P). This experiment sweeps the graph size V
    and the machine size P and reports, per algorithm, the measured time
    per task plus the probe counters ({!Flb_obs.Probe}) from a separate
    counting run: if the bound holds, FLB's queue operations per task
    stay bounded by a small multiple of log W + log P while ETF's time
    per task grows linearly in W and P. *)

type cell = {
  tasks : int;
  edges : int;
  procs : int;
  algorithm : string;
  seconds : float;  (** best-of-repeats wall time for one scheduling run *)
  ns_per_task : float;
  task_queue_ops_per_task : float;  (** 0 for algorithms without probe support *)
  peak_ready : int;  (** 0 for algorithms without probe support *)
}

val run :
  ?algorithms:Registry.t list ->
  ?sizes:int list ->
  ?procs:int list ->
  ?repeats:int ->
  unit ->
  cell list
(** Defaults: FLB, FCP and ETF on Stencil graphs of
    V in {250, 500, 1000, 2000, 4000}, P in {4, 32}, 3 repeats. ETF is
    skipped at P > 32, the range of the paper's Fig. 2, since its cost
    per task grows linearly in P. The sweep over P is
    [run ~sizes:[2000] ~procs:[2; 8; 64; 512; 1024] ()]: FLB's and FCP's
    queue state is O(V + P), so their time per task should grow no
    faster than log P. *)

val render : cell list -> string

val to_csv : cell list -> string
