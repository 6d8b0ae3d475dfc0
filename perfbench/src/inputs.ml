(* Workload inputs, all derived from the run's seed.

   The structures are the E4 (Fig. 4) suite: LU, Stencil and Laplace. A
   graph's weights come from a generator keyed by (seed, purpose, index)
   through a 64-bit mix, so the same seed always yields byte-identical
   inputs, and distinct indices yield distinct graphs: a unique-input
   workload never repeats a graph, whatever the cache capacity. *)

open! Flb_taskgraph
module Suite = Flb_experiments.Workload_suite

let ccrs = [| 0.2; 5.0 |]

(* Sizes of the two graph families: V ~ 150-180 for the repeated mix,
   V ~ 1000-1210 for fresh graphs, streams and execution. *)
let small_tasks = 150

let large_tasks = 1000

let unique_procs = [| 8; 64; 512 |]

let repeat_procs = 8

let stream_procs = 8

let stream_batches = 4

let execute_procs = 2

type purpose = Repeat | Cell | Unique | Warm | Stream | Execute

let purpose_tag = function
  | Repeat -> 1L
  | Cell -> 2L
  | Unique -> 3L
  | Warm -> 4L
  | Stream -> 5L
  | Execute -> 6L

(* SplitMix64 finalizer. *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let rng ~seed purpose index =
  let h = mix (Int64.add (Int64.of_int seed) 0x9e3779b97f4a7c15L) in
  let h = mix (Int64.logxor h (purpose_tag purpose)) in
  Flb_prelude.Rng.of_int64 (mix (Int64.logxor h (Int64.of_int index)))

type structures = Suite.workload array

let structures ~tasks : structures = Array.of_list (Suite.fig4_suite ~tasks ())

(* Index [i] walks the structures fastest, then the CCRs. *)
let graph (structures : structures) ~seed purpose i =
  let k = Array.length structures in
  let w = structures.(i mod k) in
  let ccr = ccrs.(i / k mod Array.length ccrs) in
  Flb_workloads.Weights.assign w.Suite.structure ~rng:(rng ~seed purpose i) ~ccr

type request = { text : string; procs : int }

(* The repeated mix: the 6 (structure, CCR) cells at V ~ 150-180, FLB
   at P = 8. Requests cycle over them. *)
let repeat_requests ~seed =
  let s = structures ~tasks:small_tasks in
  Array.init
    (Array.length s * Array.length ccrs)
    (fun i -> { text = Serial.to_string (graph s ~seed Repeat i); procs = repeat_procs })

(* The unique mix. Serializing a fresh V ~ 1000 graph costs the
   generator about 5 ms, a fifth of what the daemon spends on it, on the
   same two processors. So each (structure, CCR) cell is drawn and
   serialized once, and request [i] redraws every computation cost from
   its own generator and reuses its cell's edge section: every request
   is a graph the daemon has never seen, for about 0.5 ms of generator
   work. P cycles over [unique_procs] once every cell has been visited.
   Warm-up requests use their own purpose, so they never coincide with a
   timed request. *)
type unique = { tasks : int array; edges : string array }

let unique_procs_of u i =
  unique_procs.(i / Array.length u.tasks mod Array.length unique_procs)

let unique_cells (s : structures) ~seed =
  let cells = Array.length s * Array.length ccrs in
  let graphs = Array.init cells (graph s ~seed Cell) in
  let edge_section g =
    let text = Serial.to_string g in
    let rec first_edge i =
      if i + 5 > String.length text then String.length text
      else if String.sub text i 5 = "edge " && (i = 0 || text.[i - 1] = '\n') then i
      else first_edge (i + 1)
    in
    let i = first_edge 0 in
    String.sub text i (String.length text - i)
  in
  { tasks = Array.map Taskgraph.num_tasks graphs; edges = Array.map edge_section graphs }

let unique_request u ~seed ?(purpose = Unique) i =
  let cells = Array.length u.tasks in
  let c = i mod cells in
  let rng = rng ~seed purpose i in
  let b = Buffer.create (String.length u.edges.(c) + (u.tasks.(c) * 32)) in
  Printf.bprintf b "tasks %d\n" u.tasks.(c);
  for t = 0 to u.tasks.(c) - 1 do
    Buffer.add_string b "task ";
    Buffer.add_string b (string_of_int t);
    Buffer.add_char b ' ';
    Buffer.add_string b
      (string_of_float (Flb_workloads.Weights.sample Flb_workloads.Weights.Uniform rng ~mean:1.0));
    Buffer.add_char b '\n'
  done;
  Buffer.add_string b u.edges.(c);
  { text = Buffer.contents b; procs = unique_procs_of u i }

let stream_graph (s : structures) ~seed i = graph s ~seed Stream i

(* The execution inputs: the 6 cells at V ~ 1000-1210. *)
let execute_graphs ~seed =
  let s = structures ~tasks:large_tasks in
  Array.init (Array.length s * Array.length ccrs) (fun i -> graph s ~seed Execute i)
