(* The closed-loop generator and the instances a run measures.

   Each caller of the scheduling service waits for its schedule before
   asking for the next one, so the generator is a closed loop: [clients]
   threads, each issuing its next op only once the previous one has
   completed, until the window closes. Ops take consecutive indices from
   one shared counter, so the sequence of inputs is fixed by the seed
   whatever the timing. *)

let clients = 2

(* One thread per client on a host with fewer cores would measure the
   generator's own contention, not the system under test. *)
let check_clients ~nproc =
  if clients > nproc then
    Error
      (Printf.sprintf "refusing to run %d client threads on %d processor(s)" clients nproc)
  else Ok ()

(* Runs [op ~client ~index] back to back on every client until
   [seconds] have passed; an op started before the deadline completes.
   Indices start at [first]. Returns the wall time until the last
   client finished. *)
let run ?(clients = clients) ?(first = 0) ~seconds op =
  let next = Atomic.make first in
  let t0 = Spans.now_ns () in
  let deadline = Int64.add t0 (Int64.of_float (seconds *. 1e9)) in
  let worker client () =
    while Int64.compare (Spans.now_ns ()) deadline < 0 do
      op ~client ~index:(Atomic.fetch_and_add next 1)
    done
  in
  List.iter Thread.join (List.init clients (fun c -> Thread.create (worker c) ()));
  Spans.elapsed_s t0

let instances = 12

(* One instance: its set-up time, measurement, and the share of the
   host's CPU time the hypervisor stole while it was measured. *)
type 'm instance = { setup_s : float; measured : 'm; steal : float }

let steal_between before after =
  match (before, after) with
  | Some (t0, s0), Some (t1, s1) when t1 > t0 -> float_of_int (s1 - s0) /. float_of_int (t1 - t0)
  | _ -> 0.0

(* A run measures [instances] independent instances of the system one
   after another, each set up afresh (processes started, inputs
   generated, warm-up pass) and measured for its share of the window:
   how an instance's threads and heap happen to settle varies from one
   start to the next more than anything within one instance, so a run
   pools several. Ops continue their indices across instances. Returns
   the instances and the last one's environment, which the checks use;
   the earlier environments are dropped as soon as they are torn down,
   so that they do not pile up in the generator's heap. *)
let over_instances ~seconds ~setup ~teardown ~measure ~ops =
  let rec go k first acc last =
    if k = instances then (List.rev acc, Option.get last)
    else begin
      let t0 = Spans.now_ns () in
      let env = setup () in
      let setup_s = Spans.elapsed_s t0 in
      let ticks = Procs.cpu_ticks () in
      let measured =
        Fun.protect
          ~finally:(fun () -> teardown env)
          (fun () -> measure env ~first ~seconds:(seconds /. float_of_int instances))
      in
      let steal = steal_between ticks (Procs.cpu_ticks ()) in
      go (k + 1) (first + ops measured) ({ setup_s; measured; steal } :: acc) (Some env)
    end
  in
  go 0 0 [] None

let measurements results = List.map (fun r -> r.measured) results

let median_setup results = Pstats.median (Array.of_list (List.map (fun r -> r.setup_s) results))

(* Attempted ops per second of each instance and the CPU share stolen
   meanwhile, for the reader. *)
let rates_note results ~ops ~wall =
  "  attempted ops/s per instance (CPU stolen): "
  ^ String.concat ", "
      (List.map
         (fun r ->
           Printf.sprintf "%.1f (%.1f%%)"
             (float_of_int (ops r.measured) /. wall r.measured)
             (100.0 *. r.steal))
         results)

(* The run's p99: the lower quartile over its instances of each
   instance's exact p99 over its own raw samples. Bursts of stolen CPU
   time on a shared host last seconds and stretch the tail of whichever
   instances they hit, several times over; pooled, those instances would
   supply most of the run's top 1%, and even the median instance is often
   one of them. The lower quartile is the tail of the instances the host
   left alone, and a change that lengthens the program's own tail
   lengthens it in every instance. [per_instance] holds each instance's
   latencies; the note prints every instance's p99 and the pooled one. *)
let instance_p99 per_instance =
  Pstats.percentile (Array.of_list (List.map (fun l -> Pstats.percentile l 0.99) per_instance)) 0.25

let p99_note per_instance =
  Printf.sprintf "  p99 per instance (ms): %s; over all samples %.3f"
    (String.concat ", " (List.map (fun l -> Printf.sprintf "%.3f" (Pstats.percentile l 0.99)) per_instance))
    (Pstats.percentile (Array.concat per_instance) 0.99)

(* Two domains validate in parallel: the checks re-run the scheduler,
   which costs about as much as the service did. *)
let parallel_map f a =
  let n = Array.length a in
  let half = n / 2 in
  let other = Domain.spawn (fun () -> Array.map f (Array.sub a half (n - half))) in
  let first = Array.map f (Array.sub a 0 half) in
  Array.append first (Domain.join other)
