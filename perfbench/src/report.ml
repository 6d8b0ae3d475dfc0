(* The metrics every run prints, and the result line.

   A run with tracing off prints every end-to-end metric; a traced run
   prints every per-layer metric. A per-layer metric of a layer the
   workload's request path does not cross reads 0. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("throughput_ops", "ops/s");
    ("latency_p50_ms", "ms");
    ("latency_p99_ms", "ms");
    ("success_ratio", "ratio");
    ("makespan_mean", "weight");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("serial.parse_us", "us");
    ("serial.parse_ns_per_task", "ns");
    ("wire.request_bytes", "B");
    ("wire.response_bytes", "B");
    ("wire.encode_us", "us");
    ("wire.decode_us", "us");
    ("cache.key_us", "us");
    ("cache.digest_us", "us");
    ("cache.hit_ratio", "ratio");
    ("cache.evictions", "count");
    ("pool.queue_wait_p50_us", "us");
    ("pool.queue_wait_p99_us", "us");
    ("pool.overloaded_ratio", "ratio");
    ("flb.ns_per_task.p8", "ns");
    ("flb.ns_per_task.p64", "ns");
    ("flb.ns_per_task.p512", "ns");
    ("flb.bytes_per_task.p8", "B");
    ("flb.bytes_per_task.p64", "B");
    ("flb.bytes_per_task.p512", "B");
    ("nsl_ref.ns_per_task.p8", "ns");
    ("nsl_ref.ns_per_task.p64", "ns");
    ("nsl_ref.ns_per_task.p512", "ns");
    ("schedule_io.encode_us", "us");
    ("schedule_io.decode_us", "us");
    ("schedule_io.bytes", "B");
    ("server.cache_stage_us", "us");
    ("server.exec_stage_us", "us");
    ("server.unattributed_ratio", "ratio");
    ("router.key_us", "us");
    ("router.backend_hit_ratio", "ratio");
    ("router.unattributed_ratio", "ratio");
    ("stream.round_us", "us");
    ("stream.rounds_per_stream", "count");
    ("stream.tasks_per_round", "count");
    ("stream.add_tasks_us", "us");
    ("stream.add_edges_us", "us");
    ("engine.static.real_over_predicted", "ratio");
    ("engine.static.idle_frac", "ratio");
    ("engine.steal.idle_frac", "ratio");
    ("engine.affinity.idle_frac", "ratio");
    ("engine.steal.steals_per_task", "count");
    ("engine.steal.failed_steal_ratio", "ratio");
    ("engine.affinity.hint_hit_ratio", "ratio");
    ("exec_static_p50_ms", "ms");
    ("exec_steal_p50_ms", "ms");
    ("exec_affinity_p50_ms", "ms");
    ("trace.overhead_ms", "ms");
  ]

(* What one workload run produced. [values] maps metric names to
   measurements; [notes] are printed for the reader only (sample counts,
   layer self times). *)
type t = {
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;
  notes : string list;
  spans : Spans.t;  (** written out after a traced run *)
}

(* The last line of the run's output. A metric no measurement produced,
   or one that is not finite, makes the run incorrect. *)
let result_line ~trace r =
  let names = if trace then per_layer else end_to_end in
  let correct = ref r.correct in
  let fields =
    List.map
      (fun (name, unit_) ->
        let v =
          match List.assoc_opt name r.values with
          | Some v when Float.is_finite v -> v
          | Some _ ->
            correct := false;
            0.0
          | None when trace -> 0.0
          | None ->
            correct := false;
            0.0
        in
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit_)
      names
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    !correct r.attempted r.failed (String.concat ", " fields)

let print_human ~trace r =
  List.iter print_endline r.notes;
  let names = if trace then per_layer else end_to_end in
  List.iter
    (fun (name, unit_) ->
      Printf.printf "  %-36s %14.4f %s\n" name
        (Option.value ~default:0.0 (List.assoc_opt name r.values))
        unit_)
    names;
  Printf.printf "  ops attempted %d, failed %d, outputs %s\n" r.attempted r.failed
    (if r.correct then "checked correct" else "INCORRECT")

(* Self time per layer over the traced run's spans. *)
let self_time_notes spans =
  let rows = Spans.self_us spans in
  let total = List.fold_left (fun acc (_, a) -> acc +. Pstats.sum a) 0.0 rows in
  "self time per layer (traced spans):"
  :: List.map
       (fun (name, a) ->
         Printf.sprintf "  %-22s %8d spans  median %10.2f us  total %12.0f us  %5.1f%%" name
           (Array.length a) (Pstats.median a) (Pstats.sum a)
           (if total > 0.0 then 100.0 *. Pstats.sum a /. total else 0.0))
       rows
