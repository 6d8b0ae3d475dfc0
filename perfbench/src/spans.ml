(* In-memory span recorder of the traced run.

   A span is a name, a start, an end (monotonic nanoseconds) and the id
   of the span that caused it (0 for a root). Spans stay in memory while
   the run measures and are written out once it ends. A layer's self
   time is its span's duration minus the durations of its children:
   children are recorded by the same thread inside their parent, so they
   never overlap each other. A disabled recorder records nothing. *)

let now_ns () = Monotonic_clock.now ()

let elapsed_s t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

type span = { id : int; parent : int; name : string; start_ns : int64; end_ns : int64 }

type t = {
  enabled : bool;
  next : int Atomic.t;
  lock : Mutex.t;
  mutable spans : span list;
}

let create ~enabled =
  { enabled; next = Atomic.make 1; lock = Mutex.create (); spans = [] }

let disabled = create ~enabled:false

let enabled t = t.enabled

let add t ~parent ~name ~start_ns ~end_ns =
  if t.enabled then begin
    let s = { id = Atomic.fetch_and_add t.next 1; parent; name; start_ns; end_ns } in
    Mutex.lock t.lock;
    t.spans <- s :: t.spans;
    Mutex.unlock t.lock;
    s.id
  end
  else 0

(* [f] receives the new span's id, to pass as [parent] to its children.
   The id is reserved before [f] runs; the span is stored once [f]
   returns or raises. *)
let with_span t ?(parent = 0) name f =
  if not t.enabled then f 0
  else begin
    let id = Atomic.fetch_and_add t.next 1 in
    let start_ns = now_ns () in
    let store () =
      let s = { id; parent; name; start_ns; end_ns = now_ns () } in
      Mutex.lock t.lock;
      t.spans <- s :: t.spans;
      Mutex.unlock t.lock
    in
    match f id with
    | v ->
      store ();
      v
    | exception e ->
      store ();
      raise e
  end

let spans t =
  Mutex.lock t.lock;
  let l = t.spans in
  Mutex.unlock t.lock;
  List.rev l

let dur_ns s = Int64.to_float (Int64.sub s.end_ns s.start_ns)

(* Self time of every span, in microseconds, grouped by span name. *)
let self_us t =
  let all = spans t in
  let child_ns = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_ns s.parent
          (dur_ns s +. Option.value ~default:0.0 (Hashtbl.find_opt child_ns s.parent)))
    all;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self =
        (dur_ns s -. Option.value ~default:0.0 (Hashtbl.find_opt child_ns s.id)) /. 1e3
      in
      Hashtbl.replace by_name s.name
        (self :: Option.value ~default:[] (Hashtbl.find_opt by_name s.name)))
    all;
  Hashtbl.fold (fun name l acc -> (name, Array.of_list l) :: acc) by_name []
  |> List.sort compare

let write_jsonl t ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"name\":%S,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
            s.id s.parent s.name s.start_ns s.end_ns)
        (spans t))
