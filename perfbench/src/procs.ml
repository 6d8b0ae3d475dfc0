(* The daemon and router under test, run as separate processes of the
   built [flb] binary. Each listens on an ephemeral port and announces
   it on its first line of output ("... listening on HOST:PORT ..."). *)

module Wire = Flb_service.Wire

type t = { pid : int; port : int; out : Unix.file_descr }

exception Start_failed of string

let parse_port line =
  let key = "listening on " in
  let kl = String.length key in
  let rec find i =
    if i + kl > String.length line then None
    else if String.sub line i kl = key then Some (i + kl)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i ->
    let j = match String.index_from_opt line i ' ' with Some j -> j | None -> String.length line in
    let addr = String.sub line i (j - i) in
    Option.bind (String.rindex_opt addr ':') (fun c ->
        int_of_string_opt (String.sub addr (c + 1) (String.length addr - c - 1)))

(* Read the announcement line, waiting at most [timeout_s]. *)
let read_line_within fd ~timeout_s =
  let buf = Buffer.create 128 in
  let byte = Bytes.create 1 in
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec loop () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0.0 then None
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> None
      | _ -> (
        match Unix.read fd byte 0 1 with
        | 0 -> None
        | _ when Bytes.get byte 0 = '\n' -> Some (Buffer.contents buf)
        | _ ->
          Buffer.add_char buf (Bytes.get byte 0);
          loop ())
  in
  loop ()

let kill_and_reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let spawn ~flb args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process flb (Array.of_list (flb :: args)) Unix.stdin w Unix.stderr in
  Unix.close w;
  match Option.bind (read_line_within r ~timeout_s:20.0) parse_port with
  | Some port -> { pid; port; out = r }
  | None ->
    kill_and_reap pid;
    Unix.close r;
    raise (Start_failed (String.concat " " (flb :: args)))

let serve ~flb = spawn ~flb [ "serve"; "--port"; "0" ]

let route ~flb ~backends =
  spawn ~flb
    [
      "route"; "--port"; "0"; "--backends";
      String.concat "," (List.map (fun b -> Printf.sprintf "127.0.0.1:%d" b.port) backends);
    ]

(* Peak resident set size, from the kernel's high-water mark. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | exception End_of_file -> 0.0
          | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f kB" (fun kb ->
                kb /. 1024.0)
          | _ -> scan ()
        in
        scan ())

let self_peak_rss_mb () = peak_rss_mb (Unix.getpid ())

(* Total and stolen CPU ticks of the host so far (Linux /proc/stat): the
   share stolen by the hypervisor during a run says how much of the
   run's noise came from other guests. *)
let cpu_ticks () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some line -> (
    match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | "cpu" :: fields ->
      let ticks = List.filter_map int_of_string_opt fields in
      let steal = match List.nth_opt ticks 7 with Some s -> s | None -> 0 in
      Some (List.fold_left ( + ) 0 ticks, steal)
    | _ -> None)
  | None | (exception Sys_error _) -> None

(* Restart the process's high-water mark at its current RSS (Linux
   clear_refs); where that is not allowed, the mark keeps its history. *)
let reset_self_peak_rss () =
  let path = Printf.sprintf "/proc/%d/clear_refs" (Unix.getpid ()) in
  try Out_channel.with_open_text path (fun oc -> output_string oc "5") with Sys_error _ -> ()

(* Ask every process to stop over the wire, give them a few seconds
   together, then kill the ones left. Always reaps them. *)
let stop_all ts =
  List.iter
    (fun t ->
      try Conn.with_conn ~port:t.port (fun c -> ignore (Conn.call c Wire.Shutdown)) with _ -> ())
    ts;
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec wait t =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.01;
      wait t
    | 0, _ -> kill_and_reap t.pid
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait t
    | exception Unix.Unix_error _ -> ()
  in
  List.iter
    (fun t ->
      wait t;
      Unix.close t.out)
    ts
