type t = {
  size : int;
  lock : Mutex.t;
  mutable domains : unit Domain.t list;
}

let spawn ?(on_exn = fun _ _ -> ()) ~count f =
  if count < 1 then invalid_arg "Workers.spawn: count must be >= 1";
  let body i () = try f i with exn -> (try on_exn i exn with _ -> ()) in
  {
    size = count;
    lock = Mutex.create ();
    domains = List.init count (fun i -> Domain.spawn (body i));
  }

let count t = t.size

let join t =
  Mutex.lock t.lock;
  let domains = t.domains in
  t.domains <- [];
  Mutex.unlock t.lock;
  List.iter Domain.join domains

let recommended_domains () =
  min 8 (max 1 (Domain.recommended_domain_count () - 1))

let map ?(domains = 1) f xs =
  if domains <= 1 then List.map f xs
  else begin
    let inputs = Array.of_list xs in
    let n = Array.length inputs in
    let results = Array.make n None in
    let failure = Atomic.make None in
    let next = Atomic.make 0 in
    let rec work _ =
      let i = Atomic.fetch_and_add next 1 in
      if i < n && Atomic.get failure = None then begin
        (match f inputs.(i) with
        | y -> results.(i) <- Some y
        | exception e ->
          (* first failure wins; the others drain quickly *)
          ignore (Atomic.compare_and_set failure None (Some e)));
        work 0
      end
    in
    (* The calling domain is one of the workers. *)
    let helpers = min domains n - 1 in
    let team = if helpers > 0 then Some (spawn ~count:helpers work) else None in
    work 0;
    Option.iter join team;
    (match Atomic.get failure with Some e -> raise e | None -> ());
    Array.to_list
      (Array.map
         (function Some y -> y | None -> assert false (* all indices visited *))
         results)
  end
