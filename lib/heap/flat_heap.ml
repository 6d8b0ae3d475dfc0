(* The heap algorithms work on bare arrays so that [t] (one heap over its
   own universe) and [Family] (many disjoint heaps over one shared
   universe) run the same order and the same sift code. A heap is an int
   array whose live prefix [0, n) holds element ids; [pos], [k1] and [k2]
   are indexed by element id. *)

(* Lexicographic (primary, secondary, id) order, fully monomorphic: every
   comparison below is a float or int primitive, none allocates and none
   falls back to the polymorphic compare runtime. *)
let[@inline] less (k1 : float array) (k2 : float array) (a : int) (b : int) =
  let ka = k1.(a) and kb = k1.(b) in
  if ka < kb then true
  else if ka > kb then false
  else begin
    let sa = k2.(a) and sb = k2.(b) in
    if sa < sb then true else if sa > sb then false else a < b
  end

let[@inline] place (heap : int array) (pos : int array) i e =
  heap.(i) <- e;
  pos.(e) <- i

let rec sift_up heap pos k1 k2 i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    let e = heap.(i) and pe = heap.(parent) in
    if less k1 k2 e pe then begin
      place heap pos i pe;
      place heap pos parent e;
      sift_up heap pos k1 k2 parent
    end
  end

let rec sift_down heap n pos k1 k2 i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < n && less k1 k2 heap.(l) heap.(!smallest) then smallest := l;
  if r < n && less k1 k2 heap.(r) heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    let e = heap.(i) and se = heap.(!smallest) in
    place heap pos i se;
    place heap pos !smallest e;
    sift_down heap n pos k1 k2 !smallest
  end

(* Inserts [e] (keys already stored) into a heap of [n] live entries. *)
let insert heap n pos k1 k2 e =
  place heap pos n e;
  sift_up heap pos k1 k2 n

(* Deletes the entry at index [i] of a heap of [n] live entries; the live
   prefix becomes [0, n - 1). *)
let delete_at heap n pos k1 k2 i =
  pos.(heap.(i)) <- -1;
  let last = n - 1 in
  if i <> last then begin
    let e = heap.(last) in
    place heap pos i e;
    sift_up heap pos k1 k2 i;
    sift_down heap last pos k1 k2 pos.(e)
  end

let sorted heap n k1 k2 =
  let items = ref [] in
  for i = 0 to n - 1 do
    let e = heap.(i) in
    items := (e, (k1.(e), k2.(e))) :: !items
  done;
  List.sort
    (fun (e1, (p1, s1)) (e2, (p2, s2)) ->
      let c = Float.compare p1 p2 in
      if c <> 0 then c
      else
        let c = Float.compare s1 s2 in
        if c <> 0 then c else Int.compare e1 e2)
    !items

type t = {
  heap : int array; (* live prefix [0, size) holds element ids *)
  mutable size : int;
  pos : int array; (* element id -> heap index, or -1 if absent *)
  k1 : float array; (* element id -> primary key (valid while present) *)
  k2 : float array; (* element id -> secondary key *)
}

let create ~universe =
  if universe < 0 then invalid_arg "Flat_heap.create: negative universe";
  let cap = max 1 universe in
  {
    heap = Array.make cap 0;
    size = 0;
    pos = Array.make cap (-1);
    k1 = Array.make cap 0.0;
    k2 = Array.make cap 0.0;
  }

let length h = h.size

let is_empty h = h.size = 0

let in_range h e = e >= 0 && e < Array.length h.pos

let mem h e = in_range h e && h.pos.(e) >= 0

let primary h e =
  if not (mem h e) then raise Not_found;
  h.k1.(e)

let secondary h e =
  if not (mem h e) then raise Not_found;
  h.k2.(e)

let add h ~elt ~primary ~secondary =
  if not (in_range h elt) then
    invalid_arg
      (Printf.sprintf "Flat_heap.add: element %d outside universe [0, %d)" elt
         (Array.length h.pos));
  if h.pos.(elt) >= 0 then
    invalid_arg (Printf.sprintf "Flat_heap.add: element %d already present" elt);
  h.k1.(elt) <- primary;
  h.k2.(elt) <- secondary;
  insert h.heap h.size h.pos h.k1 h.k2 elt;
  h.size <- h.size + 1

let update h ~elt ~primary ~secondary =
  if mem h elt then begin
    h.k1.(elt) <- primary;
    h.k2.(elt) <- secondary;
    sift_up h.heap h.pos h.k1 h.k2 h.pos.(elt);
    sift_down h.heap h.size h.pos h.k1 h.k2 h.pos.(elt)
  end
  else add h ~elt ~primary ~secondary

let remove_at h i =
  delete_at h.heap h.size h.pos h.k1 h.k2 i;
  h.size <- h.size - 1

let remove h e = if mem h e then remove_at h h.pos.(e)

let peek h = if h.size = 0 then -1 else h.heap.(0)

let pop h =
  if h.size = 0 then -1
  else begin
    let e = h.heap.(0) in
    remove_at h 0;
    e
  end

let iter f h =
  for i = 0 to h.size - 1 do
    f h.heap.(i)
  done

let to_sorted_list h = sorted h.heap h.size h.k1 h.k2

module Family = struct
  type t = {
    members : int array array; (* list -> heap array, grown by doubling *)
    sizes : int array; (* list -> live prefix length of its heap array *)
    owner : int array; (* element id -> list holding it, or -1 *)
    pos : int array; (* element id -> index in its owner's heap array *)
    k1 : float array;
    k2 : float array;
  }

  let create ~lists ~universe =
    if lists < 0 then invalid_arg "Flat_heap.Family.create: negative list count";
    if universe < 0 then invalid_arg "Flat_heap.Family.create: negative universe";
    {
      members = Array.make lists [||];
      sizes = Array.make lists 0;
      owner = Array.make universe (-1);
      pos = Array.make universe (-1);
      k1 = Array.make universe 0.0;
      k2 = Array.make universe 0.0;
    }

  let lists f = Array.length f.sizes

  let owner f e = if e >= 0 && e < Array.length f.owner then f.owner.(e) else -1

  let primary f e =
    if owner f e < 0 then raise Not_found;
    f.k1.(e)

  let secondary f e =
    if owner f e < 0 then raise Not_found;
    f.k2.(e)

  let add f l ~elt ~primary ~secondary =
    if l < 0 || l >= lists f then
      invalid_arg
        (Printf.sprintf "Flat_heap.Family.add: list %d outside [0, %d)" l (lists f));
    if elt < 0 || elt >= Array.length f.owner then
      invalid_arg
        (Printf.sprintf "Flat_heap.Family.add: element %d outside universe [0, %d)"
           elt (Array.length f.owner));
    if f.owner.(elt) >= 0 then
      invalid_arg
        (Printf.sprintf "Flat_heap.Family.add: element %d already in list %d" elt
           f.owner.(elt));
    let n = f.sizes.(l) in
    if n = Array.length f.members.(l) then begin
      (* Capped by the universe: no list can hold more elements than it. *)
      let grown = Array.make (min (Array.length f.owner) (max 4 (2 * n))) 0 in
      Array.blit f.members.(l) 0 grown 0 n;
      f.members.(l) <- grown
    end;
    f.owner.(elt) <- l;
    f.k1.(elt) <- primary;
    f.k2.(elt) <- secondary;
    insert f.members.(l) n f.pos f.k1 f.k2 elt;
    f.sizes.(l) <- n + 1

  let remove f e =
    let l = owner f e in
    if l >= 0 then begin
      delete_at f.members.(l) f.sizes.(l) f.pos f.k1 f.k2 f.pos.(e);
      f.sizes.(l) <- f.sizes.(l) - 1;
      f.owner.(e) <- -1
    end

  let peek f l = if f.sizes.(l) = 0 then -1 else f.members.(l).(0)

  let to_sorted_list f l = sorted f.members.(l) f.sizes.(l) f.k1 f.k2
end
