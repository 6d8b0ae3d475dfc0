(** Indexed (addressable) binary min-heap with unboxed two-component
    float keys.

    The allocation-free sibling of {!Indexed_heap}: elements are integer
    identifiers from a fixed universe and keys are pairs
    [(primary, secondary)] ordered lexicographically — exactly the
    [(value, tie-break)] keys every scheduler in this repository uses —
    but the two components live in plain [float array]s indexed by
    element, so no operation allocates: no boxed tuple per push, no
    polymorphic [compare] per sift step, no [option] per peek. The
    backing arrays are sized by the universe at {!create} (each element
    is present at most once, so the heap can never outgrow it), making
    every subsequent operation allocation-free.

    Ordering matches {!Indexed_heap} over [(float * float)] keys with
    [Stdlib.compare]: primary, then secondary, then element id (keys are
    required to be non-NaN; graph weights are validated finite at
    construction). *)

type t

val create : universe:int -> t
(** [create ~universe] supports elements [0 .. universe-1]. Allocates
    four arrays of length [universe]; nothing afterwards. *)

val length : t -> int

val is_empty : t -> bool

val mem : t -> int -> bool

val primary : t -> int -> float
(** Primary key component of a present element.
    @raise Not_found if the element is not in the heap. *)

val secondary : t -> int -> float
(** @raise Not_found if the element is not in the heap. *)

val add : t -> elt:int -> primary:float -> secondary:float -> unit
(** @raise Invalid_argument if [elt] is already present or out of range. *)

val update : t -> elt:int -> primary:float -> secondary:float -> unit
(** Re-keys a present element, or inserts an absent one. *)

val remove : t -> int -> unit
(** Removes the element if present; no-op otherwise. *)

val peek : t -> int
(** Element with the smallest key, or [-1] when empty. O(1), never
    allocates. Its key components are [primary h (peek h)] and
    [secondary h (peek h)]. *)

val pop : t -> int
(** Removes and returns the minimum element, or [-1] when empty. *)

val iter : (int -> unit) -> t -> unit
(** Heap order, not sorted order. *)

val to_sorted_list : t -> (int * (float * float)) list
(** Non-destructive; ascending by key then element id. For tests and
    trace snapshots (allocates freely). *)

(** {1 Families of disjoint heaps}

    [P] min-heaps over one shared element universe, for queues whose
    lists partition their elements — FLB's per-processor EP lists, where
    a ready task sits in the list of its enabling processor only. The
    key and position arrays ([owner], [pos] and both key components) are
    indexed by element and shared by every list; each list owns only an
    int array of its members, grown by doubling. A family over [P] lists
    and [V] elements therefore holds O(V + P) state where [P] separate
    {!t}s would hold O(P·V). Order, sift code and tie-breaking are those
    of {!t}: list [l] behaves exactly like a {!t} holding the same
    elements with the same keys. *)
module Family : sig
  type t

  val create : lists:int -> universe:int -> t
  (** [create ~lists ~universe]: lists [0 .. lists-1] over elements
      [0 .. universe-1], all empty. Allocates four arrays of length
      [universe] and two of length [lists]; a list's member array is
      allocated on its first {!add}. *)

  val lists : t -> int

  val primary : t -> int -> float
  (** @raise Not_found if the element is in no list. *)

  val secondary : t -> int -> float
  (** @raise Not_found if the element is in no list. *)

  val add : t -> int -> elt:int -> primary:float -> secondary:float -> unit
  (** [add f l ~elt ~primary ~secondary] inserts [elt] into list [l].
      Amortized O(log n) in the list's size [n]; allocates only when the
      list's member array doubles.
      @raise Invalid_argument if [l] or [elt] is out of range, or [elt]
      is already in some list. *)

  val remove : t -> int -> unit
  (** Removes an element from the list holding it; no-op if it is in
      none. *)

  val peek : t -> int -> int
  (** Minimum element of a list, or [-1] when the list is empty. O(1),
      never allocates. *)

  val to_sorted_list : t -> int -> (int * (float * float)) list
  (** One list's elements, ascending by key then element id, as
      {!to_sorted_list} for a {!t}. For tests and trace snapshots. *)
end
