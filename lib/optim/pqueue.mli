(** Minimal mutable binary min-heap keyed by floats.

    Drives the best-first branch-and-bound: nodes are popped in order of
    increasing lower bound. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int
val push : 'a t -> float -> 'a -> unit
val pop : 'a t -> (float * 'a) option
(** Remove and return the minimum-key element. *)

val filter_in_place : 'a t -> (float -> 'a -> bool) -> unit
(** Drop entries not satisfying the predicate, restoring heap order —
    used to prune queued boxes whose lower bound exceeds a new incumbent.
    O(n): compacts survivors in place and re-heapifies bottom-up; dead
    slots are cleared so dropped values do not stay pinned in memory. *)

val fold : ('acc -> float -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val min_key : 'a t -> float
(** [infinity] when empty. *)
