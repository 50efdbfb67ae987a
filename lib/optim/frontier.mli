(** The branch-and-bound frontier shared by every worker domain: one
    best-first min-heap of queued items, one in-flight slot per worker,
    one mutex and one condition variable.

    Workers {!take} the minimum-key item, expand it, {!push} its
    children and then {!release} it.  Every operation runs under the
    one lock, so {!bound} is the exact minimum key over queued and
    in-flight items at every domain count.

    Concurrency contract:
    - [take]/[release]/[park] with a given [~worker] index are called
      only by that worker, and a worker holds at most one in-flight item
      at a time.
    - A worker pushes an item's children {e before} releasing the item,
      so the live count reaches 0 only when the search space is
      exhausted.
    - {!prune} is called by a worker that holds an
      in-flight item, or before any worker starts.
    - Items are never mutated after being pushed (the B&B contract), so
      {!snapshot} may hand them to a checkpoint writer.

    Wake-ups: {!push} signals one parked worker; the {!release} that
    empties the search and {!close} wake every parked worker. *)

type 'a t

val create : workers:int -> 'a t
(** An empty frontier with in-flight slots for workers [0 .. workers-1].
    @raise Invalid_argument if [workers < 1]. *)

val push : 'a t -> float -> 'a -> unit
(** Queue an item at its key and wake one parked worker, if any. *)

val take : 'a t -> worker:int -> (float * 'a) option
(** Pop the minimum-key item into [worker]'s in-flight slot; [None] when
    nothing is queued (work may still be in flight elsewhere — see
    {!park}). *)

val release : 'a t -> worker:int -> unit
(** Retire [worker]'s in-flight item.  Wakes every parked worker when it
    was the last live item. *)

val prune : 'a t -> (float -> 'a -> bool) -> unit
(** Drop queued items that fail the predicate; in-flight items are
    kept.  The live count stays exact. *)

val snapshot : 'a t -> (float * 'a) list
(** Every live item with its key, queued {e and} in flight — the whole
    frontier a checkpoint must save. *)

val bound : 'a t -> float
(** The minimum key over queued and in-flight items, read under the
    lock: exact.  [infinity] when nothing is live. *)

val live : 'a t -> int
(** Queued + in-flight items. *)

val drained : 'a t -> bool
(** [live t = 0]: the search space is exhausted. *)

val queue_length : 'a t -> int
(** Queued (not in-flight) items. *)

val close : 'a t -> unit
(** Start shutdown and wake every parked worker. *)

val is_closed : 'a t -> bool

val park : 'a t -> worker:int -> [ `Work | `Drained | `Closed ]
(** Block [worker] until an item is queued ([`Work]: call {!take}), the
    search drains ([`Drained]) or the frontier is closed ([`Closed]).
    Returns at once if one of these already holds. *)

val idle_wakeups : 'a t -> int
(** Times a worker actually blocked in {!park}. *)
