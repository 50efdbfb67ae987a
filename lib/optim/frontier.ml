(* The branch-and-bound frontier shared by every worker domain: one
   best-first heap, one lock and one condition variable.  A node costs
   far more (one or more SOCP solves) than the few sub-microsecond
   critical sections it spends here, so one lock does not serialise the
   search.

   Every read and write of the heap and the in-flight slots happens
   under [lock], so [bound] is exact.  [live] and [closed] are atomics
   as well, so the driver's loop can test them without taking the lock;
   both only change under it. *)

(* Scheduler probes, declared at module init.  Glossary:
   doc/observability.mld. *)
let p_park =
  Obs.Probe.v "sched.park" ~count:"times a worker parked on its idle condvar"

let p_wake = Obs.Probe.v "sched.wake"
let p_drain = Obs.Probe.v "sched.drain"

let m_queue_depth =
  Obs.Metrics.histogram Obs.Metrics.default ~lo:1.0 ~hi:1e6
    ~help:"shared-frontier queue length sampled after each push"
    "ldafp_sched_queue_depth"

let m_frontier_size =
  Obs.Metrics.gauge Obs.Metrics.default
    ~help:"queued regions in the shared frontier after its last push or removal"
    "ldafp_bnb_frontier_size"

type 'a t = {
  lock : Mutex.t;
  work : Condition.t;  (* new work, the drain, or [close] *)
  heap : 'a Pqueue.t;
  busy : (float * 'a) option array;
      (* Each worker's in-flight item and its key.  The item is kept,
         not just the key, so a checkpoint can save it. *)
  live : int Atomic.t;
      (* Queued + in-flight items.  Children are pushed before their
         parent is released, so [live] reaches 0 only when the search
         space is exhausted. *)
  closed : bool Atomic.t;
  idle_wakeups : int Atomic.t;
}

let create ~workers =
  if workers < 1 then invalid_arg "Frontier.create: workers < 1";
  {
    lock = Mutex.create ();
    work = Condition.create ();
    heap = Pqueue.create ();
    busy = Array.make workers None;
    live = Atomic.make 0;
    closed = Atomic.make false;
    idle_wakeups = Atomic.make 0;
  }

(* Must hold [t.lock]. *)
let note_size t =
  if Obs.Probe.on () then
    Obs.Metrics.set m_frontier_size (float_of_int (Pqueue.length t.heap))

let push t key value =
  Mutex.protect t.lock (fun () ->
      Pqueue.push t.heap key value;
      Atomic.incr t.live;
      note_size t;
      if Obs.Probe.on () then
        Obs.Metrics.observe m_queue_depth (float_of_int (Pqueue.length t.heap));
      Condition.signal t.work)

let take t ~worker =
  Mutex.protect t.lock (fun () ->
      let item = Pqueue.pop t.heap in
      t.busy.(worker) <- item;
      note_size t;
      item)

let release t ~worker =
  Mutex.protect t.lock (fun () ->
      t.busy.(worker) <- None;
      Atomic.decr t.live;
      (* The search just drained: every parked worker must see it. *)
      if Atomic.get t.live = 0 then Condition.broadcast t.work)

(* [live] drops by the number of queued items removed, so it stays
   exact.  Callers hold an in-flight item (or run before any worker), so
   a removal never drains the search: the [release] after it does. *)
let remove t f =
  Mutex.protect t.lock (fun () ->
      let before = Pqueue.length t.heap in
      let r = f t.heap in
      let dropped = before - Pqueue.length t.heap in
      if dropped > 0 then begin
        ignore (Atomic.fetch_and_add t.live (-dropped));
        note_size t
      end;
      r)

let prune t pred = remove t (fun heap -> Pqueue.filter_in_place heap pred)

let shed t ~keep = remove t (fun heap -> Pqueue.drop_worst heap ~keep)

let snapshot t =
  Mutex.protect t.lock (fun () ->
      Array.fold_left
        (fun acc slot -> match slot with Some item -> item :: acc | None -> acc)
        (Pqueue.fold (fun acc key v -> (key, v) :: acc) [] t.heap)
        t.busy)

let bound t =
  Mutex.protect t.lock (fun () ->
      Array.fold_left
        (fun acc slot ->
          match slot with Some (k, _) -> Float.min acc k | None -> acc)
        (Pqueue.min_key t.heap) t.busy)

let live t = Atomic.get t.live
let drained t = Atomic.get t.live = 0
let queue_length t = Mutex.protect t.lock (fun () -> Pqueue.length t.heap)

let close t =
  Mutex.protect t.lock (fun () ->
      Atomic.set t.closed true;
      Condition.broadcast t.work)

let is_closed t = Atomic.get t.closed

let park t ~worker =
  let outcome =
    Mutex.protect t.lock (fun () ->
        let rec wait () =
          if Atomic.get t.closed then `Closed
          else if Atomic.get t.live = 0 then `Drained
          else if not (Pqueue.is_empty t.heap) then `Work
          else begin
            Atomic.incr t.idle_wakeups;
            Obs.Probe.hit_int p_park "worker" worker;
            Condition.wait t.work t.lock;
            Obs.Probe.hit_int p_wake "worker" worker;
            wait ()
          end
        in
        wait ())
  in
  if outcome = `Drained then Obs.Probe.hit p_drain;
  outcome

let idle_wakeups t = Atomic.get t.idle_wakeups
