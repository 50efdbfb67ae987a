type 'a entry = { key : float; value : 'a }
type 'a t = { mutable data : 'a entry array; mutable size : int }

let create () = { data = [||]; size = 0 }
let is_empty t = t.size = 0
let length t = t.size

let grow t =
  let cap = Array.length t.data in
  if t.size >= cap then begin
    let ncap = max 16 (2 * cap) in
    let nd = Array.make ncap t.data.(0) in
    Array.blit t.data 0 nd 0 t.size;
    t.data <- nd
  end

let swap t i j =
  let tmp = t.data.(i) in
  t.data.(i) <- t.data.(j);
  t.data.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.data.(i).key < t.data.(parent).key then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && t.data.(l).key < t.data.(!smallest).key then smallest := l;
  if r < t.size && t.data.(r).key < t.data.(!smallest).key then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t key value =
  let e = { key; value } in
  if t.size = 0 && Array.length t.data = 0 then t.data <- Array.make 16 e;
  grow t;
  t.data.(t.size) <- e;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.data.(0) <- t.data.(t.size);
      (* The vacated slot now aliases the moved entry, which is live —
         no dangling reference to [top] remains in the array. *)
      sift_down t 0
    end
    else
      (* Drop the backing store so the popped value can be collected. *)
      t.data <- [||];
    Some (top.key, top.value)
  end

let peek_key t = if t.size = 0 then None else Some t.data.(0).key
let min_key t = match peek_key t with None -> Float.infinity | Some k -> k

(* Floyd's bottom-up heap construction: O(n). *)
let heapify t =
  for i = (t.size / 2) - 1 downto 0 do
    sift_down t i
  done

let filter_in_place t pred =
  let old_size = t.size in
  let kept = ref 0 in
  for i = 0 to old_size - 1 do
    let e = t.data.(i) in
    if pred e.key e.value then begin
      t.data.(!kept) <- e;
      incr kept
    end
  done;
  t.size <- !kept;
  if !kept = 0 then t.data <- [||]
  else begin
    (* Alias dead slots to a surviving entry so dropped values (pruned
       regions, stale solutions) can be collected instead of staying
       pinned by the backing array. *)
    for i = !kept to old_size - 1 do
      t.data.(i) <- t.data.(0)
    done;
    heapify t
  end

let fold f acc t =
  let acc = ref acc in
  for i = 0 to t.size - 1 do
    let e = t.data.(i) in
    acc := f !acc e.key e.value
  done;
  !acc
