(* A binary min-heap over three parallel arrays: entry [i] is
   ([prio.(i)], [seq.(i)], [vals.(i)]). No per-entry record, so [add]
   allocates nothing once the arrays have reached capacity, and
   [top_prio]/[take] allocate nothing at all. *)
type 'a t = {
  mutable prio : int array;
  mutable seq : int array;
  mutable vals : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

(* Filler for unused value slots. Never read back: every read is below
   [size]. *)
let filler () = Obj.magic 0

let create () = { prio = [||]; seq = [||]; vals = [||]; size = 0; next_seq = 0 }
let length t = t.size
let is_empty t = t.size = 0

(* ([p], [s]) comes before ([p'], [s']) when its priority is smaller,
   or on equal priority when it was inserted earlier. *)
let before (p : int) (s : int) p' s' = p < p' || (p = p' && s < s')

let grow t =
  let cap = max 16 (2 * Array.length t.prio) in
  let prio = Array.make cap 0 and seq = Array.make cap 0 in
  let vals = Array.make cap (filler ()) in
  Array.blit t.prio 0 prio 0 t.size;
  Array.blit t.seq 0 seq 0 t.size;
  Array.blit t.vals 0 vals 0 t.size;
  t.prio <- prio;
  t.seq <- seq;
  t.vals <- vals

let move t ~src ~dst =
  t.prio.(dst) <- t.prio.(src);
  t.seq.(dst) <- t.seq.(src);
  t.vals.(dst) <- t.vals.(src)

let place t i p s v =
  t.prio.(i) <- p;
  t.seq.(i) <- s;
  t.vals.(i) <- v

(* Move the hole at [i] up until ([p], [s], [v]) fits there. *)
let rec sift_up t i p s v =
  if i = 0 then place t 0 p s v
  else
    let parent = (i - 1) / 2 in
    if before p s t.prio.(parent) t.seq.(parent) then begin
      move t ~src:parent ~dst:i;
      sift_up t parent p s v
    end
    else place t i p s v

(* Move the hole at [i] down until ([p], [s], [v]) fits there. *)
let rec sift_down t i p s v =
  let l = (2 * i) + 1 in
  if l >= t.size then place t i p s v
  else
    let r = l + 1 in
    let c =
      if r < t.size && before t.prio.(r) t.seq.(r) t.prio.(l) t.seq.(l) then r
      else l
    in
    if before t.prio.(c) t.seq.(c) p s then begin
      move t ~src:c ~dst:i;
      sift_down t c p s v
    end
    else place t i p s v

let add t p v =
  if t.size = Array.length t.prio then grow t;
  let s = t.next_seq in
  t.next_seq <- s + 1;
  t.size <- t.size + 1;
  sift_up t (t.size - 1) p s v

let top_prio t =
  if t.size = 0 then invalid_arg "Pqueue.top_prio: empty";
  t.prio.(0)

let take t =
  if t.size = 0 then invalid_arg "Pqueue.take: empty";
  let v = t.vals.(0) in
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then sift_down t 0 t.prio.(last) t.seq.(last) t.vals.(last);
  t.vals.(last) <- filler ();
  v

let clear t =
  Array.fill t.vals 0 t.size (filler ());
  t.size <- 0;
  t.next_seq <- 0
