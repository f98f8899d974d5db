type t = {
  sets : int;
  ways : int;
  line_shift : int;
  tag_shift : int;  (* line_shift + log2 sets *)
  tags : int array;  (* sets * ways; -1 = invalid *)
  recency : int array;  (* higher = more recently used *)
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
}

type outcome = Hit | Miss

let log2 n =
  let rec loop acc v = if v <= 1 then acc else loop (acc + 1) (v lsr 1) in
  loop 0 n

let create (c : Config.cache) =
  let sets = c.Config.size_bytes / (c.Config.ways * c.Config.line_bytes) in
  if sets <= 0 then invalid_arg "Cache.create: zero sets";
  if sets land (sets - 1) <> 0 then
    invalid_arg "Cache.create: set count must be a power of two";
  {
    sets;
    ways = c.Config.ways;
    line_shift = log2 c.Config.line_bytes;
    tag_shift = log2 c.Config.line_bytes + log2 sets;
    tags = Array.make (sets * c.Config.ways) (-1);
    recency = Array.make (sets * c.Config.ways) 0;
    clock = 0;
    hits = 0;
    misses = 0;
  }

let sets t = t.sets
let ways t = t.ways

(* Set and tag are computed separately, and a miss is way [-1]: the
   lookup path is called for every blocked load every cycle, so it
   builds no tuple, option or closure. *)
let set_of t addr = (addr lsr t.line_shift) land (t.sets - 1)
let tag_of t addr = addr lsr t.tag_shift

let rec way_from (tags : int array) base ways (tag : int) w =
  if w = ways then -1
  else if tags.(base + w) = tag then w
  else way_from tags base ways tag (w + 1)

let find_way t set tag = way_from t.tags (set * t.ways) t.ways tag 0

let access t ~addr ~write:_ =
  let set = set_of t addr and tag = tag_of t addr in
  let base = set * t.ways in
  t.clock <- t.clock + 1;
  let w = find_way t set tag in
  if w >= 0 then begin
    t.hits <- t.hits + 1;
    t.recency.(base + w) <- t.clock;
    Hit
  end
  else begin
    t.misses <- t.misses + 1;
    (* Fill into the LRU (or an invalid) way. *)
    let victim = ref 0 in
    for w = 1 to t.ways - 1 do
      if t.recency.(base + w) < t.recency.(base + !victim) then victim := w
    done;
    t.tags.(base + !victim) <- tag;
    t.recency.(base + !victim) <- t.clock;
    Miss
  end

let touch t ~addr =
  let hits = t.hits and misses = t.misses in
  (match access t ~addr ~write:false with Hit | Miss -> ());
  t.hits <- hits;
  t.misses <- misses

let probe t ~addr = find_way t (set_of t addr) (tag_of t addr) >= 0

let invalidate_all t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.recency 0 (Array.length t.recency) 0

(* ---- tail prewarm ------------------------------------------------ *)

(* A touch sequence leaves in each set only its last [ways] distinct
   lines, and a victim is only ever chosen by comparing recencies
   within one set. So [warm] walks the sequence backwards, writes each
   line it has not met yet into the first free way of its set, with a
   recency below that of every line met before it, and stops once
   every set is full. Every recency lies above the old clock and the
   clock moves past them all. The lines sit in other ways, with other
   recency values, than the touch loop would leave them in, but each
   set holds the same lines in the same recency order, and filled ways
   are a prefix of each set, as after the loop: no lookup, fill or
   eviction can tell them apart. *)

let line_count ~step bytes = max 1 ((bytes + step - 1) / step)

(* First way at or after [w] holding [tag] or nothing, [-1] if none:
   filled ways are a prefix, so one scan answers both questions. *)
let rec slot_from (tags : int array) base ways (tag : int) w =
  if w = ways then -1
  else
    let x = tags.(base + w) in
    if x = tag || x = -1 then w else slot_from tags base ways tag (w + 1)

(* Lines [i], [i - 1], ..., 0 of the extent at [base]. Returns the
   lines placed so far, [placed] before this call. *)
let rec warm_lines t ~base ~step ~top ~placed i =
  if i < 0 || placed = t.sets * t.ways then placed
  else
    let addr = base + (i * step) in
    let set_base = set_of t addr * t.ways and tag = tag_of t addr in
    let w = slot_from t.tags set_base t.ways tag 0 in
    let placed =
      if w >= 0 && t.tags.(set_base + w) = -1 then begin
        t.tags.(set_base + w) <- tag;
        t.recency.(set_base + w) <- top - placed;
        placed + 1
      end
      else placed
    in
    warm_lines t ~base ~step ~top ~placed (i - 1)

(* The extents, last to first. *)
let rec warm_extents t ~step ~top = function
  | [] -> 0
  | (base, bytes) :: rest ->
      let placed = warm_extents t ~step ~top rest in
      warm_lines t ~base ~step ~top ~placed (line_count ~step bytes - 1)

let warm t ~step extents =
  invalidate_all t;
  let top = t.clock + (t.sets * t.ways) in
  ignore (warm_extents t ~step ~top extents : int);
  t.clock <- top

let hits t = t.hits
let misses t = t.misses

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0
