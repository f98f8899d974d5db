(* In-memory span recorder for the traced run.

   A span has a name, a parent, a start and an end (host nanoseconds
   on the monotonic clock) and a weight. Exact spans have weight 1.
   Per-call layers (trace generation, the steering decide) are too
   fine to time on every call, so they are sampled: a sampled span
   times one call and carries as weight the number of calls it stands
   for, namely the calls since the previous sample of the same
   sampler. The storage is struct-of-arrays of ints, so recording a
   span allocates nothing on the minor heap and the traced run's
   allocation figures are not inflated by the recorder itself. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  mutable names : string array;  (* name id -> name *)
  name_ids : (string, int) Hashtbl.t;
  mutable len : int;
  mutable name : int array;
  mutable parent : int array;  (* -1 = root *)
  mutable start : int array;
  mutable stop : int array;
  mutable weight : int array;
}

let create () =
  let cap = 4096 in
  {
    names = [||];
    name_ids = Hashtbl.create 16;
    len = 0;
    name = Array.make cap 0;
    parent = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    weight = Array.make cap 0;
  }

let intern t s =
  match Hashtbl.find_opt t.name_ids s with
  | Some id -> id
  | None ->
      let id = Array.length t.names in
      t.names <- Array.append t.names [| s |];
      Hashtbl.replace t.name_ids s id;
      id

let grow t =
  let cap = 2 * Array.length t.name in
  let ext a =
    let b = Array.make cap 0 in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.name <- ext t.name;
  t.parent <- ext t.parent;
  t.start <- ext t.start;
  t.stop <- ext t.stop;
  t.weight <- ext t.weight

let push t ~name ~parent ~start ~stop ~weight =
  if t.len = Array.length t.name then grow t;
  let id = t.len in
  t.name.(id) <- name;
  t.parent.(id) <- parent;
  t.start.(id) <- start;
  t.stop.(id) <- stop;
  t.weight.(id) <- weight;
  t.len <- id + 1;
  id

(* A completed span; [name] must come from {!intern}. *)
let add t ~name ~parent ~start ~stop ~weight =
  ignore (push t ~name ~parent ~start ~stop ~weight)

(* Open a span now; close it with {!leave}. *)
let enter t name ~parent =
  let n = now_ns () in
  push t ~name:(intern t name) ~parent ~start:n ~stop:n ~weight:1

let leave t id = t.stop.(id) <- now_ns ()

let timed t name ~parent f =
  let id = enter t name ~parent in
  let r = f id in
  leave t id;
  r

let length t = t.len
let duration t id = t.stop.(id) - t.start.(id)

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let union_length ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (s, e) ->
        let s = max s lo and e = min e hi in
        if e > s then Some (s, e) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (s, e) ->
        match cur with
        | None -> (total, Some (s, e))
        | Some (cs, ce) when s <= ce -> (total, Some (cs, max ce e))
        | Some (cs, ce) -> (total + (ce - cs), Some (s, e)))
      (0, None) sorted
  in
  match last with None -> total | Some (s, e) -> total + (e - s)

(* Self time of every span: its duration minus the part of it its
   children cover. Exact children (weight 1) count by the union of
   their intervals, so overlapping or nested children are not counted
   twice. A sampled child stands for [weight] disjoint calls of its
   duration, so it covers [weight * duration]. The result is clamped
   at 0: sampled estimates can exceed a short parent. *)
let self_times t =
  let exact = Array.make t.len [] and sampled = Array.make t.len 0 in
  for id = 0 to t.len - 1 do
    let p = t.parent.(id) in
    if p >= 0 then
      if t.weight.(id) = 1 then
        exact.(p) <- (t.start.(id), t.stop.(id)) :: exact.(p)
      else sampled.(p) <- sampled.(p) + (t.weight.(id) * duration t id)
  done;
  Array.init t.len (fun id ->
      let covered =
        union_length ~lo:t.start.(id) ~hi:t.stop.(id) exact.(id) + sampled.(id)
      in
      max 0 (duration t id - covered))

(* Weighted self time summed over all spans called [name], in ns. *)
let total_self t selfs name =
  match Hashtbl.find_opt t.name_ids name with
  | None -> 0
  | Some nid ->
      let acc = ref 0 in
      for id = 0 to t.len - 1 do
        if t.name.(id) = nid then acc := !acc + (t.weight.(id) * selfs.(id))
      done;
      !acc

(* One JSON object per line: id, name, parent, start/end ns, weight. *)
let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      for id = 0 to t.len - 1 do
        Printf.fprintf oc
          "{\"id\":%d,\"name\":%S,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d,\"weight\":%d}\n"
          id
          t.names.(t.name.(id))
          t.parent.(id) t.start.(id) t.stop.(id) t.weight.(id)
      done)

(* ---- sampling ------------------------------------------------------ *)

(* Cost of one clock read, subtracted from every sampled span so that
   a ~50 ns call is not reported as ~50 ns plus the timer. *)
let clock_overhead_ns =
  lazy
    (let n = 2001 in
     let d = Array.make n 0 in
     for i = 0 to n - 1 do
       let a = now_ns () in
       let b = now_ns () in
       d.(i) <- b - a
     done;
     Array.sort compare d;
     d.(n / 2))

(* Picks one call in about [every]: the gap to the next sample is
   drawn uniformly from [1, 2*every - 1] by a xorshift generator, so
   a periodic call pattern cannot alias with a fixed stride. *)
type sampler = {
  every : int;
  mutable countdown : int;
  mutable gap : int;  (* calls the pending sample stands for *)
  mutable state : int;
}

let sampler ~every ~seed =
  { every; countdown = 1; gap = 1; state = (seed lor 1) land 0x3FFFFFFF }

let next_gap s =
  let x = s.state in
  let x = x lxor ((x lsl 13) land 0x3FFFFFFF) in
  let x = x lxor (x lsr 17) in
  let x = x lxor ((x lsl 5) land 0x3FFFFFFF) in
  s.state <- x;
  1 + (x mod ((2 * s.every) - 1))

(* [true] when this call is to be timed; the span to record then has
   weight [s.gap]. *)
let tick s =
  s.countdown <- s.countdown - 1;
  if s.countdown = 0 then begin
    let g = next_gap s in
    s.countdown <- g;
    true
  end
  else false

(* Record the sampled call [start, stop] and start the next gap. *)
let add_sample t s ~name ~parent ~start ~stop =
  let stop = max start (stop - Lazy.force clock_overhead_ns) in
  add t ~name ~parent ~start ~stop ~weight:s.gap;
  s.gap <- s.countdown
