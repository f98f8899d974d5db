(* Entries sit in [keys]/[vals] sorted by ascending key, oldest first.
   Slots at or past [len] hold an immediate filler that is never read
   back. *)
type 'a t = { keys : int array; vals : 'a array; mutable len : int }

let filler () = Obj.magic 0

let create ~capacity =
  let capacity = max 1 capacity in
  {
    keys = Array.make capacity 0;
    vals = Array.make capacity (filler ());
    len = 0;
  }

let length t = t.len
let is_empty t = t.len = 0

(* Insertion sort from the tail: a freshly dispatched instruction is
   the youngest, so it usually lands at the end without a shift. *)
let insert t key v =
  if t.len = Array.length t.keys then invalid_arg "Readyq.insert: full";
  let i = ref t.len in
  while !i > 0 && t.keys.(!i - 1) > key do
    t.keys.(!i) <- t.keys.(!i - 1);
    t.vals.(!i) <- t.vals.(!i - 1);
    decr i
  done;
  t.keys.(!i) <- key;
  t.vals.(!i) <- v;
  t.len <- t.len + 1

let select t ~width start ctx =
  let started = ref 0 and kept = ref 0 and i = ref 0 in
  while !i < t.len && !started < width do
    let v = t.vals.(!i) in
    if start ctx v then incr started
    else begin
      t.keys.(!kept) <- t.keys.(!i);
      t.vals.(!kept) <- v;
      incr kept
    end;
    incr i
  done;
  if !started > 0 then begin
    let rest = t.len - !i in
    Array.blit t.keys !i t.keys !kept rest;
    Array.blit t.vals !i t.vals !kept rest;
    let len = !kept + rest in
    Array.fill t.vals len (t.len - len) (filler ());
    t.len <- len
  end;
  !started

let clear t =
  Array.fill t.vals 0 t.len (filler ());
  t.len <- 0
