(* Slots hold the values themselves, not options, so [push], [top] and
   [drop] allocate nothing. Free slots hold an immediate filler that is
   never read back. *)
type 'a t = {
  buf : 'a array;
  mutable head : int; (* index of oldest element *)
  mutable len : int;
}

let filler () = Obj.magic 0

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  { buf = Array.make capacity (filler ()); head = 0; len = 0 }

let capacity t = Array.length t.buf
let length t = t.len
let is_empty t = t.len = 0
let is_full t = t.len = Array.length t.buf
let free_slots t = Array.length t.buf - t.len

let push t v =
  if is_full t then false
  else begin
    let tail = (t.head + t.len) mod Array.length t.buf in
    t.buf.(tail) <- v;
    t.len <- t.len + 1;
    true
  end

let top t =
  if t.len = 0 then invalid_arg "Ring.top: empty";
  t.buf.(t.head)

let drop t =
  if t.len = 0 then invalid_arg "Ring.drop: empty";
  t.buf.(t.head) <- filler ();
  t.head <- (t.head + 1) mod Array.length t.buf;
  t.len <- t.len - 1

let peek t = if t.len = 0 then None else Some (top t)

let pop t =
  if t.len = 0 then None
  else begin
    let v = top t in
    drop t;
    Some v
  end

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Ring.get: index out of range";
  t.buf.((t.head + i) mod Array.length t.buf)

let iter f t =
  for i = 0 to t.len - 1 do
    f (get t i)
  done

let to_list t =
  let acc = ref [] in
  iter (fun v -> acc := v :: !acc) t;
  List.rev !acc

let clear t =
  Array.fill t.buf 0 (Array.length t.buf) (filler ());
  t.head <- 0;
  t.len <- 0
