type costs = {
  dispatch : float;
  issue : float;
  execute : float;
  copy : float;
  l1_access : float;
  l2_access : float;
  memory_access : float;
  commit : float;
  static_per_cycle : float;
}

(* Structure-size scaling: a cluster of a 2n-cluster machine has half
   the queue/regfile capacity of an n-cluster machine's, and smaller
   RAMs cost less per access. Model per-access cost ~ capacity^0.5. *)
let default_costs ~clusters =
  if clusters <= 0 then invalid_arg "Energy.default_costs: clusters";
  let shrink = 1.0 /. sqrt (float_of_int clusters) in
  {
    dispatch = 1.2;
    issue = 2.0 *. shrink;
    execute = 1.0;
    copy = 1.5;
    l1_access = 2.5;
    l2_access = 10.0;
    memory_access = 120.0;
    commit = 0.6;
    static_per_cycle = 3.0;
  }

type breakdown = {
  dynamic : float;
  static_ : float;
  copies : float;
  total : float;
  per_uop : float;
}

let estimate ?costs ~clusters (s : Stats.t) =
  let c = match costs with Some c -> c | None -> default_costs ~clusters in
  let f = float_of_int in
  let copies =
    f s.Stats.copies_generated *. (c.dispatch +. c.issue +. c.copy)
  in
  let dynamic =
    (f s.Stats.dispatched *. (c.dispatch +. c.issue +. c.execute +. c.commit))
    +. copies
    +. (f (s.Stats.l1_hits + s.Stats.l1_misses) *. c.l1_access)
    +. (f (s.Stats.l2_hits + s.Stats.l2_misses) *. c.l2_access)
    +. (f s.Stats.l2_misses *. c.memory_access)
  in
  let static_ = f s.Stats.cycles *. c.static_per_cycle in
  let total = dynamic +. static_ in
  {
    dynamic;
    static_;
    copies;
    total;
    per_uop = (if s.Stats.committed = 0 then 0.0 else total /. f s.Stats.committed);
  }

let to_json e =
  let module Json = Clusteer_obs.Json in
  Json.Obj
    [
      ("total", Json.Float e.total);
      ("per_uop", Json.Float e.per_uop);
      ("static", Json.Float e.static_);
      ("dynamic", Json.Float e.dynamic);
      ("copies", Json.Float e.copies);
    ]
