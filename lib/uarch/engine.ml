open Clusteer_isa
open Clusteer_trace
module Bitset = Clusteer_util.Bitset
module Pqueue = Clusteer_util.Pqueue
module Readyq = Clusteer_util.Readyq
module Ring = Clusteer_util.Ring
module Vec = Clusteer_util.Vec
module Obs_event = Clusteer_obs.Event
module Obs_sink = Clusteer_obs.Sink
module Obs_counters = Clusteer_obs.Counters
module Obs_profile = Clusteer_obs.Profile

type kind =
  | Op of Dynuop.t
  | Copy_op of { tag : int; to_cluster : int }

type inst = {
  iseq : int;  (* global age, used as select priority *)
  kind : kind;
  cluster : int;  (* where it is queued / executes *)
  queue : Opcode.queue;
  dst_tag : int;  (* -1 = none *)
  mutable waiting : int;  (* outstanding operands *)
  mutable completed : bool;
  mutable took_mshr : bool;  (* load in flight past the L1 *)
  mutable store_waiters : int;  (* waiter list of loads blocked on this store *)
  mispredicted : bool;
}

(* Filler for empty waiter-list nodes; never woken. *)
let no_inst =
  {
    iseq = -1;
    kind = Copy_op { tag = -1; to_cluster = -1 };
    cluster = 0;
    queue = Opcode.Copy_queue;
    dst_tag = -1;
    waiting = 0;
    completed = true;
    took_mshr = false;
    store_waiters = -1;
    mispredicted = false;
  }

(* Fetch-queue entries are recycled: the queue holds at most its
   capacity of slots, so the slot filled [capacity] pushes ago has
   always been dispatched by the time it is reused. *)
type fetch_slot = {
  mutable duop : Dynuop.t;
  mutable ready_at : int;
  mutable misp : bool;
}

(* Self-profiler phases, in step order: indices into the engine's span
   array, interned once at creation so the per-cycle instrumented path
   touches no hashtable. *)
let ph_writeback = 0
let ph_commit = 1
let ph_issue = 2
let ph_dispatch = 3
let ph_fetch = 4

let phase_spans =
  [| "engine.writeback"; "engine.commit"; "engine.issue"; "engine.dispatch";
     "engine.fetch" |]

let never = max_int

(* [annot], [policy], [frontend_depth] and [view] are mutable so the
   harness can {!reset} an engine to run a different configuration on
   the same preallocated machine state — per-domain engine reuse is
   what keeps the parallel sweep's allocation rate (and with it the
   stop-the-world minor-GC frequency) down. *)
type t = {
  cfg : Config.t;
  mutable annot : Annot.t;
  mutable policy : Policy.t;
  mutable frontend_depth : int;
      (* fetch-to-dispatch + serialized-steer stages *)
  stats : Stats.t;
  memsys : Memsys.t;
  bpred : Bpred.t;
  tcache : Tracecache.t;
  (* time *)
  mutable cycle : int;
  mutable next_iseq : int;
  (* front-end *)
  fetchq : fetch_slot Ring.t;
  fetch_slots : fetch_slot array;  (* recycled entries, one per queue slot *)
  mutable fetch_next : int;  (* next entry of [fetch_slots] to fill *)
  mutable fetch_resume : int;  (* no fetch before this cycle; [never] while
                                   a mispredicted branch is unresolved *)
  (* rename: architectural register code -> value tag *)
  rename : int array;
  (* per-tag state *)
  tag_loc : Vec.t;  (* cluster mask: where the value is or will be *)
  tag_ready : Vec.t;  (* cluster mask: where the value has been produced *)
  tag_origin : Vec.t;  (* producing cluster *)
  (* Wakeup lists, int-linked over one node pool: [wait_head] maps a
     tag to its first node, a store's [store_waiters] holds its own
     list's first node; node [n] is waiter [wait_inst.(n)], waiting in
     cluster [wait_cluster.(n)], followed by node [wait_next.(n)] (on
     the free list, the next free node); -1 ends a list. *)
  wait_head : Vec.t;
  mutable wait_inst : inst array;
  mutable wait_cluster : int array;
  mutable wait_next : int array;
  mutable wait_free : int;
  (* back-end *)
  rob : inst Ring.t;
  occupancy : int array array;  (* cluster -> queue index -> used slots *)
  inflight : int array;  (* cluster -> dispatched, not yet completed *)
  ready_q : inst Readyq.t array array;  (* cluster -> queue index, by iseq *)
  unit_free : int array array;  (* cluster -> fu index -> next free cycle *)
  fabric : Clusteer_topo.Fabric.t;  (* per-link next-free-cycle state *)
  mutable lsq_used : int;
  regs_used : int array array;  (* cluster -> class (0 int, 1 fp) -> live dests *)
  mutable misses_outstanding : int;  (* in-flight L1 misses (MSHR usage) *)
  pending_store : (int, inst) Hashtbl.t;  (* 8-byte-aligned addr -> store *)
  events : inst Pqueue.t;
      (* keyed by cycle; an op's one event completes it, a copy's first
         event completes it (frees its copy-queue slot) and its second
         delivers its value *)
  (* per-cycle port counters *)
  mutable loads_this_cycle : int;
  mutable stores_this_cycle : int;
  mutable view : Policy.view;
  (* dispatch-loop scratch, reused every cycle so the per-uop path
     allocates nothing: tags needing copies (deduped) and per-source-
     cluster pending-copy counts for the copy-queue capacity check *)
  mutable copy_tags : int array;
  copy_extra : int array;
  per_cluster : int array;  (* dispatches into each cluster this cycle *)
  (* observability: with [None] every emission site is one pattern
     match and constructs nothing — the simulated behaviour and the
     final statistics are bit-identical to an uninstrumented engine *)
  mutable obs : Obs_sink.t option;
  copyq_depth_hist : Obs_counters.histogram;
  (* self-profiler: one span per phase, indexed by the [ph_*]
     constants; empty without a profiler, so each phase boundary is one
     length test away from the uninstrumented path *)
  prof : Obs_profile.span array;
}

let queue_index = function
  | Opcode.Int_queue -> 0
  | Opcode.Fp_queue -> 1
  | Opcode.Copy_queue -> 2

let queue_name = function
  | Opcode.Int_queue -> "int"
  | Opcode.Fp_queue -> "fp"
  | Opcode.Copy_queue -> "copy"

let queue_size cfg = function
  | Opcode.Int_queue -> cfg.Config.int_iq_size
  | Opcode.Fp_queue -> cfg.Config.fp_iq_size
  | Opcode.Copy_queue -> cfg.Config.copy_q_size

let queue_width cfg = function
  | Opcode.Int_queue -> cfg.Config.int_issue_width
  | Opcode.Fp_queue -> cfg.Config.fp_issue_width
  | Opcode.Copy_queue -> cfg.Config.copy_issue_width

let fu_index = function
  | Opcode.Fu_alu -> 0
  | Opcode.Fu_imul -> 1
  | Opcode.Fu_fp -> 2
  | Opcode.Fu_copy -> 3

let reg_code cfg_nregs (r : Reg.t) = Reg.encode ~nregs_per_class:cfg_nregs r

(* The engine supports any register budget; the rename table is sized
   for the largest budget the workloads use. *)
let max_nregs_per_class = 64

(* Filler for empty fetch-queue entries; never dispatched. *)
let no_duop =
  {
    Dynuop.seq = -1;
    suop =
      {
        Uop.id = -1;
        opcode = Opcode.Copy;
        dst = None;
        srcs = [||];
        stream = -1;
        branch_ref = -1;
      };
    addr = -1;
    taken = false;
  }

(* Initial waiter-node pool; it doubles when exhausted. *)
let waiter_nodes = 256

(* Thread nodes [from ..] of [next] into one free list. *)
let chain_free next ~from =
  let n = Array.length next in
  for i = from to n - 1 do
    next.(i) <- (if i + 1 < n then i + 1 else -1)
  done

(* Initial architectural values live in every cluster: machine state
   that predates the trace is assumed resident everywhere. *)
let seed_rename ~rename ~tag_loc ~tag_ready ~tag_origin ~all_mask =
  Array.iteri
    (fun code _ ->
      let tag = Vec.push tag_loc all_mask in
      ignore (Vec.push tag_ready all_mask);
      ignore (Vec.push tag_origin 0);
      rename.(code) <- tag)
    rename

(* The policy's read-only window into the machine. Rebuilt on
   {!reset} because it carries the (new) annotation; the closures
   always read through [t], so the rebuild is about the [annot] field
   only. *)
let make_view t =
  {
    Policy.clusters = t.cfg.Config.clusters;
    cycle = (fun () -> t.cycle);
    inflight = (fun c -> t.inflight.(c));
    queue_free =
      (fun c q -> queue_size t.cfg q - t.occupancy.(c).(queue_index q));
    src_locations =
      (fun duop ->
        Array.map
          (fun src ->
            let tag = t.rename.(reg_code max_nregs_per_class src) in
            Bitset.of_mask (Vec.get t.tag_loc tag))
          duop.Dynuop.suop.Uop.srcs);
    src_locations_into =
      (fun duop buf ->
        let srcs = duop.Dynuop.suop.Uop.srcs in
        let n = Array.length srcs in
        for i = 0 to n - 1 do
          let tag = t.rename.(reg_code max_nregs_per_class srcs.(i)) in
          buf.(i) <- Bitset.of_mask (Vec.get t.tag_loc tag)
        done;
        n);
    reg_location =
      (fun r ->
        let tag = t.rename.(reg_code max_nregs_per_class r) in
        Bitset.of_mask (Vec.get t.tag_loc tag));
    annot = t.annot;
  }

(* Policies using the serialized dependence-check/vote hardware pay
   the extra decode stages of 2.1. *)
let frontend_depth_of config (policy : Policy.t) =
  config.Config.fetch_to_dispatch
  +
  if policy.Policy.uses_vote_unit then config.Config.steer_serial_stages else 0

let create ~config ~annot ~policy ?(prewarm = []) ?obs ?registry ?profile () =
  Config.validate config;
  let clusters = config.Config.clusters in
  let stats = Stats.create ~clusters in
  let tag_loc = Vec.create ~default:0 () in
  let tag_ready = Vec.create ~default:0 () in
  let tag_origin = Vec.create ~default:0 () in
  let rename = Array.make (2 * max_nregs_per_class) (-1) in
  let all_mask = (Bitset.full clusters :> int) in
  seed_rename ~rename ~tag_loc ~tag_ready ~tag_origin ~all_mask;
  let fetchq_capacity =
    config.Config.fetch_width * (config.Config.fetch_to_dispatch + 2)
  in
  let t =
    {
      cfg = config;
      annot;
      policy;
      frontend_depth = frontend_depth_of config policy;
      stats;
      memsys = Memsys.create config;
      bpred = Bpred.create ~bits:config.Config.bpred_bits;
      tcache =
        Tracecache.create ~size_uops:config.Config.tc_size_uops
          ~line_uops:config.Config.tc_line_uops ~ways:config.Config.tc_ways;
      cycle = 0;
      next_iseq = 0;
      fetchq = Ring.create ~capacity:fetchq_capacity;
      fetch_slots =
        Array.init fetchq_capacity (fun _ ->
            { duop = no_duop; ready_at = 0; misp = false });
      fetch_next = 0;
      fetch_resume = 0;
      rename;
      tag_loc;
      tag_ready;
      tag_origin;
      wait_head = Vec.create ~initial:1024 ~default:(-1) ();
      wait_inst = Array.make waiter_nodes no_inst;
      wait_cluster = Array.make waiter_nodes (-1);
      wait_next =
        (let next = Array.make waiter_nodes (-1) in
         chain_free next ~from:0;
         next);
      wait_free = 0;
      rob = Ring.create ~capacity:config.Config.rob_size;
      occupancy = Array.init clusters (fun _ -> Array.make 3 0);
      inflight = Array.make clusters 0;
      ready_q =
        Array.init clusters (fun _ ->
            Array.map
              (fun q -> Readyq.create ~capacity:(queue_size config q))
              [| Opcode.Int_queue; Opcode.Fp_queue; Opcode.Copy_queue |]);
      unit_free = Array.init clusters (fun _ -> Array.make 4 0);
      fabric = Clusteer_topo.Fabric.create config.Config.topology;
      lsq_used = 0;
      regs_used = Array.init clusters (fun _ -> Array.make 2 0);
      misses_outstanding = 0;
      pending_store = Hashtbl.create 64;
      events = Pqueue.create ();
      loads_this_cycle = 0;
      stores_this_cycle = 0;
      copy_tags = Array.make 8 (-1);
      copy_extra = Array.make clusters 0;
      per_cluster = Array.make clusters 0;
      obs;
      copyq_depth_hist = Obs_counters.histogram ?registry "engine.copyq_depth";
      prof =
        (match profile with
        | None -> [||]
        | Some p -> Array.map (Obs_profile.span p) phase_spans);
      (* Placeholder, replaced right below: the real view's closures
         need [t] itself. *)
      view =
        {
          Policy.clusters;
          cycle = (fun () -> 0);
          inflight = (fun _ -> 0);
          queue_free = (fun _ _ -> 0);
          src_locations = (fun _ -> [||]);
          src_locations_into = (fun _ _ -> 0);
          reg_location = (fun _ -> Bitset.of_mask 0);
          annot;
        };
    }
  in
  t.view <- make_view t;
  Memsys.prewarm t.memsys prewarm;
  t

let reset ?(prewarm = []) ?obs t ~annot ~policy =
  t.annot <- annot;
  t.policy <- policy;
  t.frontend_depth <- frontend_depth_of t.cfg policy;
  Stats.reset t.stats;
  Memsys.reset t.memsys;
  Bpred.reset t.bpred;
  Tracecache.reset t.tcache;
  t.cycle <- 0;
  t.next_iseq <- 0;
  Ring.clear t.fetchq;
  Array.iter (fun slot -> slot.duop <- no_duop) t.fetch_slots;
  t.fetch_next <- 0;
  t.fetch_resume <- 0;
  Vec.clear t.tag_loc;
  Vec.clear t.tag_ready;
  Vec.clear t.tag_origin;
  let all_mask = (Bitset.full t.cfg.Config.clusters :> int) in
  seed_rename ~rename:t.rename ~tag_loc:t.tag_loc ~tag_ready:t.tag_ready
    ~tag_origin:t.tag_origin ~all_mask;
  Vec.clear t.wait_head;
  Array.fill t.wait_inst 0 (Array.length t.wait_inst) no_inst;
  Array.fill t.wait_cluster 0 (Array.length t.wait_cluster) (-1);
  chain_free t.wait_next ~from:0;
  t.wait_free <- 0;
  Ring.clear t.rob;
  Array.iter (fun a -> Array.fill a 0 (Array.length a) 0) t.occupancy;
  Array.fill t.inflight 0 (Array.length t.inflight) 0;
  Array.iter (fun qs -> Array.iter Readyq.clear qs) t.ready_q;
  Array.iter (fun a -> Array.fill a 0 (Array.length a) 0) t.unit_free;
  Clusteer_topo.Fabric.reset t.fabric;
  t.lsq_used <- 0;
  Array.iter (fun a -> Array.fill a 0 (Array.length a) 0) t.regs_used;
  t.misses_outstanding <- 0;
  Hashtbl.reset t.pending_store;
  Pqueue.clear t.events;
  t.loads_this_cycle <- 0;
  t.stores_this_cycle <- 0;
  t.obs <- obs;
  t.view <- make_view t;
  Memsys.prewarm t.memsys prewarm

let stats t = t.stats

(* Events are stamped in measured time (1-based cycle index of the
   statistics), not the engine's internal clock: the internal clock
   keeps counting through the warmup reset, measured time restarts —
   and the trace must line up with the interval samples and the final
   statistics. *)
let now t = t.stats.Stats.cycles + 1

(* ---- tag / wakeup machinery ------------------------------------- *)

let enqueue_ready t inst =
  Readyq.insert t.ready_q.(inst.cluster).(queue_index inst.queue) inst.iseq inst

(* Prepend [inst], waiting in [cluster], to the list starting at node
   [head]; returns the new head. *)
let push_waiter t head inst cluster =
  if t.wait_free < 0 then begin
    let n = Array.length t.wait_next in
    let grow a filler =
      let b = Array.make (2 * n) filler in
      Array.blit a 0 b 0 n;
      b
    in
    t.wait_inst <- grow t.wait_inst no_inst;
    t.wait_cluster <- grow t.wait_cluster (-1);
    t.wait_next <- grow t.wait_next (-1);
    chain_free t.wait_next ~from:n;
    t.wait_free <- n
  end;
  let node = t.wait_free in
  t.wait_free <- t.wait_next.(node);
  t.wait_inst.(node) <- inst;
  t.wait_cluster.(node) <- cluster;
  t.wait_next.(node) <- head;
  node

(* Return [node] to the free list and give back its waiter. *)
let release t node =
  let inst = t.wait_inst.(node) in
  t.wait_inst.(node) <- no_inst;
  t.wait_next.(node) <- t.wait_free;
  t.wait_free <- node;
  inst

let add_waiter t inst tag cluster =
  inst.waiting <- inst.waiting + 1;
  Vec.set t.wait_head tag (push_waiter t (Vec.get t.wait_head tag) inst cluster)

let wake inst t =
  inst.waiting <- inst.waiting - 1;
  if inst.waiting = 0 then enqueue_ready t inst

(* Wake every waiter on the list starting at [node]. *)
let rec wake_list t node =
  if node >= 0 then begin
    let next = t.wait_next.(node) in
    wake (release t node) t;
    wake_list t next
  end

(* Wake the waiters on [tag] in [cluster], unlinking them; [prev] is
   the last node kept (-1 while none is). Waiters in other clusters
   stay listed until the value reaches them. *)
let rec wake_in t tag cluster prev node =
  if node >= 0 then begin
    let next = t.wait_next.(node) in
    if t.wait_cluster.(node) = cluster then begin
      if prev < 0 then Vec.set t.wait_head tag next
      else t.wait_next.(prev) <- next;
      wake (release t node) t;
      wake_in t tag cluster prev next
    end
    else wake_in t tag cluster node next
  end

let broadcast t tag cluster =
  Vec.set t.tag_ready tag (Vec.get t.tag_ready tag lor (1 lsl cluster));
  wake_in t tag cluster (-1) (Vec.get t.wait_head tag)

let tag_ready_in t tag cluster = Vec.get t.tag_ready tag land (1 lsl cluster) <> 0
let tag_located_in t tag cluster = Vec.get t.tag_loc tag land (1 lsl cluster) <> 0

let new_tag t ~cluster =
  let tag = Vec.push t.tag_loc (1 lsl cluster) in
  ignore (Vec.push t.tag_ready 0);
  ignore (Vec.push t.tag_origin cluster);
  tag

(* ---- events ------------------------------------------------------ *)

let on_complete t inst =
  inst.completed <- true;
  if inst.took_mshr then begin
    inst.took_mshr <- false;
    t.misses_outstanding <- t.misses_outstanding - 1
  end;
  t.inflight.(inst.cluster) <- t.inflight.(inst.cluster) - 1;
  if inst.dst_tag >= 0 then broadcast t inst.dst_tag inst.cluster;
  (match inst.kind with
  | Op duop ->
      let u = duop.Dynuop.suop in
      (match u.Uop.opcode with
      | Opcode.Store ->
          let head = inst.store_waiters in
          inst.store_waiters <- -1;
          wake_list t head
      | Opcode.Branch ->
          if inst.mispredicted then begin
            t.fetch_resume <- t.cycle + t.cfg.Config.redirect_penalty;
            match t.obs with
            | None -> ()
            | Some s ->
                let cycle = now t in
                s.Obs_sink.emit
                  (Obs_event.Redirect
                     { cycle; resume = cycle + t.cfg.Config.redirect_penalty })
          end
      | _ -> ())
  | Copy_op _ -> ())

let on_copy_arrive t inst =
  match inst.kind with
  | Copy_op { tag; to_cluster } ->
      t.stats.Stats.copies_executed <- t.stats.Stats.copies_executed + 1;
      broadcast t tag to_cluster
  | Op _ -> assert false

(* Drain every event due this cycle, one at a time in (cycle, insertion)
   order. Neither handler adds an event, so nothing joins the heap
   while it drains. A copy's completion is scheduled before its
   arrival and never later, so its first event is the completion. *)
let process_events t =
  while
    (not (Pqueue.is_empty t.events)) && Pqueue.top_prio t.events <= t.cycle
  do
    let inst = Pqueue.take t.events in
    if inst.completed then on_copy_arrive t inst else on_complete t inst
  done

(* ---- commit ------------------------------------------------------ *)

(* Micro-op class for the "3+3" dispatch/commit width split: the FP
   pipe handles FP-queue micro-ops, the INT pipe everything else. *)
let is_fp_class (u : Uop.t) =
  match Opcode.queue u.Uop.opcode with
  | Opcode.Fp_queue -> true
  | Opcode.Int_queue | Opcode.Copy_queue -> false

let commit t =
  let budget = ref t.cfg.Config.commit_width in
  let int_budget = ref t.cfg.Config.commit_class_width in
  let fp_budget = ref t.cfg.Config.commit_class_width in
  let continue_ = ref true in
  while !continue_ && !budget > 0 && not (Ring.is_empty t.rob) do
    let inst = Ring.top t.rob in
    if not inst.completed then continue_ := false
    else
      match inst.kind with
      | Op duop ->
          let u = duop.Dynuop.suop in
          let fp = is_fp_class u in
          let is_store =
            match u.Uop.opcode with Opcode.Store -> true | _ -> false
          in
          if (if fp then !fp_budget else !int_budget) <= 0 then
            continue_ := false
          else if is_store && t.stores_this_cycle >= t.cfg.Config.l1_write_ports
          then continue_ := false
          else begin
            if fp then decr fp_budget else decr int_budget;
            Ring.drop t.rob;
            if is_store then begin
              t.stores_this_cycle <- t.stores_this_cycle + 1;
              Memsys.store t.memsys ~addr:duop.Dynuop.addr;
              let key = duop.Dynuop.addr land lnot 7 in
              match Hashtbl.find t.pending_store key with
              | s when s == inst -> Hashtbl.remove t.pending_store key
              | _ | (exception Not_found) -> ()
            end;
            if Uop.is_mem u then t.lsq_used <- t.lsq_used - 1;
            (match u.Uop.dst with
            | Some dst ->
                let k =
                  match dst.Reg.cls with Reg.Int_class -> 0 | Reg.Fp_class -> 1
                in
                t.regs_used.(inst.cluster).(k) <-
                  t.regs_used.(inst.cluster).(k) - 1
            | None -> ());
            t.stats.Stats.committed <- t.stats.Stats.committed + 1;
            (match t.obs with
            | None -> ()
            | Some s ->
                s.Obs_sink.emit
                  (Obs_event.Commit
                     {
                       cycle = now t;
                       iseq = inst.iseq;
                       cluster = inst.cluster;
                     }));
            decr budget
          end
      | Copy_op _ -> assert false
  done

(* ---- issue ------------------------------------------------------- *)

let exec_latency t inst =
  match inst.kind with
  | Copy_op _ -> 1
  | Op duop -> (
      let u = duop.Dynuop.suop in
      match u.Uop.opcode with
      | Opcode.Load ->
          let mem = Memsys.load_latency t.memsys ~addr:duop.Dynuop.addr in
          Opcode.latency Opcode.Load + mem
      | op -> Opcode.latency op)

(* Interconnect model: the topology's link-occupancy fabric
   ({!Clusteer_topo.Fabric}) decides which links a transfer occupies
   and how long it travels. A refused reservation (any link on the
   deterministic route busy at its slot) leaves the copy in the queue
   to retry next cycle — link backpressure becomes copy-queue
   pressure upstream. On point-to-point and bus this is bit-identical
   to the historical [link_free] matrix. *)

(* Try to start one ready instruction; returns [true] on success,
   [false] when a structural hazard blocks it this cycle. *)
let try_start t inst =
  match inst.kind with
  | Copy_op { to_cluster; _ } ->
      let from = inst.cluster in
      let latency =
        Clusteer_topo.Fabric.try_transfer t.fabric ~now:t.cycle ~from
          ~to_:to_cluster
      in
      if latency < 0 then false
      else begin
        t.stats.Stats.link_transfers <- t.stats.Stats.link_transfers + 1;
        (match t.obs with
        | None -> ()
        | Some s ->
            s.Obs_sink.emit
              (Obs_event.Link_transfer
                 { cycle = now t; from_cluster = from; to_cluster; latency }));
        (* The copy has left the copy queue; completion frees the
           in-flight counter. Every route takes at least one cycle, so
           completion is never due after arrival, and on a tie it pops
           first (FIFO): [process_events] relies on that order. *)
        Pqueue.add t.events (t.cycle + 1) inst;
        Pqueue.add t.events (t.cycle + latency) inst;
        true
      end
  | Op duop ->
      let u = duop.Dynuop.suop in
      let op = u.Uop.opcode in
      let is_load = match op with Opcode.Load -> true | _ -> false in
      if is_load && t.loads_this_cycle >= t.cfg.Config.l1_read_ports then false
      else begin
        (* MSHR check: a load that will miss the L1 needs a free miss
           register; without one it retries next cycle. *)
        let needs_mshr =
          is_load
          && not
               (Memsys.l1_resident t.memsys
                  ~addr:
                    (match inst.kind with
                    | Op d -> d.Dynuop.addr
                    | Copy_op _ -> assert false))
        in
        if needs_mshr && t.misses_outstanding >= t.cfg.Config.mshrs then false
        else
        let fu = fu_index (Opcode.fu op) in
        if
          (not (Opcode.pipelined op))
          && t.unit_free.(inst.cluster).(fu) > t.cycle
        then false
        else begin
          if is_load then t.loads_this_cycle <- t.loads_this_cycle + 1;
          if needs_mshr then begin
            inst.took_mshr <- true;
            t.misses_outstanding <- t.misses_outstanding + 1
          end;
          let lat = exec_latency t inst in
          (* The unit frees on the cycle of the completion event: the
             idle-cycle skip relies on it. *)
          if not (Opcode.pipelined op) then
            t.unit_free.(inst.cluster).(fu) <- t.cycle + lat;
          Pqueue.add t.events (t.cycle + lat) inst;
          true
        end
      end

(* Oldest-first select in place: blocked instructions keep their slot
   (and their age rank) for the next cycle. Exact against a heap select
   because ready-queue keys are unique iseqs and [try_start] never makes
   another instruction ready. *)
let issue_queue t cluster qidx queue =
  let started =
    Readyq.select t.ready_q.(cluster).(qidx) ~width:(queue_width t.cfg queue)
      try_start t
  in
  t.occupancy.(cluster).(qidx) <- t.occupancy.(cluster).(qidx) - started

let issue t =
  for c = 0 to t.cfg.Config.clusters - 1 do
    issue_queue t c 2 Opcode.Copy_queue;
    issue_queue t c 0 Opcode.Int_queue;
    issue_queue t c 1 Opcode.Fp_queue
  done

(* ---- dispatch ---------------------------------------------------- *)

type dispatch_block =
  | Blk_none
  | Blk_width  (* per-cluster steer bandwidth exhausted this cycle *)
  | Blk_empty
  | Blk_rob
  | Blk_lsq
  | Blk_reg  (* destination register file exhausted in the target cluster *)
  | Blk_policy
  | Blk_iq
  | Blk_copyq

let fresh_iseq t =
  let s = t.next_iseq in
  t.next_iseq <- s + 1;
  s

(* Copies needed to bring every source of [u] to [cluster]: fills
   [t.copy_tags] with the deduplicated tags whose location mask misses
   the target cluster and returns their count. Scratch-based (no list,
   no allocation): micro-ops have at most a handful of sources, so the
   quadratic dedup scan is cheaper than any set structure. *)
let copies_needed t (u : Uop.t) cluster =
  let srcs = u.Uop.srcs in
  let nsrcs = Array.length srcs in
  if nsrcs > Array.length t.copy_tags then
    t.copy_tags <- Array.make nsrcs (-1);
  let n = ref 0 in
  for i = 0 to nsrcs - 1 do
    let tag = t.rename.(reg_code max_nregs_per_class srcs.(i)) in
    if not (tag_located_in t tag cluster) then begin
      let dup = ref false in
      for j = 0 to !n - 1 do
        if t.copy_tags.(j) = tag then dup := true
      done;
      if not !dup then begin
        t.copy_tags.(!n) <- tag;
        incr n
      end
    end
  done;
  !n

let insert_copy t tag ~to_cluster =
  let from = Vec.get t.tag_origin tag in
  let inst =
    {
      iseq = fresh_iseq t;
      kind = Copy_op { tag; to_cluster };
      cluster = from;
      queue = Opcode.Copy_queue;
      dst_tag = -1;
      waiting = 0;
      completed = false;
      took_mshr = false;
      store_waiters = -1;
      mispredicted = false;
    }
  in
  t.occupancy.(from).(2) <- t.occupancy.(from).(2) + 1;
  t.inflight.(from) <- t.inflight.(from) + 1;
  Vec.set t.tag_loc tag (Vec.get t.tag_loc tag lor (1 lsl to_cluster));
  t.stats.Stats.copies_generated <- t.stats.Stats.copies_generated + 1;
  (match t.obs with
  | None -> ()
  | Some s ->
      let depth = t.occupancy.(from).(2) in
      Obs_counters.observe t.copyq_depth_hist depth;
      s.Obs_sink.emit
        (Obs_event.Copy_insert
           {
             cycle = now t;
             tag;
             from_cluster = from;
             to_cluster;
             copyq_depth = depth;
           }));
  if tag_ready_in t tag from then enqueue_ready t inst
  else add_waiter t inst tag from

let dispatch_one t (slot : fetch_slot) =
  let duop = slot.duop in
  let u = duop.Dynuop.suop in
  (* Structural preconditions outside the clusters. *)
  if Ring.is_full t.rob then Blk_rob
  else if Uop.is_mem u && t.lsq_used >= t.cfg.Config.lsq_size then Blk_lsq
  else
    match t.policy.Policy.decide t.view duop with
    | Policy.Stall -> Blk_policy
    | Policy.Dispatch_to cluster ->
        if cluster < 0 || cluster >= t.cfg.Config.clusters then
          invalid_arg
            (Printf.sprintf
               "Engine: policy %s steered micro-op %d to invalid cluster %d"
               t.policy.Policy.name (Dynuop.static_id duop) cluster);
        (* The steering decision is observable even when a structural
           hazard then blocks the dispatch: the hardware consults the
           policy again next cycle, and each consult is an event. *)
        (match t.obs with
        | None -> ()
        | Some s ->
            s.Obs_sink.emit
              (Obs_event.Steer
                 {
                   cycle = now t;
                   static_id = Dynuop.static_id duop;
                   cluster;
                   inflight = Array.copy t.inflight;
                 }));
        if t.per_cluster.(cluster) >= t.cfg.Config.dispatch_per_cluster then
          Blk_width
        else
        let qidx = queue_index (Opcode.queue u.Uop.opcode) in
        let reg_class_of dst =
          match dst.Reg.cls with Reg.Int_class -> 0 | Reg.Fp_class -> 1
        in
        let regfile_full =
          match u.Uop.dst with
          | Some dst ->
              let k = reg_class_of dst in
              let cap =
                if k = 0 then t.cfg.Config.int_regfile
                else t.cfg.Config.fp_regfile
              in
              t.regs_used.(cluster).(k) >= cap
          | None -> false
        in
        if
          t.occupancy.(cluster).(qidx)
          >= queue_size t.cfg (Opcode.queue u.Uop.opcode)
        then Blk_iq
        else if regfile_full then Blk_reg
        else begin
          let needed = copies_needed t u cluster in
          (* Copy queue capacity check in every source cluster, using
             the per-cluster scratch counters instead of a fresh
             hashtable per dispatch attempt. *)
          Array.fill t.copy_extra 0 (Array.length t.copy_extra) 0;
          let fits = ref true in
          for i = 0 to needed - 1 do
            let from = Vec.get t.tag_origin t.copy_tags.(i) in
            if t.occupancy.(from).(2) + t.copy_extra.(from)
               >= t.cfg.Config.copy_q_size
            then fits := false;
            t.copy_extra.(from) <- t.copy_extra.(from) + 1
          done;
          if not !fits then Blk_copyq
          else begin
            for i = 0 to needed - 1 do
              insert_copy t t.copy_tags.(i) ~to_cluster:cluster
            done;
            let dst_tag =
              match u.Uop.dst with
              | Some _ -> new_tag t ~cluster
              | None -> -1
            in
            let inst =
              {
                iseq = fresh_iseq t;
                kind = Op duop;
                cluster;
                queue = Opcode.queue u.Uop.opcode;
                dst_tag;
                waiting = 0;
                completed = false;
                took_mshr = false;
                store_waiters = -1;
                mispredicted = slot.misp;
              }
            in
            (* Rename sources (wait for readiness in [cluster]) before
               the destination, which may be one of them. *)
            let srcs = u.Uop.srcs in
            for i = 0 to Array.length srcs - 1 do
              let tag = t.rename.(reg_code max_nregs_per_class srcs.(i)) in
              if not (tag_ready_in t tag cluster) then
                add_waiter t inst tag cluster
            done;
            (match u.Uop.dst with
            | Some dst ->
                t.rename.(reg_code max_nregs_per_class dst) <- dst_tag;
                let k = reg_class_of dst in
                t.regs_used.(cluster).(k) <- t.regs_used.(cluster).(k) + 1
            | None -> ());
            (* Memory bookkeeping: LSQ slot, store table, store-to-load
               dependences through the unified LSQ (exact 8-byte
               disambiguation; forwarding needs no inter-cluster copy). *)
            if Uop.is_mem u then begin
              t.lsq_used <- t.lsq_used + 1;
              let key = duop.Dynuop.addr land lnot 7 in
              match u.Uop.opcode with
              | Opcode.Store ->
                  Hashtbl.replace t.pending_store key inst;
                  t.stats.Stats.stores <- t.stats.Stats.stores + 1
              | Opcode.Load ->
                  t.stats.Stats.loads <- t.stats.Stats.loads + 1;
                  (match Hashtbl.find t.pending_store key with
                  | store when not store.completed ->
                      inst.waiting <- inst.waiting + 1;
                      store.store_waiters <-
                        push_waiter t store.store_waiters inst cluster
                  | _ | (exception Not_found) -> ())
              | _ -> ()
            end;
            t.occupancy.(cluster).(qidx) <- t.occupancy.(cluster).(qidx) + 1;
            t.inflight.(cluster) <- t.inflight.(cluster) + 1;
            t.per_cluster.(cluster) <- t.per_cluster.(cluster) + 1;
            let pushed = Ring.push t.rob inst in
            assert pushed;
            t.stats.Stats.dispatched <- t.stats.Stats.dispatched + 1;
            t.stats.Stats.per_cluster_dispatched.(cluster) <-
              t.stats.Stats.per_cluster_dispatched.(cluster) + 1;
            (match t.obs with
            | None -> ()
            | Some s ->
                s.Obs_sink.emit
                  (Obs_event.Dispatch
                     {
                       cycle = now t;
                       iseq = inst.iseq;
                       static_id = Dynuop.static_id duop;
                       cluster;
                       queue = queue_name (Opcode.queue u.Uop.opcode);
                     }));
            if inst.waiting = 0 then enqueue_ready t inst;
            Blk_none
          end
        end

(* Add [n] cycles to the stall counter of [blk]; the trace's name for
   the reason, if it is one. *)
let charge_stall t blk n =
  let s = t.stats in
  match blk with
  | Blk_none | Blk_width -> None
  | Blk_empty ->
      s.Stats.stall_empty <- s.Stats.stall_empty + n;
      Some Obs_event.Empty
  | Blk_rob ->
      s.Stats.stall_rob_full <- s.Stats.stall_rob_full + n;
      Some Obs_event.Rob_full
  | Blk_lsq ->
      s.Stats.stall_lsq_full <- s.Stats.stall_lsq_full + n;
      Some Obs_event.Lsq_full
  | Blk_reg ->
      s.Stats.stall_regfile <- s.Stats.stall_regfile + n;
      Some Obs_event.Regfile
  | Blk_policy ->
      s.Stats.stall_policy <- s.Stats.stall_policy + n;
      Some Obs_event.Policy
  | Blk_iq ->
      s.Stats.stall_iq_full <- s.Stats.stall_iq_full + n;
      Some Obs_event.Iq_full
  | Blk_copyq ->
      s.Stats.stall_copyq_full <- s.Stats.stall_copyq_full + n;
      Some Obs_event.Copyq_full

let emit_stall t reason =
  match (t.obs, reason) with
  | Some sink, Some reason ->
      sink.Obs_sink.emit (Obs_event.Stall { cycle = now t; reason })
  | (Some _ | None), _ -> ()

(* Returns what blocked the first micro-op when nothing dispatched,
   [Blk_none] otherwise. *)
let dispatch t =
  let budget = ref t.cfg.Config.dispatch_width in
  (* "3+3": the steer stage can deliver at most [dispatch_per_cluster]
     micro-ops into any one cluster per cycle. *)
  Array.fill t.per_cluster 0 (Array.length t.per_cluster) 0;
  let block = ref Blk_none in
  let width_exhausted = ref false in
  while (not !width_exhausted) && !block = Blk_none && !budget > 0 do
    if Ring.is_empty t.fetchq || (Ring.top t.fetchq).ready_at > t.cycle then
      block := Blk_empty
    else
      match dispatch_one t (Ring.top t.fetchq) with
      | Blk_none ->
          Ring.drop t.fetchq;
          decr budget
      | Blk_width ->
          (* width limit of the target cluster's steer port, not an
             allocation stall *)
          width_exhausted := true
      | blk -> block := blk
  done;
  (* Attribute at most one stall reason per cycle, and only when the
     dispatch stage did not fill its full width. *)
  if !budget > 0 then emit_stall t (charge_stall t !block 1);
  if !budget = t.cfg.Config.dispatch_width then !block else Blk_none

(* ---- fetch ------------------------------------------------------- *)

let fetch t ~source =
  if t.cycle >= t.fetch_resume then begin
    let budget = ref t.cfg.Config.fetch_width in
    let blocked = ref false in
    while (not !blocked) && !budget > 0 && not (Ring.is_full t.fetchq) do
      let duop = source () in
      let misp =
        if Uop.is_branch duop.Dynuop.suop then begin
          let pc = Dynuop.static_id duop in
          let predicted = Bpred.predict t.bpred ~pc in
          Bpred.update t.bpred ~pc ~taken:duop.Dynuop.taken;
          predicted <> duop.Dynuop.taken
        end
        else false
      in
      (* Trace cache: a miss charges the line-rebuild penalty and stops
         fetch for the rest of the miss window. *)
      let tc_hit =
        Tracecache.lookup t.tcache ~static_id:(Dynuop.static_id duop)
      in
      if tc_hit then t.stats.Stats.tc_hits <- t.stats.Stats.tc_hits + 1
      else t.stats.Stats.tc_misses <- t.stats.Stats.tc_misses + 1;
      let tc_extra = if tc_hit then 0 else t.cfg.Config.tc_miss_penalty in
      let slot = t.fetch_slots.(t.fetch_next) in
      t.fetch_next <- (t.fetch_next + 1) mod Array.length t.fetch_slots;
      slot.duop <- duop;
      slot.ready_at <- t.cycle + tc_extra + t.frontend_depth;
      slot.misp <- misp;
      let pushed = Ring.push t.fetchq slot in
      assert pushed;
      decr budget;
      if misp then begin
        (* Trace-driven wrong-path model: stop fetching until the
           branch resolves. *)
        t.fetch_resume <- never;
        blocked := true
      end
      else if not tc_hit then begin
        t.fetch_resume <- t.cycle + tc_extra;
        blocked := true
      end
    done
  end

(* ---- idle-cycle skip -------------------------------------------- *)

(* The earliest cycle, at or after [t.cycle], at which a step can do
   anything, given that the step just taken moved nothing and its
   dispatch stopped before the policy was consulted; [never] when
   nothing can wake the machine, and [t.cycle] when the next cycle
   cannot be skipped. A stalled step repeats itself until:
   - the next event fires. Completions bring commit, and with it ROB
     and LSQ space; they free MSHRs and resolve branches. A
     non-pipelined unit frees on the cycle its occupant completes, so
     it needs no wake of its own. A load waiting for an MSHR re-checks
     the L1 with [Cache.probe], which is pure;
   - fetch resumes at [fetch_resume], while the fetch queue has room;
   - the fetch-queue head becomes dispatchable at its [ready_at];
   - with interval telemetry, a snapshot is due on its boundary.
   A ready copy retries its link reservation every cycle, and a
   multi-hop link frees without an event, so a non-empty copy queue
   forbids the skip. *)
let earliest (a : int) b = if a < b then a else b

let wake_cycle t =
  let wake = ref never in
  if not (Pqueue.is_empty t.events) then wake := Pqueue.top_prio t.events;
  if not (Ring.is_full t.fetchq) then wake := earliest !wake t.fetch_resume;
  (if not (Ring.is_empty t.fetchq) then
     let ready_at = (Ring.top t.fetchq).ready_at in
     if ready_at >= t.cycle then wake := earliest !wake ready_at);
  (match t.obs with
  | Some s when s.Obs_sink.interval > 0 ->
      (* The step that lands on the next boundary takes the snapshot. *)
      let i = s.Obs_sink.interval and done_ = t.stats.Stats.cycles in
      wake := earliest !wake (t.cycle + (((done_ / i) + 1) * i) - done_ - 1)
  | Some _ | None -> ());
  for c = 0 to t.cfg.Config.clusters - 1 do
    if not (Readyq.is_empty t.ready_q.(c).(2)) then wake := t.cycle
  done;
  !wake

(* Jump from [t.cycle] to the wake cycle, charging every cycle skipped
   to [blk] as the steps would have, one [Stall] event each. *)
let skip_idle t blk =
  let wake = wake_cycle t in
  if wake <> never && wake > t.cycle then begin
    let n = wake - t.cycle in
    (match t.obs with
    | None ->
        ignore (charge_stall t blk n);
        t.stats.Stats.cycles <- t.stats.Stats.cycles + n
    | Some _ ->
        for _ = 1 to n do
          emit_stall t (charge_stall t blk 1);
          t.stats.Stats.cycles <- t.stats.Stats.cycles + 1
        done);
    t.cycle <- wake
  end

(* ---- main loop --------------------------------------------------- *)

let enter t ph = if Array.length t.prof > 0 then Obs_profile.enter t.prof.(ph)
let leave t ph = if Array.length t.prof > 0 then Obs_profile.leave t.prof.(ph)

(* One cycle, phases in writeback-commit-issue-dispatch-fetch order.
   The profiler's spans accumulate across the whole run and are
   flushed once in [run], so each histogram holds per-run phase
   totals. A step that changed nothing is followed by a jump over the
   cycles that cannot change anything either ({!skip_idle}). *)
let step t ~source =
  enter t ph_writeback;
  process_events t;
  leave t ph_writeback;
  t.loads_this_cycle <- 0;
  t.stores_this_cycle <- 0;
  (* The step moved nothing if it committed nothing, issued nothing
     (only issue schedules events) and fetched nothing (a dispatch
     that stalls on its first micro-op takes none from the queue). *)
  let committed = t.stats.Stats.committed
  and pending = Pqueue.length t.events
  and queued = Ring.length t.fetchq in
  enter t ph_commit;
  commit t;
  leave t ph_commit;
  enter t ph_issue;
  issue t;
  leave t ph_issue;
  enter t ph_dispatch;
  let blk = dispatch t in
  leave t ph_dispatch;
  enter t ph_fetch;
  fetch t ~source;
  leave t ph_fetch;
  t.cycle <- t.cycle + 1;
  t.stats.Stats.cycles <- t.stats.Stats.cycles + 1;
  (* Interval telemetry: snapshot on measured-time boundaries so the
     series restarts cleanly when the warmup reset zeroes the stats. *)
  (match t.obs with
  | Some s
    when s.Obs_sink.interval > 0
         && t.stats.Stats.cycles mod s.Obs_sink.interval = 0 ->
      s.Obs_sink.on_snapshot (Stats.snapshot t.stats)
  | Some _ | None -> ());
  (* Only stalls the policy never saw: a consulted policy may keep
     state per consult. *)
  match blk with
  | (Blk_empty | Blk_rob | Blk_lsq)
    when t.stats.Stats.committed = committed
         && Pqueue.length t.events = pending
         && Ring.length t.fetchq = queued ->
      skip_idle t blk
  | _ -> ()

let run ?(warmup = 0) t ~source ~uops =
  if uops <= 0 then invalid_arg "Engine.run: uops must be positive";
  if warmup < 0 then invalid_arg "Engine.run: negative warmup";
  let max_cycles = ((warmup + uops) * 1000) + 100_000 in
  if warmup > 0 then begin
    (* The sink observes the measured phase only: warmup events would
       share timestamps with post-reset ones and pollute the trace. *)
    let saved_obs = t.obs in
    t.obs <- None;
    while t.stats.Stats.committed < warmup do
      if t.cycle > max_cycles then
        failwith "Engine.run: no forward progress during warmup";
      step t ~source
    done;
    Stats.reset t.stats;
    Memsys.reset_stats t.memsys;
    Bpred.reset_stats t.bpred;
    t.obs <- saved_obs
  end;
  while t.stats.Stats.committed < uops do
    if t.cycle > max_cycles then
      failwith "Engine.run: no forward progress (cycle bound exceeded)";
    step t ~source
  done;
  (* Fold memory / branch counters into the run statistics. *)
  t.stats.Stats.l1_hits <- Memsys.l1_hits t.memsys;
  t.stats.Stats.l1_misses <- Memsys.l1_misses t.memsys;
  t.stats.Stats.l2_hits <- Memsys.l2_hits t.memsys;
  t.stats.Stats.l2_misses <- Memsys.l2_misses t.memsys;
  t.stats.Stats.branch_lookups <- Bpred.lookups t.bpred;
  t.stats.Stats.branch_mispredicts <- Bpred.mispredicts t.bpred;
  (* One histogram observation per phase per run. Only this engine's
     own spans are flushed — the profiler may be shared with the
     harness or service layer. *)
  Array.iter Obs_profile.flush t.prof;
  t.stats
