(* The default domain count is capped: experiment sweeps are
   memory-bandwidth heavy and more than [default_domain_cap] domains
   has never paid for itself on the machines we run on. The cap only
   applies to the *default*; an explicit [~domains] is honoured as
   given. *)
let default_domain_cap = 8

let default_domains () = min default_domain_cap (Domain.recommended_domain_count ())

type strategy = Static | Steal

(* OCaml 5 minor collections are stop-the-world across *all* domains:
   every domain must reach a safepoint before any of them can collect.
   Allocation-heavy shards with the default (small) minor heap
   therefore spend most of their time rendezvousing instead of
   simulating — the measured root cause of the PR 2 anti-scaling.
   Enlarging the minor heap for the duration of a parallel region
   divides the rendezvous frequency by the same factor. The parent's
   setting is enlarged before spawning (so helpers inherit it) and
   restored after the join; helpers additionally apply it themselves
   in case the runtime snapshots parameters at spawn time. *)
let grow_minor_heap words =
  let g = Gc.get () in
  if g.Gc.minor_heap_size < words then
    Gc.set { g with Gc.minor_heap_size = words }

let with_minor_heap words f =
  match words with
  | None -> f ()
  | Some w ->
      let saved = (Gc.get ()).Gc.minor_heap_size in
      if saved >= w then f ()
      else begin
        grow_minor_heap w;
        Fun.protect
          ~finally:(fun () ->
            Gc.set { (Gc.get ()) with Gc.minor_heap_size = saved })
          f
      end

(* The one worker loop. Every worker allocates its private state with
   [init] *inside* its own domain (so the state's minor allocations are
   domain-local from birth), then claims indexes until the claim rule
   runs out or another worker has failed. The strategy is only the
   claim rule: [Static] walks worker [w]'s contiguous slice
   [w*n/workers, (w+1)*n/workers), computed before spawn, so the hot
   loop touches no shared state; [Steal] takes the next index off a
   shared atomic cursor, which balances uneven items at the price of
   the cursor line bouncing between domains. *)
let map_sharded ?domains ?(strategy = Static) ?minor_heap_words ~init ~f xs =
  let domains =
    match domains with Some d -> max 1 d | None -> default_domains ()
  in
  let input = Array.of_list xs in
  let n = Array.length input in
  if n = 0 then ([], [])
  else begin
    let workers = min domains n in
    if workers = 1 then
      with_minor_heap minor_heap_words (fun () ->
          let state = init 0 in
          (List.map (f state) xs, [ state ]))
    else begin
      let results = Array.make n None in
      let states = Array.make workers None in
      let failure = Atomic.make None in
      let cursor = Atomic.make 0 in
      let claimer w =
        match strategy with
        | Static ->
            let next = ref (w * n / workers)
            and hi = (w + 1) * n / workers in
            fun () ->
              let i = !next in
              if i < hi then begin
                next := i + 1;
                i
              end
              else n
        | Steal -> fun () -> Atomic.fetch_and_add cursor 1
      in
      let run w =
        try
          let state = init w in
          states.(w) <- Some state;
          let claim = claimer w in
          (* The failure flag is consulted before every element: a
             poisoned run stops after the in-flight element. *)
          let rec loop () =
            if Atomic.get failure = None then begin
              let i = claim () in
              if i < n then begin
                results.(i) <- Some (f state input.(i));
                loop ()
              end
            end
          in
          loop ()
        with e ->
          (* First failure wins; keep its backtrace so the caller
             sees where the worker actually died. *)
          let bt = Printexc.get_raw_backtrace () in
          ignore (Atomic.compare_and_set failure None (Some (e, bt)))
      in
      (* Backtrace recording is per domain and a spawned domain starts
         with it off: without this a helper's failure would re-raise
         with an empty backtrace. *)
      let record_backtrace = Printexc.backtrace_status () in
      with_minor_heap minor_heap_words (fun () ->
          let helpers =
            List.init (workers - 1) (fun k ->
                Domain.spawn (fun () ->
                    Printexc.record_backtrace record_backtrace;
                    Option.iter grow_minor_heap minor_heap_words;
                    run (k + 1)))
          in
          run 0;
          List.iter Domain.join helpers);
      (match Atomic.get failure with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ());
      let get = function Some v -> v | None -> assert false in
      ( Array.to_list (Array.map get results),
        Array.to_list (Array.map get states) )
    end
  end
