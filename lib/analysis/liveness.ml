open Clusteer_isa

type t = {
  nregs : int;
  live_in : int array array;
  live_out : int array array;
  dead_defs : (int * Reg.t) list;
  peak_int : int;
  peak_fp : int;
  iterations : int;
}

let codes = [ "LIV001"; "LIV002"; "LIV003" ]

(* Bitvectors over encoded registers, 62 bits per word so every word
   stays an immediate int. Facts are treated as immutable: transfer
   allocates, which is fine off the simulation hot path. *)
let bits_per_word = 62

let vec_words nbits = (nbits + bits_per_word - 1) / bits_per_word

let vec_get v i = v.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let vec_set v i = v.(i / bits_per_word) <- v.(i / bits_per_word) lor (1 lsl (i mod bits_per_word))

let vec_clear v i =
  v.(i / bits_per_word) <- v.(i / bits_per_word) land lnot (1 lsl (i mod bits_per_word))

let vec_equal = ( = )

let vec_join a b = Array.mapi (fun i w -> w lor b.(i)) a

let lattice nwords =
  {
    Fixpoint.bottom = Array.make nwords 0;
    equal = vec_equal;
    join = vec_join;
  }

let analyze (p : Program.t) =
  let nregs = p.Program.nregs_per_class in
  let nbits = 2 * nregs in
  let nwords = vec_words nbits in
  let code r = Reg.encode ~nregs_per_class:nregs r in
  let cfg = Fixpoint.of_program p in
  (* Block-level gen (upward-exposed uses) / kill (defs). *)
  let gen = Array.init cfg.Fixpoint.nblocks (fun _ -> Array.make nwords 0) in
  let kill = Array.init cfg.Fixpoint.nblocks (fun _ -> Array.make nwords 0) in
  Array.iteri
    (fun b (blk : Block.t) ->
      Array.iter
        (fun (u : Uop.t) ->
          Array.iter
            (fun r ->
              let c = code r in
              if not (vec_get kill.(b) c) then vec_set gen.(b) c)
            u.Uop.srcs;
          match u.Uop.dst with
          | Some r -> vec_set kill.(b) (code r)
          | None -> ())
        blk.Block.uops)
    p.Program.blocks;
  let transfer b out =
    (* live-in = gen ∪ (live-out − kill) *)
    Array.mapi (fun i w -> gen.(b).(i) lor (w land lnot kill.(b).(i))) out
  in
  let r =
    Fixpoint.solve ~direction:Fixpoint.Backward ~lattice:(lattice nwords) ~cfg
      ~transfer ()
  in
  let live_out = r.Fixpoint.input and live_in = r.Fixpoint.output in
  (* Per-uop walk, backwards through each block: dead definitions and
     peak per-class pressure at micro-op granularity. *)
  let dead = ref [] in
  let peak_int = ref 0 and peak_fp = ref 0 in
  let measure live =
    let ints = ref 0 and fps = ref 0 in
    for i = 0 to nbits - 1 do
      if vec_get live i then if i < nregs then incr ints else incr fps
    done;
    if !ints > !peak_int then peak_int := !ints;
    if !fps > !peak_fp then peak_fp := !fps
  in
  Array.iteri
    (fun b (blk : Block.t) ->
      let live = Array.copy live_out.(b) in
      measure live;
      for i = Array.length blk.Block.uops - 1 downto 0 do
        let u = blk.Block.uops.(i) in
        (match u.Uop.dst with
        | Some r ->
            let c = code r in
            if not (vec_get live c) then dead := (u.Uop.id, r) :: !dead;
            vec_clear live c
        | None -> ());
        Array.iter (fun r -> vec_set live (code r)) u.Uop.srcs;
        measure live
      done)
    p.Program.blocks;
  let dead_defs = List.sort (fun (a, _) (b, _) -> compare a b) !dead in
  {
    nregs;
    live_in;
    live_out;
    dead_defs;
    peak_int = !peak_int;
    peak_fp = !peak_fp;
    iterations = r.Fixpoint.iterations;
  }

let max_located_dead = 8

let check ?int_budget ?fp_budget (p : Program.t) =
  let t = analyze p in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let ndead = List.length t.dead_defs in
  List.iteri
    (fun i (id, r) ->
      if i < max_located_dead then
        add
          (Diag.infof ~uop:id
             ~block:(Program.block_of_uop p id)
             ~code:"LIV001" "definition of %s is dead (no path reads it)"
             (Reg.to_string r)))
    t.dead_defs;
  if ndead > max_located_dead then
    add
      (Diag.infof ~code:"LIV001" "%d further dead definitions not listed"
         (ndead - max_located_dead));
  add
    (Diag.infof ~code:"LIV002"
       "peak live registers: %d INT, %d FP (of %d per class); %d dead \
        definition(s)"
       t.peak_int t.peak_fp t.nregs ndead);
  let over cls peak budget =
    match budget with
    | Some b when peak > b ->
        add
          (Diag.warnf ~code:"LIV003"
             "peak %s pressure %d exceeds the physical register file (%d); \
              renaming must stall regardless of steering"
             cls peak b)
    | _ -> ()
  in
  over "INT" t.peak_int int_budget;
  over "FP" t.peak_fp fp_budget;
  List.rev !diags
