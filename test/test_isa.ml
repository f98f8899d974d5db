(* Unit tests for clusteer_isa: registers, opcodes, micro-ops, blocks,
   programs and annotations. *)

open Clusteer_isa

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- Reg ------------------------------------------------------------ *)

let test_reg_encode_roundtrip () =
  let n = 32 in
  for code = 0 to (2 * n) - 1 do
    let r = Reg.decode ~nregs_per_class:n code in
    check_int "roundtrip" code (Reg.encode ~nregs_per_class:n r)
  done

let test_reg_encode_ranges () =
  check_int "int 0" 0 (Reg.encode ~nregs_per_class:16 (Reg.int 0));
  check_int "fp 0" 16 (Reg.encode ~nregs_per_class:16 (Reg.fp 0));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Reg.encode: index out of range") (fun () ->
      ignore (Reg.encode ~nregs_per_class:16 (Reg.int 16)))

let test_reg_compare () =
  check_bool "int < fp" true (Reg.compare (Reg.int 5) (Reg.fp 0) < 0);
  check_bool "equal" true (Reg.equal (Reg.int 3) (Reg.int 3));
  check_bool "not equal across class" false (Reg.equal (Reg.int 3) (Reg.fp 3))

let test_reg_to_string () =
  Alcotest.(check string) "int" "r4" (Reg.to_string (Reg.int 4));
  Alcotest.(check string) "fp" "f7" (Reg.to_string (Reg.fp 7))

(* ---- Opcode --------------------------------------------------------- *)

let test_opcode_latencies_positive () =
  Array.iter
    (fun op -> check_bool "latency > 0" true (Opcode.latency op > 0))
    Opcode.all

let test_opcode_queues () =
  check_bool "alu int queue" true (Opcode.queue Opcode.Int_alu = Opcode.Int_queue);
  check_bool "load int queue" true (Opcode.queue Opcode.Load = Opcode.Int_queue);
  check_bool "fp queue" true (Opcode.queue Opcode.Fp_mul = Opcode.Fp_queue);
  check_bool "copy queue" true (Opcode.queue Opcode.Copy = Opcode.Copy_queue)

let test_opcode_unpipelined_divides () =
  check_bool "idiv" false (Opcode.pipelined Opcode.Int_div);
  check_bool "fdiv" false (Opcode.pipelined Opcode.Fp_div);
  check_bool "alu" true (Opcode.pipelined Opcode.Int_alu)

let test_opcode_mem () =
  check_bool "load" true (Opcode.is_mem Opcode.Load);
  check_bool "store" true (Opcode.is_mem Opcode.Store);
  check_bool "branch" false (Opcode.is_mem Opcode.Branch)

(* ---- Uop ------------------------------------------------------------ *)

let test_uop_valid_alu () =
  let u =
    Uop.make ~id:0 ~opcode:Opcode.Int_alu ~dst:(Reg.int 1)
      ~srcs:[| Reg.int 2 |] ()
  in
  check_int "id" 0 u.Uop.id;
  check_bool "not mem" false (Uop.is_mem u)

let test_uop_store_no_dst () =
  Alcotest.check_raises "store with dst"
    (Invalid_argument "Uop.make (id 1): store/branch cannot have a destination")
    (fun () ->
      ignore
        (Uop.make ~id:1 ~opcode:Opcode.Store ~dst:(Reg.int 0) ~stream:0 ()))

let test_uop_load_needs_stream () =
  Alcotest.check_raises "load without stream"
    (Invalid_argument "Uop.make (id 2): memory micro-op must name a stream")
    (fun () -> ignore (Uop.make ~id:2 ~opcode:Opcode.Load ~dst:(Reg.int 0) ()))

let test_uop_alu_needs_dst () =
  Alcotest.check_raises "alu without dst"
    (Invalid_argument "Uop.make (id 3): computation needs a destination")
    (fun () -> ignore (Uop.make ~id:3 ~opcode:Opcode.Int_alu ()))

let test_uop_branch_needs_model () =
  Alcotest.check_raises "branch without model"
    (Invalid_argument "Uop.make (id 4): branch must name a behaviour model")
    (fun () -> ignore (Uop.make ~id:4 ~opcode:Opcode.Branch ()))

let test_uop_fp_class_check () =
  Alcotest.check_raises "fp writes int reg"
    (Invalid_argument "Uop.make (id 5): fp result must target an fp register")
    (fun () ->
      ignore (Uop.make ~id:5 ~opcode:Opcode.Fp_add ~dst:(Reg.int 0) ()))

let test_uop_too_many_srcs () =
  Alcotest.check_raises "3 sources"
    (Invalid_argument "Uop.make (id 6): at most two register sources")
    (fun () ->
      ignore
        (Uop.make ~id:6 ~opcode:Opcode.Int_alu ~dst:(Reg.int 0)
           ~srcs:[| Reg.int 1; Reg.int 2; Reg.int 3 |] ()))

let test_uop_non_mem_no_stream () =
  Alcotest.check_raises "alu with stream"
    (Invalid_argument "Uop.make (id 7): non-memory micro-op cannot name a stream")
    (fun () ->
      ignore (Uop.make ~id:7 ~opcode:Opcode.Int_alu ~dst:(Reg.int 0) ~stream:0 ()))

(* ---- Block ----------------------------------------------------------- *)

let branch ~id ~model =
  Uop.make ~id ~opcode:Opcode.Branch ~srcs:[| Reg.int 0 |] ~branch_ref:model ()

let alu ~id = Uop.make ~id ~opcode:Opcode.Int_alu ~dst:(Reg.int 0) ()

let test_block_fallthrough () =
  let b = Block.make ~id:0 ~uops:[| alu ~id:0 |] ~succs:[| 1 |] in
  Alcotest.(check (option pass)) "no terminator" None (Block.terminator b)

let test_block_branch_terminator () =
  let b =
    Block.make ~id:0
      ~uops:[| alu ~id:0; branch ~id:1 ~model:0 |]
      ~succs:[| 1; 2 |]
  in
  check_bool "has terminator" true (Block.terminator b <> None)

let test_block_branch_must_be_last () =
  Alcotest.check_raises "branch mid-block"
    (Invalid_argument "Block.make (block 0): branch must be the final micro-op")
    (fun () ->
      ignore
        (Block.make ~id:0
           ~uops:[| branch ~id:0 ~model:0; alu ~id:1 |]
           ~succs:[| 1; 2 |]))

let test_block_multisucc_needs_branch () =
  Alcotest.check_raises "two succs no branch"
    (Invalid_argument
       "Block.make (block 0): multi-successor block needs a terminating branch")
    (fun () -> ignore (Block.make ~id:0 ~uops:[| alu ~id:0 |] ~succs:[| 1; 2 |]))

let test_block_branch_needs_multisucc () =
  Alcotest.check_raises "branch with one succ"
    (Invalid_argument
       "Block.make (block 0): branch terminator requires at least two successors")
    (fun () ->
      ignore
        (Block.make ~id:0 ~uops:[| branch ~id:0 ~model:0 |] ~succs:[| 1 |]))

(* ---- Program builder -------------------------------------------------- *)

let build_diamond () =
  let b = Program.Builder.create ~name:"diamond" ~nregs_per_class:8 () in
  let m = Program.Builder.branch_model b in
  let entry = Program.Builder.reserve_block b in
  let left = Program.Builder.reserve_block b in
  let right = Program.Builder.reserve_block b in
  let exit_ = Program.Builder.reserve_block b in
  let u0 = Program.Builder.uop b Opcode.Int_alu ~dst:(Reg.int 0) () in
  let br =
    Program.Builder.uop b Opcode.Branch ~srcs:[| Reg.int 0 |] ~branch_ref:m ()
  in
  Program.Builder.define_block b entry [ u0; br ] ~succs:[ left; right ];
  let u1 = Program.Builder.uop b Opcode.Int_alu ~dst:(Reg.int 1) () in
  Program.Builder.define_block b left [ u1 ] ~succs:[ exit_ ];
  let u2 = Program.Builder.uop b Opcode.Int_alu ~dst:(Reg.int 2) () in
  Program.Builder.define_block b right [ u2 ] ~succs:[ exit_ ];
  Program.Builder.define_block b exit_ [] ~succs:[];
  Program.Builder.finish b ~entry

let test_program_diamond_shape () =
  let p = build_diamond () in
  check_int "blocks" 4 (Array.length p.Program.blocks);
  check_int "uops" 4 p.Program.uop_count;
  check_int "branch models" 1 p.Program.branch_model_count;
  check_int "streams" 0 p.Program.stream_count

let test_program_uop_lookup () =
  let p = build_diamond () in
  for id = 0 to p.Program.uop_count - 1 do
    let u = Program.uop p id in
    check_int "dense ids" id u.Uop.id
  done;
  check_int "uop 2 in block 1" 1 (Program.block_of_uop p 2);
  check_int "position" 0 (Program.index_in_block p 2)

let test_program_iter_covers_all () =
  let p = build_diamond () in
  let seen = ref 0 in
  Program.iter_uops p (fun _ -> incr seen);
  check_int "covers all" p.Program.uop_count !seen

let test_builder_rejects_unplaced_uop () =
  let b = Program.Builder.create ~nregs_per_class:4 () in
  let _orphan = Program.Builder.uop b Opcode.Int_alu ~dst:(Reg.int 0) () in
  let blk = Program.Builder.add_block b [] ~succs:[] in
  Alcotest.check_raises "orphan uop"
    (Invalid_argument "Program.Builder.finish: micro-op 0 never placed")
    (fun () -> ignore (Program.Builder.finish b ~entry:blk))

let test_builder_rejects_double_placement () =
  let b = Program.Builder.create ~nregs_per_class:4 () in
  let u = Program.Builder.uop b Opcode.Int_alu ~dst:(Reg.int 0) () in
  let b1 = Program.Builder.add_block b [ u ] ~succs:[] in
  let _b2 = Program.Builder.add_block b [ u ] ~succs:[] in
  Alcotest.check_raises "double placement"
    (Invalid_argument "Program.Builder.finish: micro-op 0 placed twice")
    (fun () -> ignore (Program.Builder.finish b ~entry:b1))

let test_builder_rejects_bad_successor () =
  let b = Program.Builder.create ~nregs_per_class:4 () in
  let blk = Program.Builder.add_block b [] ~succs:[ 42 ] in
  Alcotest.check_raises "successor out of range"
    (Invalid_argument "Program.Builder.finish: successor 42 out of range")
    (fun () -> ignore (Program.Builder.finish b ~entry:blk))

let test_builder_rejects_register_over_budget () =
  let b = Program.Builder.create ~nregs_per_class:4 () in
  Alcotest.check_raises "register over budget"
    (Invalid_argument "Program.Builder: register r9 out of budget (4)")
    (fun () ->
      ignore (Program.Builder.uop b Opcode.Int_alu ~dst:(Reg.int 9) ()))

let test_builder_rejects_unknown_stream () =
  let b = Program.Builder.create ~nregs_per_class:4 () in
  Alcotest.check_raises "unknown stream"
    (Invalid_argument "Program.Builder.uop: unknown stream") (fun () ->
      ignore
        (Program.Builder.uop b Opcode.Load ~dst:(Reg.int 0) ~stream:3 ()))

(* ---- Annot ----------------------------------------------------------- *)

let test_annot_none_shape () =
  let a = Annot.none ~uop_count:5 in
  check_int "vc count" 0 a.Annot.virtual_clusters;
  check_int "vc unassigned" (-1) a.Annot.vc_of.(3);
  check_bool "no leaders" false (Array.exists Fun.id a.Annot.leader);
  Annot.validate a ~clusters:2

let test_annot_virtual_validation () =
  let a = Annot.create_virtual ~scheme:"vc" ~virtual_clusters:2 ~uop_count:3 in
  a.Annot.vc_of.(0) <- 1;
  a.Annot.leader.(0) <- true;
  Annot.validate a ~clusters:2;
  a.Annot.vc_of.(1) <- 5;
  Alcotest.check_raises "vc out of range"
    (Invalid_argument "Annot.validate: uop 1 has vc 5 out of range") (fun () ->
      Annot.validate a ~clusters:2)

let test_annot_leader_requires_vc () =
  let a = Annot.create_virtual ~scheme:"vc" ~virtual_clusters:2 ~uop_count:2 in
  a.Annot.leader.(0) <- true;
  Alcotest.check_raises "leader without vc"
    (Invalid_argument "Annot.validate: uop 0 is a leader without a vc")
    (fun () -> Annot.validate a ~clusters:2)

let test_annot_static_validation () =
  let a = Annot.create_static ~scheme:"ob" ~uop_count:2 in
  a.Annot.cluster_of.(0) <- 1;
  Annot.validate a ~clusters:2;
  a.Annot.cluster_of.(1) <- 2;
  Alcotest.check_raises "cluster out of range"
    (Invalid_argument "Annot.validate: uop 1 has cluster 2 out of range")
    (fun () -> Annot.validate a ~clusters:2)

let test_annot_chain_count () =
  let a = Annot.create_virtual ~scheme:"vc" ~virtual_clusters:2 ~uop_count:4 in
  Array.iteri (fun i _ -> a.Annot.vc_of.(i) <- 0) a.Annot.vc_of;
  a.Annot.leader.(0) <- true;
  a.Annot.leader.(2) <- true;
  check_int "two chains" 2 (Annot.chain_count a)

(* ---- printers ---------------------------------------------------------- *)

let test_pretty_printers_smoke () =
  let u =
    Uop.make ~id:3 ~opcode:Opcode.Int_alu ~dst:(Reg.int 1)
      ~srcs:[| Reg.int 2 |] ()
  in
  let s = Format.asprintf "%a" Uop.pp u in
  check_bool "uop pp mentions id" true (String.length s > 0 && String.contains s '3');
  let p = build_diamond () in
  let s = Format.asprintf "%a" Program.pp p in
  check_bool "program pp nonempty" true (String.length s > 50);
  let s = Format.asprintf "%a" Block.pp p.Program.blocks.(0) in
  check_bool "block pp nonempty" true (String.length s > 10)

(* ---- Annot_io --------------------------------------------------------- *)

let parsed = function Ok a -> a | Error m -> Alcotest.fail m

let test_annot_io_roundtrip_virtual () =
  let a = Annot.create_virtual ~scheme:"vc" ~virtual_clusters:2 ~uop_count:4 in
  a.Annot.vc_of.(0) <- 1;
  a.Annot.vc_of.(2) <- 0;
  a.Annot.leader.(0) <- true;
  let b = parsed (Annot_io.of_string (Annot_io.to_string a)) in
  Alcotest.(check string) "scheme" a.Annot.scheme b.Annot.scheme;
  check_int "vcs" a.Annot.virtual_clusters b.Annot.virtual_clusters;
  Alcotest.(check (array int)) "vc_of" a.Annot.vc_of b.Annot.vc_of;
  Alcotest.(check (array bool)) "leader" a.Annot.leader b.Annot.leader;
  Alcotest.(check (array int)) "cluster_of" a.Annot.cluster_of b.Annot.cluster_of

let test_annot_io_roundtrip_static () =
  let a = Annot.create_static ~scheme:"rhop" ~uop_count:3 in
  a.Annot.cluster_of.(1) <- 1;
  let b = parsed (Annot_io.of_string (Annot_io.to_string a)) in
  Alcotest.(check (array int)) "cluster_of" a.Annot.cluster_of b.Annot.cluster_of;
  check_int "no vcs" 0 b.Annot.virtual_clusters

let test_annot_io_file_roundtrip () =
  let a = Annot.create_virtual ~scheme:"vc" ~virtual_clusters:3 ~uop_count:5 in
  Array.iteri (fun i _ -> a.Annot.vc_of.(i) <- i mod 3) a.Annot.vc_of;
  a.Annot.leader.(0) <- true;
  let path = Filename.temp_file "clusteer_annot" ".txt" in
  Annot_io.save ~path a;
  let b = parsed (Annot_io.load ~path) in
  Sys.remove path;
  Alcotest.(check (array int)) "vc_of" a.Annot.vc_of b.Annot.vc_of

let test_annot_io_rejects_garbage () =
  let rejects what msg text =
    Alcotest.(check (result unit string))
      what (Error msg)
      (Result.map ignore (Annot_io.of_string text))
  in
  rejects "bad magic" "Annot_io: line 1: bad magic"
    "nope\nscheme x\nvcs 0\nuops 0\n";
  rejects "truncated" "Annot_io: truncated header" "clusteer-annot 1\n";
  rejects "row count" "Annot_io: expected 2 rows, found 0"
    "clusteer-annot 1\nscheme x\nvcs 0\nuops 2\n";
  (* A header's row count alone never sizes an allocation. *)
  rejects "huge row count" "Annot_io: expected 4611686018427387903 rows, found 0"
    "clusteer-annot 1\nscheme x\nvcs 1\nuops 4611686018427387903\n"

(* Arbitrary bytes, and valid files with lines dropped, duplicated or
   with a byte replaced: the parser answers [Ok] or [Error], never an
   exception. *)
let prop_annot_io_never_raises =
  let valid =
    let a = Annot.create_virtual ~scheme:"vc" ~virtual_clusters:2 ~uop_count:4 in
    a.Annot.vc_of.(0) <- 1;
    a.Annot.leader.(0) <- true;
    a.Annot.cluster_of.(3) <- 1;
    Annot_io.to_string a
  in
  let mutated =
    QCheck.Gen.(
      let* edits = list_size (1 -- 4) (triple (0 -- 2) nat char) in
      return
        (List.fold_left
           (fun s (op, at, c) ->
             let lines = String.split_on_char '\n' s in
             let k = at mod List.length lines in
             match op with
             | 0 -> String.concat "\n" (List.filteri (fun i _ -> i <> k) lines)
             | 1 ->
                 String.concat "\n"
                   (List.concat (List.mapi (fun i l -> if i = k then [ l; l ] else [ l ]) lines))
             | _ ->
                 let n = String.length s in
                 if n = 0 then s
                 else String.mapi (fun i d -> if i = at mod n then c else d) s)
           valid edits))
  in
  QCheck.Test.make ~name:"parser never raises" ~count:2000
    (QCheck.make ~print:String.escaped
       QCheck.Gen.(oneof [ string_size ~gen:char (0 -- 120); mutated ]))
    (fun text ->
      match Annot_io.of_string text with
      | Ok _ | Error _ -> true
      | exception e ->
          QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

let () =
  Alcotest.run "clusteer_isa"
    [
      ( "reg",
        [
          Alcotest.test_case "encode roundtrip" `Quick test_reg_encode_roundtrip;
          Alcotest.test_case "encode ranges" `Quick test_reg_encode_ranges;
          Alcotest.test_case "compare" `Quick test_reg_compare;
          Alcotest.test_case "to_string" `Quick test_reg_to_string;
        ] );
      ( "opcode",
        [
          Alcotest.test_case "latencies" `Quick test_opcode_latencies_positive;
          Alcotest.test_case "queues" `Quick test_opcode_queues;
          Alcotest.test_case "unpipelined" `Quick test_opcode_unpipelined_divides;
          Alcotest.test_case "memory ops" `Quick test_opcode_mem;
        ] );
      ( "uop",
        [
          Alcotest.test_case "valid alu" `Quick test_uop_valid_alu;
          Alcotest.test_case "store no dst" `Quick test_uop_store_no_dst;
          Alcotest.test_case "load needs stream" `Quick test_uop_load_needs_stream;
          Alcotest.test_case "alu needs dst" `Quick test_uop_alu_needs_dst;
          Alcotest.test_case "branch needs model" `Quick test_uop_branch_needs_model;
          Alcotest.test_case "fp class check" `Quick test_uop_fp_class_check;
          Alcotest.test_case "max two sources" `Quick test_uop_too_many_srcs;
          Alcotest.test_case "no stream on alu" `Quick test_uop_non_mem_no_stream;
        ] );
      ( "block",
        [
          Alcotest.test_case "fallthrough" `Quick test_block_fallthrough;
          Alcotest.test_case "branch terminator" `Quick test_block_branch_terminator;
          Alcotest.test_case "branch must be last" `Quick test_block_branch_must_be_last;
          Alcotest.test_case "multisucc needs branch" `Quick test_block_multisucc_needs_branch;
          Alcotest.test_case "branch needs multisucc" `Quick test_block_branch_needs_multisucc;
        ] );
      ( "program",
        [
          Alcotest.test_case "diamond shape" `Quick test_program_diamond_shape;
          Alcotest.test_case "uop lookup" `Quick test_program_uop_lookup;
          Alcotest.test_case "iter covers all" `Quick test_program_iter_covers_all;
          Alcotest.test_case "rejects orphan" `Quick test_builder_rejects_unplaced_uop;
          Alcotest.test_case "rejects double placement" `Quick test_builder_rejects_double_placement;
          Alcotest.test_case "rejects bad successor" `Quick test_builder_rejects_bad_successor;
          Alcotest.test_case "register budget" `Quick test_builder_rejects_register_over_budget;
          Alcotest.test_case "unknown stream" `Quick test_builder_rejects_unknown_stream;
        ] );
      ( "printers",
        [ Alcotest.test_case "smoke" `Quick test_pretty_printers_smoke ] );
      ( "annot-io",
        [
          Alcotest.test_case "roundtrip virtual" `Quick test_annot_io_roundtrip_virtual;
          Alcotest.test_case "roundtrip static" `Quick test_annot_io_roundtrip_static;
          Alcotest.test_case "file roundtrip" `Quick test_annot_io_file_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_annot_io_rejects_garbage;
          QCheck_alcotest.to_alcotest prop_annot_io_never_raises;
        ] );
      ( "annot",
        [
          Alcotest.test_case "none shape" `Quick test_annot_none_shape;
          Alcotest.test_case "virtual validation" `Quick test_annot_virtual_validation;
          Alcotest.test_case "leader requires vc" `Quick test_annot_leader_requires_vc;
          Alcotest.test_case "static validation" `Quick test_annot_static_validation;
          Alcotest.test_case "chain count" `Quick test_annot_chain_count;
        ] );
    ]
