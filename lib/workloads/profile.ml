type suite = Spec_int | Spec_fp

type t = {
  name : string;
  suite : suite;
  seed : int;
  fp_ratio : float;
  mem_ratio : float;
  ilp : int;
  chain_len : int;
  footprint_kb : int;
  stride_frac : float;
  chase_frac : float;
  loops : int;
  block_size : int;
  loop_trip : int;
  hard_branch_frac : float;
  phases : int;
}

let validate t =
  let frac name v =
    (* Written positively so a NaN fails it too. *)
    if not (v >= 0.0 && v <= 1.0) then
      invalid_arg (Printf.sprintf "Profile %s: %s out of [0,1]" t.name name)
  in
  let pos name v =
    if v <= 0 then
      invalid_arg (Printf.sprintf "Profile %s: %s must be positive" t.name name)
  in
  frac "fp_ratio" t.fp_ratio;
  frac "mem_ratio" t.mem_ratio;
  frac "stride_frac" t.stride_frac;
  frac "chase_frac" t.chase_frac;
  frac "hard_branch_frac" t.hard_branch_frac;
  if t.stride_frac +. t.chase_frac > 1.0 then
    invalid_arg (Printf.sprintf "Profile %s: stream fractions exceed 1" t.name);
  pos "ilp" t.ilp;
  pos "chain_len" t.chain_len;
  pos "footprint_kb" t.footprint_kb;
  pos "loops" t.loops;
  pos "block_size" t.block_size;
  pos "loop_trip" t.loop_trip;
  pos "phases" t.phases;
  if t.phases > 10 then
    invalid_arg (Printf.sprintf "Profile %s: more than 10 phases" t.name);
  if t.ilp > 12 then
    invalid_arg (Printf.sprintf "Profile %s: ilp too wide for register budget" t.name)

let suite_name = function Spec_int -> "SPECint" | Spec_fp -> "SPECfp"
