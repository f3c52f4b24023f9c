(* @fuzz-smoke: the seconds-scale conformance gate wired into @ci.

   Five stages:
   1. canonical-stream roundtrip fuzz, >= 2,000 generated streams per ISA;
   2. corrupted-stream robustness fuzz (decoder totality + canonicalisation);
   3. >= 100 differential fault trials, fast paths on vs off (reference);
   4. an artificially planted decoder bug (Jcc L decoded as Jcc GE) must be
      caught, shrunk to a <= 3-instruction reproducer, written as a repro
      file, and that file must fail under the planted bug while passing under
      the production decoder;
   5. store corruption: real columnar-store blocks, damaged (bit flips,
      overwritten bytes, planted huge varints) and re-framed so their CRC
      passes, must never make [Store.fold] raise, and every block before the
      damaged one must survive. Journal and wire payloads are [Marshal] and
      are not fuzzed here: unmarshalling corrupted bytes is not total, so
      they wait for an explicit codec (ROADMAP item 4).

   Finally every committed repro under test/repro/ is replayed, so historical
   fuzz finds stay fixed. *)

open Ferrite_check
module Rng = Ferrite_machine.Rng
module CI = Ferrite_cisc.Insn

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("fuzz-smoke: " ^ s); exit 1) fmt

let expect_clean what = function
  | None -> ()
  | Some (f : Fuzz.find) -> fail "%s: %s" what f.Fuzz.f_msg

(* Stage 5. Returns how many damaged blocks the reader rejected (the rest
   still decoded to some rows, which is fine: the CRC was recomputed). *)
let store_corruption ~rng ~count =
  let module Store = Ferrite_store.Store in
  let module Frame = Ferrite_iofault.Frame in
  let path = Filename.temp_file "ferrite-fuzz" ".fstore" in
  Store.close (Store.create path);
  let header = Frame.read_file path in
  let opt v = if Rng.bool rng then Some v else None in
  let rows =
    List.init 60 (fun i ->
        {
          Store.r_index = i;
          r_arch = Rng.pick rng [| "cisc"; "risc" |];
          r_kind = Rng.pick rng [| "stack"; "register"; "data"; "code" |];
          r_model = Rng.pick rng [| "single_bit"; "burst:4"; "stuck_at:1" |];
          r_outcome = Rng.pick rng [| "Not Manifested"; "Known Crash"; "Hang" |];
          r_activated = Rng.bool rng;
          r_activation_cycle = opt (Rng.int rng 1_000_000);
          r_cause = opt (Rng.pick rng [| "NULL Pointer"; "Bad Paging"; "Invalid Instruction" |]);
          r_latency = opt (Rng.int rng 100_000);
          r_pc = opt (Rng.bits32 rng);
          r_function = opt (Rng.pick rng [| "schedule"; "do_page_fault"; "sys_read+0x1c" |]);
          r_triage = opt (Rng.pick rng [| "stack_overwrite"; "bad_pointer" |]);
        })
  in
  let block_rows = 7 in
  let w = Store.create ~block_rows path in
  List.iter (Store.append w) rows;
  Store.close w;
  let data = Frame.read_file path in
  let blocks, _ =
    Frame.fold Option.some (fun acc p -> p :: acc) [] data (String.length header)
  in
  let blocks = Array.of_list (List.rev blocks) in
  let nblocks = Array.length blocks in
  let rejected = ref 0 in
  for _ = 1 to count do
    let j = Rng.int rng nblocks in
    let p = Bytes.of_string blocks.(j) in
    let n = Bytes.length p in
    (match Rng.int rng 3 with
    | 0 ->
      for _ = 0 to Rng.int rng 8 do
        let i = Rng.int rng n in
        Bytes.set p i (Char.chr (Char.code (Bytes.get p i) lxor (1 lsl Rng.int rng 8)))
      done
    | 1 ->
      let at = Rng.int rng n in
      for i = at to min (n - 1) (at + Rng.int rng 6) do
        Bytes.set p i (Char.chr (Rng.int rng 256))
      done
    | _ ->
      (* a count or length near 2^(7k): LEB128 continuation bytes *)
      let at = Rng.int rng n in
      let len = 1 + Rng.int rng 9 in
      for i = at to min (n - 1) (at + len - 1) do
        let last = i = at + len - 1 in
        Bytes.set p i (Char.chr ((if last then 0 else 0x80) lor Rng.int rng 128))
      done);
    let framed = Array.map Frame.encode blocks in
    framed.(j) <- Frame.encode (Bytes.to_string p);
    let file = header ^ String.concat "" (Array.to_list framed) in
    let oc = open_out_bin path in
    output_string oc file;
    close_out oc;
    match Store.read_all path with
    | exception e ->
      fail "store corruption: block %d of %d made Store.fold raise %s" j nblocks
        (Printexc.to_string e)
    | got, sc ->
      let before l = List.filteri (fun i _ -> i < block_rows * j) l in
      if sc.Store.sc_blocks < j || before got <> before rows then
        fail "store corruption: damaged block %d lost the blocks before it" j;
      if sc.Store.sc_blocks = j then incr rejected
  done;
  Sys.remove path;
  !rejected

let () =
  let t0 = Unix.gettimeofday () in
  let rng = Rng.create ~seed:0xF177EDL in
  let counts = Fuzz.fresh_counts () in

  (* 1. canonical streams *)
  expect_clean "p4 roundtrip violation"
    (Fuzz.fuzz_cisc_streams ~rng ~count:2_200 ~len:16 counts);
  expect_clean "g4 roundtrip violation"
    (Fuzz.fuzz_risc_streams ~rng ~count:2_200 ~len:16 counts);

  (* 2. corrupted streams *)
  expect_clean "p4 robustness violation"
    (Fuzz.fuzz_cisc_robust ~rng ~count:600 ~len:16 counts);
  expect_clean "g4 robustness violation"
    (Fuzz.fuzz_risc_robust ~rng ~count:600 ~len:16 counts);

  (* 3. differential fault trials *)
  expect_clean "differential divergence"
    (Fuzz.fuzz_diff ~rng ~specs:13 ~injections:8 ~step_budget:120_000 counts);
  if counts.Fuzz.c_fault_trials < 100 then
    fail "only %d differential fault trials ran (want >= 100)"
      counts.Fuzz.c_fault_trials;

  (* 4. planted decoder bug: catch, shrink, persist, replay *)
  let buggy ~fetch pc =
    let d = Ferrite_cisc.Decode.decode ~fetch pc in
    match d.CI.insn with
    | CI.Jcc (CI.L, rel) -> { d with CI.insn = CI.Jcc (CI.GE, rel) }
    | _ -> d
  in
  (match
     Fuzz.fuzz_cisc_streams ~decode:buggy ~rng:(Rng.create ~seed:0xB06DL)
       ~count:20_000 ~len:16 (Fuzz.fresh_counts ())
   with
  | None -> fail "planted decoder bug (Jcc L -> GE) was not caught"
  | Some f ->
    if f.Fuzz.f_units > 3 then
      fail "planted bug shrunk to %d instructions (want <= 3)" f.Fuzz.f_units;
    let dir = Filename.concat (Filename.get_temp_dir_name ()) "ferrite-fuzz-smoke" in
    let path = Repro.save ~dir f.Fuzz.f_repro in
    (match Repro.load path with
    | Error e -> fail "written repro %s does not load: %s" path e
    | Ok r ->
      let bytes =
        match r with
        | Repro.Stream { bytes; _ } -> bytes
        | Repro.Fault _ -> fail "planted decoder bug produced a fault repro"
      in
      (match Oracle.check_cisc_stream ~decode:buggy bytes with
      | Ok () -> fail "shrunk repro no longer reproduces under the planted bug"
      | Error _ -> ());
      (match Repro.replay r with
      | Ok () -> ()
      | Error e -> fail "production decoder fails the shrunk repro: %s" e));
    Sys.remove path);

  (* 5. store corruption *)
  let store_rejected = store_corruption ~rng ~count:2_000 in

  (* 6. committed repros stay fixed *)
  let repro_dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "../repro" in
  let committed = Repro.load_dir repro_dir in
  List.iter
    (fun (path, r) ->
      match r with
      | Error e -> fail "%s: unreadable repro: %s" path e
      | Ok r -> (
        match Repro.replay r with
        | Ok () -> ()
        | Error e -> fail "%s: historical find regressed: %s" path e))
    committed;

  Printf.printf
    "fuzz-smoke: %s; 2000 damaged store blocks (%d rejected, none raised); %d committed repros \
     replayed; %.1fs\n"
    (Fuzz.render_counts counts) store_rejected (List.length committed)
    (Unix.gettimeofday () -. t0)
