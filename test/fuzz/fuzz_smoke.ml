(* @fuzz-smoke: the seconds-scale conformance gate wired into @ci.

   Four stages:
   1. canonical-stream roundtrip fuzz, >= 2,000 generated streams per ISA;
   2. corrupted-stream robustness fuzz (decoder totality + canonicalisation);
   3. >= 100 differential fault trials, fast paths on vs off (reference);
   4. an artificially planted decoder bug (Jcc L decoded as Jcc GE) must be
      caught, shrunk to a <= 3-instruction reproducer, written as a repro
      file, and that file must fail under the planted bug while passing under
      the production decoder.

   Finally every committed repro under test/repro/ is replayed, so historical
   fuzz finds stay fixed. *)

open Ferrite_check
module Rng = Ferrite_machine.Rng
module CI = Ferrite_cisc.Insn

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("fuzz-smoke: " ^ s); exit 1) fmt

let expect_clean what = function
  | None -> ()
  | Some (f : Fuzz.find) -> fail "%s: %s" what f.Fuzz.f_msg

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

  (* 5. committed repros stay fixed *)
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

  Printf.printf "fuzz-smoke: %s; %d committed repros replayed; %.1fs\n"
    (Fuzz.render_counts counts) (List.length committed) (Unix.gettimeofday () -. t0)
