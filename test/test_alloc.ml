(* Allocation budget of the simulated instruction. Most of a campaign's time
   is spent executing simulated instructions, so the per-instruction paths
   (decode, execute, load/store with watchpoint checks) must not allocate:
   every minor word there is paid on every instruction of every trial. The
   counts are deterministic for a given toolchain, so they are gated here
   rather than through host timings. *)

open Ferrite_kernel
module Image = Ferrite_kir.Image
module Debug_regs = Ferrite_machine.Debug_regs

let words_of f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* A no-hit access, armed or not, allocates nothing; only a hit builds its
   report. *)
let test_check_data_no_hit () =
  let calls = 10_000 in
  let probe dr () =
    for i = 1 to calls do
      ignore (Sys.opaque_identity (Debug_regs.check_data dr ~addr:(i * 4) ~len:4 ~is_write:false))
    done
  in
  let dr = Debug_regs.create () in
  Alcotest.(check (float 0.0)) "no watchpoint armed: words over 10k accesses" 0.0
    (words_of (probe dr));
  Debug_regs.set_data_bp dr ~addr:0xC0800000 ~len:4;
  Alcotest.(check (float 0.0)) "one watchpoint armed: words over 10k accesses" 0.0
    (words_of (probe dr));
  Alcotest.(check bool)
    "the armed watchpoint still hits" true
    (Debug_regs.check_data dr ~addr:0xC0800002 ~len:2 ~is_write:true <> None)

(* The post-boot kernel through [System.run], as a trial runs it after the
   executor's prewarm. *)
let insns = 1_000_000

let test_run_budget arch () =
  let sys = Boot.boot arch in
  System.prewarm sys;
  let counters = System.counters sys in
  let i0 = counters.Ferrite_machine.Counters.instructions in
  let words =
    words_of (fun () ->
        while counters.Ferrite_machine.Counters.instructions - i0 < insns do
          ignore (System.run sys ~max_steps:(insns - (counters.instructions - i0)))
        done)
  in
  let per_insn = words /. float_of_int (counters.instructions - i0) in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.3f minor words per instruction <= 1" (System.arch_name sys) per_insn)
    true (per_insn <= 1.0)

let () =
  Alcotest.run "ferrite_alloc"
    [
      ( "allocation budget",
        [
          Alcotest.test_case "check_data no-hit path" `Quick test_check_data_no_hit;
          Alcotest.test_case "P4 post-boot run" `Quick (test_run_budget Image.Cisc);
          Alcotest.test_case "G4 post-boot run" `Quick (test_run_budget Image.Risc);
        ] );
    ]
