(* The fault-model algebra.

   A model is a pure value describing what kind of corruption lands; an
   instance is the per-trial mutable state (fault-stream RNG, applied-bit
   log, intermittent presence). The engine supplies mechanics through [ops]
   closures — arch-aware word-bit access for memory targets, register
   read-modify-write for register targets — so this module never touches the
   machine directly and the legacy single-bit path stays byte-identical:
   same RNG draws, same events in the same order. *)

open Ferrite_machine
module Event = Ferrite_trace.Event

type t =
  | Single_bit_transient
  | Multi_bit of { width : int }
  | Burst of { span : int }
  | Stuck_at of { value : int }
  | Intermittent of { period : int; duty : int; seed : int64 }
  | Tlb_entry
  | Decode_cache_line

let validated t =
  (match t with
  | Single_bit_transient | Tlb_entry | Decode_cache_line -> ()
  | Multi_bit { width } ->
    if width < 1 || width > 32 then
      invalid_arg "Fault_model: multi-bit width must be in 1..32"
  | Burst { span } ->
    if span < 1 || span > 32 then invalid_arg "Fault_model: burst span must be in 1..32"
  | Stuck_at { value } ->
    if value <> 0 && value <> 1 then invalid_arg "Fault_model: stuck-at value must be 0 or 1"
  | Intermittent { period; duty; _ } ->
    if period < 1 then invalid_arg "Fault_model: intermittent period must be positive";
    if duty < 1 || duty > period then
      invalid_arg "Fault_model: intermittent duty must be in 1..period");
  t

let tag = function
  | Single_bit_transient -> "single_bit"
  | Multi_bit { width } -> Printf.sprintf "multi:%d" width
  | Burst { span } -> Printf.sprintf "burst:%d" span
  | Stuck_at { value } -> Printf.sprintf "stuck:%d" value
  | Intermittent { period; duty; _ } -> Printf.sprintf "intermittent:%d:%d" period duty
  | Tlb_entry -> "tlb"
  | Decode_cache_line -> "decode_line"

let describe = function
  | Single_bit_transient -> "single-bit transient"
  | Multi_bit { width } -> Printf.sprintf "multi-bit upset (width %d)" width
  | Burst { span } -> Printf.sprintf "burst upset (span %d)" span
  | Stuck_at { value } -> Printf.sprintf "stuck-at-%d" value
  | Intermittent { period; duty; _ } ->
    Printf.sprintf "intermittent (present %d of every %d ticks)" duty period
  | Tlb_entry -> "TLB-entry page swap"
  | Decode_cache_line -> "decode-cache line corruption"

let of_string s =
  let fail () = Error (Printf.sprintf "unknown fault model %S" s) in
  let int_of x = int_of_string_opt (String.trim x) in
  match String.split_on_char ':' (String.lowercase_ascii (String.trim s)) with
  | [ ("single_bit" | "single-bit" | "single") ] -> Ok Single_bit_transient
  | [ ("multi_bit" | "multi-bit" | "multi") ] -> Ok (Multi_bit { width = 2 })
  | [ ("multi_bit" | "multi-bit" | "multi"); k ] -> (
    match int_of k with
    | Some width when width >= 1 && width <= 32 -> Ok (Multi_bit { width })
    | _ -> fail ())
  | [ "burst" ] -> Ok (Burst { span = 3 })
  | [ "burst"; k ] -> (
    match int_of k with
    | Some span when span >= 1 && span <= 32 -> Ok (Burst { span })
    | _ -> fail ())
  | [ ("stuck_at" | "stuck-at" | "stuck") ] -> Ok (Stuck_at { value = 0 })
  | [ ("stuck_at" | "stuck-at" | "stuck"); v ] -> (
    match int_of v with
    | Some value when value = 0 || value = 1 -> Ok (Stuck_at { value })
    | _ -> fail ())
  | [ "intermittent" ] -> Ok (Intermittent { period = 8; duty = 4; seed = 0L })
  | [ "intermittent"; p; d ] -> (
    match (int_of p, int_of d) with
    | Some period, Some duty when period >= 1 && duty >= 1 && duty <= period ->
      Ok (Intermittent { period; duty; seed = 0L })
    | _ -> fail ())
  | [ ("tlb" | "tlb_entry" | "tlb-entry") ] -> Ok Tlb_entry
  | [ ("decode_line" | "decode-line" | "decode_cache_line" | "decode-cache-line") ] ->
    Ok Decode_cache_line
  | _ -> fail ()

let spec_doc =
  "single_bit | multi[:WIDTH] | burst[:SPAN] | stuck_at[:0|1] | intermittent[:PERIOD:DUTY] | \
   tlb | decode_line"

let sweep_models =
  [
    Single_bit_transient;
    Multi_bit { width = 2 };
    Stuck_at { value = 1 };
    Intermittent { period = 8; duty = 4; seed = 0L };
  ]

let needs_tick t (kind : Target.kind) =
  match (t, kind) with
  | Intermittent _, _ -> true
  | Stuck_at _, Target.Register -> true
  | _ -> false

(* ---- per-trial instances ---------------------------------------------- *)

type applied = Mem_bit of { addr : int; bit : int } | Page_swap of { a : int; b : int }

type instance = {
  i_model : t;
  i_rng : Rng.t;  (* extra bit positions for multi-bit upsets *)
  mutable i_applied : applied list;  (* reverse order of application *)
  mutable i_present : bool;  (* intermittent: corruption currently asserted *)
  mutable i_armed : bool;  (* has apply_* run yet *)
  mutable i_ticks : int;
  i_phase : int;  (* intermittent phase offset *)
}

let instantiate model ~fault_seed =
  let model = validated model in
  let phase =
    match model with
    | Intermittent { seed; _ } ->
      Int64.to_int (Int64.logxor seed fault_seed) land 0x3FFFFFFF
    | _ -> 0
  in
  {
    i_model = model;
    i_rng = Rng.create ~seed:fault_seed;
    i_applied = [];
    i_present = false;
    i_armed = false;
    i_ticks = 0;
    i_phase = phase;
  }

let model_of inst = inst.i_model

type state = instance

let state inst = { inst with i_rng = Rng.copy inst.i_rng }

let same_state inst s = state inst = s

type ops = {
  o_flip : int -> int -> unit;
  o_get : int -> int -> int;
  o_swap_pages : int -> int -> unit;
  o_partner : int -> int option;
  o_emit : Event.t -> unit;
}

(* Bit positions a width/span model corrupts, always including the drawn
   target bit first. Extra multi-bit positions come from the instance's
   fault stream, so they are deterministic in the trial's fault seed. *)
let positions inst ~bit ~limit =
  match inst.i_model with
  | Multi_bit { width } ->
    let want = min width limit in
    let rec draw acc n =
      if n >= want then List.rev acc
      else
        let b = Rng.int inst.i_rng limit in
        if List.mem b acc then draw acc n else draw (b :: acc) (n + 1)
    in
    draw [ bit ] 1
  | Burst { span } -> List.init (min span (limit - bit)) (fun i -> bit + i)
  | _ -> [ bit ]

let log_bit inst ~addr ~bit = inst.i_applied <- Mem_bit { addr; bit } :: inst.i_applied

(* Whether an intermittent fault's duty cycle says the corruption is present
   in the current tick window — the same predicate [on_tick] uses, evaluated
   at arm time so short trials honour the phase too. *)
let intermittent_present_now inst =
  match inst.i_model with
  | Intermittent { period; duty; _ } -> (inst.i_ticks + inst.i_phase) mod period < duty
  | _ -> true

(* Flip one bit as part of a non-legacy model, with the model-tagged event. *)
let model_flip inst ops ~space ~addr ~bit =
  ops.o_flip addr bit;
  ops.o_emit (Event.Model_flip { model = tag inst.i_model; space; addr; bit });
  log_bit inst ~addr ~bit

let apply_mem inst ops ~space ~addr ~bit ~limit =
  inst.i_armed <- true;
  (match inst.i_model with
  | Single_bit_transient ->
    (* exactly the legacy arm: one flip, one legacy [Flip] event *)
    ops.o_flip addr bit;
    ops.o_emit (Event.Flip { space; addr; bit });
    log_bit inst ~addr ~bit
  | Multi_bit _ | Burst _ ->
    List.iter (fun b -> model_flip inst ops ~space ~addr ~bit:b) (positions inst ~bit ~limit)
  | Stuck_at { value } ->
    (* force the bit; log only a real change so STEP-3 undo is exact *)
    if ops.o_get addr bit <> value then begin
      ops.o_flip addr bit;
      log_bit inst ~addr ~bit
    end;
    ops.o_emit (Event.Model_flip { model = tag inst.i_model; space; addr; bit })
  | Intermittent _ ->
    (* honour the phase at arm time: a dormant phase leaves the target clean
       (and [blocks_activation] true) until [on_tick] asserts it *)
    if intermittent_present_now inst then begin
      inst.i_present <- true;
      model_flip inst ops ~space ~addr ~bit
    end
  | Tlb_entry -> (
    match ops.o_partner addr with
    | Some partner ->
      ops.o_swap_pages addr partner;
      ops.o_emit (Event.Structure_fault { model = tag inst.i_model; addr; partner });
      inst.i_applied <- Page_swap { a = addr; b = partner } :: inst.i_applied
    | None ->
      (* no mapped partner page: degrade to a single-bit flip *)
      model_flip inst ops ~space ~addr ~bit)
  | Decode_cache_line ->
    (* the same bit position replayed across the four words of the
       16-byte line containing the target *)
    let line = addr land lnot 15 in
    let b = bit land 31 in
    List.iter
      (fun i -> model_flip inst ops ~space ~addr:(line + (4 * i)) ~bit:b)
      [ 0; 1; 2; 3 ])

let apply_reg inst ops ~reg ~index ~bit ~bits =
  inst.i_armed <- true;
  let flip b =
    ops.o_flip index b;
    ops.o_emit (Event.Reg_flip { reg; bit = b });
    log_bit inst ~addr:index ~bit:b
  in
  match inst.i_model with
  | Single_bit_transient | Tlb_entry | Decode_cache_line ->
    (* structure faults have no register analogue: degrade to single-bit *)
    flip bit;
    true
  | Multi_bit _ | Burst _ ->
    List.iter flip (positions inst ~bit ~limit:bits);
    true
  | Stuck_at { value } ->
    (* no flip when the bit already holds the stuck value: nothing corrupted
       yet, so the caller must not count an activation ([on_tick] reports one
       if the workload later clears the bit and we re-force it) *)
    if ops.o_get index bit <> value then begin
      flip bit;
      true
    end
    else false
  | Intermittent _ ->
    if intermittent_present_now inst then begin
      inst.i_present <- true;
      flip bit;
      true
    end
    else false

let blocks_activation inst =
  match inst.i_model with Intermittent _ -> not inst.i_present | _ -> false

let on_write_hit inst ops ~addr ~bit =
  match inst.i_model with
  | Single_bit_transient ->
    ops.o_flip addr bit;
    ops.o_emit (Event.Reinject { addr; bit })
  | Multi_bit _ | Burst _ ->
    (* the overwrite clobbered the whole watched word: re-assert every bit
       the model landed in it *)
    List.iter
      (function
        | Mem_bit { addr = a; bit = b } when a = addr ->
          ops.o_flip a b;
          ops.o_emit (Event.Reassert { model = tag inst.i_model; addr = a; bit = b })
        | _ -> ())
      (List.rev inst.i_applied)
  | Stuck_at { value } ->
    if ops.o_get addr bit <> value then begin
      ops.o_flip addr bit;
      ops.o_emit (Event.Reassert { model = tag inst.i_model; addr; bit })
    end
  | Intermittent _ ->
    if inst.i_present then begin
      ops.o_flip addr bit;
      ops.o_emit (Event.Reassert { model = tag inst.i_model; addr; bit })
    end
  | Tlb_entry -> (
    (* a completed page swap is not overwritable — but the degraded
       single-bit fallback behaves like the legacy model *)
    match inst.i_applied with
    | Mem_bit _ :: _ ->
      ops.o_flip addr bit;
      ops.o_emit (Event.Reassert { model = tag inst.i_model; addr; bit })
    | _ -> ())
  | Decode_cache_line ->
    (* only the watched word is covered by the watchpoint; re-assert it *)
    ops.o_flip addr bit;
    ops.o_emit (Event.Reassert { model = tag inst.i_model; addr; bit })

let on_tick inst ops ~addr ~bit =
  match inst.i_model with
  | Intermittent { period; duty; _ } ->
    inst.i_ticks <- inst.i_ticks + 1;
    if inst.i_armed then begin
      let active = (inst.i_ticks + inst.i_phase) mod period < duty in
      if active <> inst.i_present then begin
        ops.o_flip addr bit;
        inst.i_present <- active;
        if active then begin
          ops.o_emit (Event.Reassert { model = tag inst.i_model; addr; bit });
          inst.i_applied <- [ Mem_bit { addr; bit } ];
          true
        end
        else begin
          ops.o_emit (Event.Restore { addr; bit });
          inst.i_applied <- [];
          false
        end
      end
      else false
    end
    else false
  | Stuck_at { value } ->
    if inst.i_armed && ops.o_get addr bit <> value then begin
      ops.o_flip addr bit;
      ops.o_emit (Event.Reassert { model = tag inst.i_model; addr; bit });
      true
    end
    else false
  | _ -> false

let undo inst ops =
  List.iter
    (function
      | Mem_bit { addr; bit } ->
        ops.o_flip addr bit;
        ops.o_emit (Event.Restore { addr; bit })
      | Page_swap { a; b } ->
        ops.o_swap_pages a b;
        ops.o_emit (Event.Structure_fault { model = tag inst.i_model; addr = b; partner = a }))
    inst.i_applied;
  inst.i_applied <- []
