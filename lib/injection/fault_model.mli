(** The fault-model algebra: what kind of corruption an injection lands.

    The paper injects exactly one model — a single-bit transient flip — and
    the original engine hard-coded it. This module makes the model a
    first-class value so the same arm→activate→classify automaton (§3.2) can
    drive multi-bit upsets, stuck-at and intermittent faults (the CHAOS
    taxonomy), and structure faults against the machine's address-translation
    and decode caches. {!Single_bit_transient} reproduces the legacy
    behaviour bit-for-bit: same RNG draws, same events, same records. *)

type t =
  | Single_bit_transient  (** the paper's model; the legacy engine, exactly *)
  | Multi_bit of { width : int }
      (** [width] distinct bits of the target word/instruction/register
          flipped at once (an MBU); extra bit positions are drawn from the
          trial's fault stream *)
  | Burst of { span : int }
      (** [span] adjacent bits starting at the target bit, clamped to the
          word — models a burst upset along physically adjacent cells *)
  | Stuck_at of { value : int }
      (** the target bit is forced to [value] (0 or 1) and re-asserted
          whenever the workload overwrites it — for registers, re-forced at
          every engine tick — until the logical reboot ends the trial *)
  | Intermittent of { period : int; duty : int; seed : int64 }
      (** the corruption is present for [duty] of every [period] engine
          ticks, with a phase derived from [seed] and the trial's fault
          seed; while dormant the target reads clean and watchpoint hits do
          not activate the error *)
  | Tlb_entry
      (** structure fault: the page containing the target swaps contents
          with a mapped partner page (address differing in one page-number
          bit) — a corrupted translation entry. Degrades to a single-bit
          flip when no partner page is mapped, and for register targets. *)
  | Decode_cache_line
      (** structure fault: the same bit position flips in each of the four
          words of the 16-byte line containing the target — a corrupted
          decode-cache line replayed across the line. Degrades to a
          single-bit flip for register targets. *)

val validated : t -> t
(** Raises [Invalid_argument] on nonsense parameters: [width]/[span] outside
    1–32, [value] not 0/1, [period] < 1 or [duty] outside 1–[period]. *)

val tag : t -> string
(** Stable machine-readable tag, e.g. ["single_bit"], ["multi:3"],
    ["stuck:1"], ["tlb"]. Used in collector statistics, report breakouts and
    BENCH dimensions; parseable back via {!of_string}. *)

val describe : t -> string
(** One-line human-readable description. *)

val of_string : string -> (t, string) result
(** Parse a model spec. Accepts the {!tag} forms plus spelled-out aliases:
    ["single-bit"]/["single_bit"]/["single"], ["multi_bit"] (width 2),
    ["multi:K"], ["burst"] (span 3), ["burst:K"], ["stuck_at"]/["stuck"]
    (value 0), ["stuck:V"]/["stuck_at:V"], ["intermittent"] (period 8, duty
    4), ["intermittent:P:D"], ["tlb"]/["tlb_entry"],
    ["decode_line"]/["decode-line"]/["decode_cache_line"]. *)

val spec_doc : string
(** Help-text summary of the accepted {!of_string} forms. *)

val sweep_models : t list
(** The canonical 4-model sweep used by the CLI matrix mode and the
    fault-matrix smoke: single-bit, multi-bit(2), stuck-at-1,
    intermittent(8,4). *)

val needs_tick : t -> Target.kind -> bool
(** Whether the engine must give the model a time base: intermittent faults
    toggle at tick boundaries for every target kind; stuck-at register
    faults are re-forced each tick (memory stuck-ats re-assert from the
    write watchpoint instead). [false] everywhere for the legacy model, so
    the legacy run loop takes no new branches. *)

(** {2 Per-trial instances}

    A model value is pure; an {!instance} is the per-trial mutable state the
    engine drives: the fault-stream RNG, the log of corruptions applied (for
    STEP-3 undo) and the intermittent presence flag. *)

type instance

val instantiate : t -> fault_seed:int64 -> instance
val model_of : instance -> t

type state
(** A copy of an instance's mutable state (fault stream position, applied
    corruptions, presence and tick count). *)

val state : instance -> state

val same_state : instance -> state -> bool
(** Whether the instance is still in the captured state. *)

(** Mechanics the engine lends the model: bit access over the target
    (arch-aware word addressing for memory, register read-modify-write for
    registers), page swapping, and the trace emitter. Addresses passed to
    [o_flip]/[o_get] are word addresses for memory targets and the register
    index for register targets. *)
type ops = {
  o_flip : int -> int -> unit;  (** flip bit [b] of the word at [a] *)
  o_get : int -> int -> int;  (** read bit [b] of the word at [a] *)
  o_swap_pages : int -> int -> unit;
  o_partner : int -> int option;
      (** a mapped partner page address for a TLB-entry swap, if any *)
  o_emit : Ferrite_trace.Event.t -> unit;
}

val apply_mem :
  instance -> ops -> space:Ferrite_trace.Event.space -> addr:int -> bit:int -> limit:int -> unit
(** Land the corruption on a memory word (STEP 2 for stack/data targets, or
    the breakpoint-hit flip for code targets with [space = Code_space]).
    [limit] bounds the bit positions the model may corrupt (32 for a memory
    word, [8 * length] for an instruction). The legacy model emits exactly
    the legacy [Flip] event; other models emit [Model_flip] per bit or
    [Structure_fault] for a page swap. *)

val apply_reg : instance -> ops -> reg:string -> index:int -> bit:int -> bits:int -> bool
(** Land the corruption on a register ([Reg_flip] events, one per bit
    position actually flipped). Structure faults degrade to single-bit.
    Returns [true] iff at least one bit actually flipped — [false] for a
    stuck-at whose bit already holds the stuck value, or an intermittent
    fault armed in a dormant phase — so the engine only counts an
    activation when corruption landed ({!on_tick} reports any later
    assertion by a persistent model). *)

val blocks_activation : instance -> bool
(** [true] while an intermittent fault is dormant: the engine must not count
    a watchpoint hit as activation, because the target reads clean. *)

val on_write_hit : instance -> ops -> addr:int -> bit:int -> unit
(** The workload overwrote the watched word (§3.3): re-assert the
    corruption per model semantics. Legacy re-injects with the legacy
    [Reinject] event; persistent models emit [Reassert]; a dormant
    intermittent fault and a completed page swap do nothing. *)

val on_tick : instance -> ops -> addr:int -> bit:int -> bool
(** Advance the model's time base (only called when {!needs_tick}):
    intermittent faults toggle presence, stuck-at register faults are
    re-forced if the workload cleared them. Returns [true] iff this tick
    asserted corruption onto the target — the engine uses it to activate a
    register fault whose {!apply_reg} was a no-op. *)

val undo : instance -> ops -> unit
(** STEP 3: the error never activated — restore every corruption in reverse
    order so the run leaves no trace ([Restore] events; a page swap is
    swapped back with a [Structure_fault] event). *)
