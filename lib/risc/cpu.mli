(** The G4-like CPU: state, interpreter and supervisor-register model.

    Mirrors {!Ferrite_cisc.Cpu} for the PowerPC side: 32 GPRs, LR/CTR/CR/XER,
    MSR, and a 99-entry supervisor SPR file matching the paper's G4 campaign
    (§5.2), of which only ~15 registers can actually crash the kernel:
    MSR (IR/DR translation bits → machine check), SRR0/SRR1 (used by RFI),
    SPRG2 = SPR274 (kernel stack switch), SDR1 and the BAT0/segment registers
    (translation), and HID0 = SPR1008 (branch-target instruction cache). *)

type dentry
(** A decode-cache slot (see {!decode_cache_stats}); validated against the
    backing page's generation counter so stores, pokes and injected bit flips
    evict. *)

type sblock
(** A superblock: a straight-line instruction run flattened into parallel
    micro-op arrays and executed by {!run} with no per-step dispatch.
    Validated by the same page-generation scheme as the decode cache. *)

type t = {
  mem : Ferrite_machine.Memory.t;
  gpr : int array;  (** 32 general-purpose registers; r1 = stack pointer *)
  mutable pc : int;
  mutable lr : int;
  mutable ctr : int;
  mutable cr : int;
  mutable xer : int;
  mutable msr : int;
  sprs : int array;  (** indexed by SPR number *)
  sr : int array;  (** 16 segment registers *)
  sr_poisoned : bool array;
  dr : Ferrite_machine.Debug_regs.t;
  counters : Ferrite_machine.Counters.t;
  stop_addr : int;
  mutable translation_broken : bool;
  mutable bat_poisoned : bool;
  mutable sdr1_poisoned : bool;
  mutable btic_poisoned : bool;
  mutable last_indirect_target : int;
  mutable pending_hit : Ferrite_machine.Debug_regs.data_hit option;
  mutable stopped : bool;
  mutable last_store_addr : int;
  dcache : dentry array;  (** PC-keyed decode cache *)
  dc_enabled : bool;
      (** captured from [Memory.fast_paths] at {!create}; [false] forces the
          uncached fetch+decode path (differential testing) *)
  mutable dc_hits : int;
  mutable dc_misses : int;
  mutable dc_streak : int;
      (** consecutive decode-cache misses; long streaks bypass insertion *)
  mutable dc_revalidated : int;  (** cache hits revalidated by word compare *)
  mutable last_cost : int;
      (** cycle cost of the instruction the last decode returned *)
  sbcache : sblock array;  (** PC-keyed superblock cache *)
  mutable sb_enabled : bool;
      (** captured from [Memory.superblocks] at {!create}; [false] makes
          {!run} take the precise per-step path for every instruction *)
  mutable sb_hits : int;
  mutable sb_blocks : int;
  mutable sb_insns : int;
  mutable sb_fallbacks : int;
  mutable dc_warm_hits : int;
  mutable prewarmed : int;
  mutable warming : bool;
}

val decode_cache_stats : t -> int * int
(** [(hits, misses)] of the decode cache — monotonic diagnostics, excluded
    from {!snapshot}/{!restore}. *)

val decode_service_stats : t -> int * int
(** [(memo_hits, revalidated)]: always [0] memo hits (the fixed-width
    decoder keeps no memo) and the cache hits whose stale generation was
    revalidated by word compare (counted among the hits). *)

(** MSR bit masks (standard PowerPC encodings). *)

val msr_ee : int
val msr_pr : int
val msr_me : int
val msr_ir : int
val msr_dr : int

(** Well-known SPR numbers used by the harness and the kernel stubs. *)

val spr_srr0 : int
val spr_srr1 : int
val spr_sprg0 : int
val spr_sprg2 : int
val spr_hid0 : int
val spr_sdr1 : int

val create : mem:Ferrite_machine.Memory.t -> stop_addr:int -> t

val cr_field : t -> int -> int
(** [cr_field t n] reads 4-bit condition field [n] (0 = CR0). *)

type step_result =
  | Retired
  | Halted  (** the idle loop's wait instruction with EE set *)
  | Hit_ibp
  | Hit_dbp of Ferrite_machine.Debug_regs.data_hit
  | Stopped  (** control returned to the harness (BLR/RFI to the stop address) *)
  | Faulted of Exn.t

val step : ?skip_ibp:bool -> t -> step_result

val run : t -> max_steps:int -> int * step_result
(** [run t ~max_steps] executes up to [max_steps] instructions, using cached
    superblocks (built on demand) for straight-line code and falling back to
    the precise {!step} whenever translated execution could not reproduce its
    observable semantics: armed execute breakpoints, poisoned address
    translation, misaligned pc, or a terminator instruction ([sc]/[rfi]/
    [mtspr]/[mtmsr]). Returns [(n, r)] where [n] is the number of cleanly
    retired instructions and [r] the first event ([Retired] when the budget
    ran out). For [Hit_dbp]/[Stopped] the event-carrying instruction has
    retired (counters include it) but is excluded from [n]; for [Faulted]
    the exception has been delivered exactly as {!step} would. Observable
    behaviour is bit-identical to calling {!step} [in a loop]; only the
    diagnostic cache counters differ. *)

val prewarm : t -> (int * int) list -> unit
(** [prewarm t funcs] pre-decodes the given [(addr, size)] code ranges into
    the decode cache and builds superblocks at likely entry points (function
    starts, branch targets, fall-throughs of block enders), so a campaign's
    first trials do not pay the cold-miss tail. Touches only caches and
    diagnostic counters; architectural state is unaffected. No-op when the
    decode cache is disabled. *)

val superblock_stats : t -> int * int * int * int
(** [(hits, blocks_built, insns_retired_in_blocks, fallbacks)] — monotonic
    diagnostics, excluded from {!snapshot}/{!restore}. *)

val decode_warm_stats : t -> int * int
(** [(warm_hits, prewarmed_entries)] of the decode/superblock pre-warm. *)

type sysreg = {
  sr_name : string;
  sr_bits : int;
  sr_get : t -> int;
  sr_set : t -> int -> unit;
}

val system_registers : sysreg array
(** The 99 supervisor-model injection targets of the G4 campaign. *)

val exception_dispatch_cycles : int

type snapshot
(** Immutable copy of all architectural and harness-visible CPU state
    (registers, SPRs, counters, armed breakpoints, poison flags). Memory is
    snapshotted separately by {!Ferrite_machine.Memory.snapshot}. *)

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit
(** [restore t s] rolls every mutable field back to the captured values; used
    with a post-boot snapshot it is a cheap logical reboot. *)

(** {2 Cycle confirmation}

    Support for the engine's exact cutting of closed livelocks. *)

val hint_size : int

val save_hint : t -> int array -> unit
(** [save_hint t h] stores pc, the general registers, lr, ctr and cr into
    [h] (of length {!hint_size}). *)

val hint_matches : t -> int array -> bool
(** Whether the live pc, general registers, lr, ctr and cr equal a saved
    hint. *)

val same_state : snapshot -> snapshot -> bool
(** Whether two snapshots agree on everything but the cycle and instruction
    counters: registers, SPRs, segment and debug registers, pending
    watchpoint hit, poison and stop flags. *)
