(** Simulated CPU debug facilities.

    Models the debug-register mechanism the paper's injector relies on (§3.3):

    - {e instruction breakpoints} are reported {b before} the instruction at
      the armed address executes (x86 DR0–DR3 execute breakpoints, PPC IABR);
    - {e data breakpoints} are reported {b after} a load/store touching the
      watched range completes (x86 data breakpoints, PPC DABR).

    Four slots of each kind are provided, as on IA-32. *)

type t

type data_hit = { addr : int  (** watched address *); is_write : bool }

val create : unit -> t

val set_instruction_bp : t -> int -> unit
(** Arm an instruction breakpoint; raises [Invalid_argument] when all four
    slots are armed. *)

val set_data_bp : t -> addr:int -> len:int -> unit
(** Arm a data watchpoint over [\[addr, addr+len)] for both reads and writes.
    [len] must be 1, 2 or 4. *)

val clear_all : t -> unit

type snapshot
(** Immutable copy of the armed breakpoint set. *)

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit

val armed_count : t -> int

val exec_armed : t -> bool
(** Whether any {e instruction} breakpoint is armed. The superblock engine
    consults this before entering translated execution: armed execute
    breakpoints force the precise per-step interpreter (data watchpoints do
    not — they are checked inside the load/store helpers either way). *)

val check_exec : t -> int -> bool
(** [check_exec t pc] is [true] when an instruction breakpoint is armed at
    [pc]. The CPU consults this before executing each instruction. *)

val check_data : t -> addr:int -> len:int -> is_write:bool -> data_hit option
(** [check_data t ~addr ~len ~is_write] reports a hit when the access range
    [\[addr, addr+len)] overlaps an armed watchpoint. The CPU consults this
    after each data access, so a miss allocates nothing. *)
