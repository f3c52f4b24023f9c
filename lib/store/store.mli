(** Compact columnar on-disk result store.

    One file holds the per-trial results of one or more campaigns as columnar
    blocks: each block carries a row count and one column at a time (varint
    ints, zigzag option-ints, per-block string dictionaries), each block one
    {!Ferrite_iofault.Frame}, the framing the journal and the fabric wire
    share. Blocks are self-contained, so a store can be appended to across
    sessions and a torn tail (crash mid-append) loses at most the final
    partial block.

    Rows are deliberately plain strings and ints — the store knows nothing of
    the injection layer's types, so the format is stable and the library has
    no dependencies. [Ferrite_injection.Result_store] maps
    {!Ferrite_injection.Outcome.record} + {!Ferrite_injection.Crash_dump.t}
    to rows and back. *)

type row = {
  r_index : int;  (** trial index within its campaign *)
  r_arch : string;  (** ["cisc"] or ["risc"] *)
  r_kind : string;  (** ["stack"], ["register"], ["data"], ["code"] *)
  r_model : string;  (** fault-model tag *)
  r_outcome : string;  (** {!Ferrite_injection.Outcome.outcome_label} *)
  r_activated : bool;
  r_activation_cycle : int option;
  r_cause : string option;  (** crash-cause label, for known crashes *)
  r_latency : int option;  (** cycles-to-crash, for known crashes *)
  r_pc : int option;  (** faulting PC from the crash dump *)
  r_function : string option;  (** symbolised faulting function *)
  r_triage : string option;  (** {!Ferrite_injection.Triage.tag} bucket *)
}

exception Not_a_store of string
(** Raised when a file lacks the store magic or has an unknown version. A
    torn tail is {e not} an error — readers stop at the first bad frame. *)

(** {2 Writing}

    {b Concurrency contract.} A writer flushes each columnar block as a
    single [write] to an [O_APPEND] descriptor, and POSIX appends are atomic
    with respect to the file offset — so multiple processes appending to one
    store concurrently interleave {e whole blocks}, never spliced bytes, and
    every row survives exactly once. Cross-process row order is whatever the
    kernel serialized (readers that care sort by [r_index]). What is {e not}
    supported is sharing one [writer] value between threads without a lock
    (its row buffer is unsynchronized), or calling {!create}/{!open_append}'s
    truncation concurrently with live appenders. *)

type writer

val create : ?block_rows:int -> string -> writer
(** [create path] starts a fresh store (an existing file is replaced).
    [block_rows] (default 4096) bounds rows per columnar block — smaller
    blocks flush more often (tests use tiny blocks to exercise framing). *)

val open_append : ?block_rows:int -> string -> writer
(** Append to an existing store: the header is validated
    ({!Not_a_store} on mismatch), any torn tail is truncated away, and new
    blocks continue after the last valid one. A missing file degrades to
    {!create}. *)

val append : writer -> row -> unit
(** Buffer one row; flushes a columnar block every [block_rows] rows. *)

val close : writer -> unit
(** Flush the final partial block and close the file. *)

val rows_written : writer -> int
(** Rows accepted so far (including rows already in the file when the writer
    was opened with {!open_append}, rows still buffered, and — in the
    degraded mode below — rows counted but not persisted). *)

val degraded : writer -> bool
(** The writer hit ENOSPC/EIO and stopped persisting. The campaign keeps
    running; the on-disk prefix stays a valid, scannable store. *)

val rows_dropped : writer -> int
(** Rows accepted after degradation (counted, not persisted). *)

(** {2 Reading} *)

type scan = {
  sc_rows : int;  (** decoded rows *)
  sc_blocks : int;  (** valid blocks *)
  sc_bytes : int;  (** header + valid blocks, i.e. the recoverable prefix *)
  sc_truncated_bytes : int;  (** torn tail ignored by the reader *)
}

val fold : string -> ('a -> row -> 'a) -> 'a -> 'a * scan
(** Stream every row of the store through [f] in file order (campaign order:
    writers emit rows in merged trial order). Stops at the first truncated,
    CRC-damaged or undecodable frame; the scan reports what was read and
    what was dropped. Never raises on a corrupted block: a count or length
    larger than its payload ends the walk there.
    Memory is bounded by one block, not the file. *)

val iter : string -> (row -> unit) -> unit
val scan : string -> scan
val read_all : string -> row list * scan
