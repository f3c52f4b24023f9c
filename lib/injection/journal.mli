(** Append-only, CRC-framed campaign journal — the checkpoint/resume half of
    the supervision layer.

    One flushed frame per completed trial means a killed campaign can only
    leave a {e torn tail}; {!recover} walks the longest valid prefix of
    {!Ferrite_iofault.Frame}s and reports how many bytes of tail were
    discarded, and {!open_for_append} truncates that tail before appending. The header binds
    the file to one campaign plan via a jobs-independent hash, so resuming
    against a journal written by a different suite/seed/config raises
    {!Header_mismatch} instead of silently mixing campaigns.

    Writers are single-threaded: one process (the sequential trial loop or
    the fabric controller) appends. *)

exception
  Header_mismatch of {
    hm_path : string;
    hm_expected : int64;
    hm_found : int64;
  }
(** The file is a valid journal for a {e different} campaign plan. *)

exception Not_a_journal of string
(** The file exists, is at least header-sized, and does not start with the
    journal magic — almost certainly not ours to truncate. *)

val plan_hash_of_string : string -> int64
(** FNV-1a 64 of a canonical plan fingerprint (see
    {!Campaign.plan_fingerprint}). *)

val header_size : int

val frame : string -> string
(** [frame payload] is the journal's on-disk framing of one payload:
    {!Ferrite_iofault.Frame.encode}, the framing the store and the fabric
    wire share, so a fabric [Result] message {e is} a journal frame in
    flight. *)

type entry = {
  je_index : int;  (** trial index *)
  je_record : Outcome.record;
  je_stats : Collector.stats;
  je_trace : Ferrite_trace.Tracer.trial;
}
(** Everything {!Campaign.merge} needs, so a resumed campaign reproduces an
    uninterrupted run's records, collector stats, traces and telemetry
    byte for byte. *)

val encode_entry : entry -> string
(** The journal's payload encoding of one entry. The fabric's result channel
    carries exactly these bytes, so a worker's checkpoint and the
    controller's journal agree by construction. *)

val decode_entry : string -> entry option
(** Inverse of {!encode_entry}; [None] on any undecodable payload (torn). *)

type recovery = {
  rc_entries : entry list;  (** longest valid prefix, in append order *)
  rc_valid_bytes : int;
      (** end offset of the last valid frame; [header_size] for a journal with
          a valid header and no complete frame, 0 when the header itself was
          torn *)
  rc_truncated_bytes : int;  (** torn-tail bytes beyond the valid prefix *)
  rc_format : int;
      (** header version the file was written under: 1 for a pre-fault-model
          journal (entries are upgraded on decode: legacy model appended to
          each record, legacy delivery breakdown to each stats), 2 for the
          current format. 2 for missing/empty files. *)
}

val empty_recovery : recovery

val recover : path:string -> plan_hash:int64 -> recovery
(** Read-only recovery. Never raises on torn/truncated/corrupt {e tails} —
    they shorten the valid prefix — and treats a missing file as empty.
    Raises {!Header_mismatch} / {!Not_a_journal} only for a complete header
    that belongs to another campaign or another format. v1 journals (see
    [rc_format]) are decoded through compatibility types and their entries
    upgraded in place; the upgrade is exact — a v1 trial re-run under the
    legacy config produces the identical upgraded entry. *)

type writer

val open_for_append : path:string -> plan_hash:int64 -> writer * recovery
(** Recover, truncate the torn tail, and open for appending (creating the
    file and writing the header when absent or torn mid-header). The returned
    {!recovery} is what was preserved. A v1 journal is migrated in place
    first — v2 header, upgraded entries re-encoded — so appended frames are
    always v2. *)

val append : writer -> entry -> unit
(** Frame, write and flush one entry, so a kill after [append] returns never
    loses that trial. On ENOSPC/EIO the writer degrades
    ({!Ferrite_iofault.Iofault.sink_write}): the campaign keeps running and
    the on-disk prefix is still a valid, resumable journal. *)

val close : writer -> unit
