(** The fabric wire protocol: one message type, one framing, both directions.

    Every message travels as a {!Ferrite_iofault.Frame} —
    [payload_len | crc32 | payload] — so the fabric's checkpoint format {e is}
    the journal's: a {!Result} payload embeds the exact
    {!Ferrite_injection.Journal.encode_entry} bytes the in-process supervisor
    would have appended to a journal file, and a byte stream of fabric results
    torn at any point recovers exactly like a torn journal tail (longest valid
    prefix, {!decode_prefix}).

    Both ends of every link are processes forked from one controller, so a
    frame never crosses a binary image: workers inherit the campaign at
    [fork] and the wire carries only lease traffic, results and goodbyes.
    The [Marshal]'d parts ({!Result}'s crash dump, {!Bye}'s stats) are
    therefore always read by the build that wrote them.

    The codec never trusts the peer: {!decode_prefix} never raises on torn or
    corrupt input, and the incremental {!decoder} used on live links raises
    {!Corrupt} only for a {e complete} frame whose payload is undecodable —
    which on a TCP-like stream socket means a peer bug, not a torn tail. *)

module Journal = Ferrite_injection.Journal
module Crash_dump = Ferrite_injection.Crash_dump

(** {2 Messages} *)

type wire_chaos = {
  wc_drop : float;  (** per-message loss probability *)
  wc_dup : float;  (** duplication probability *)
  wc_reorder : float;  (** hold-one-back swap probability *)
}
(** Seeded message-level chaos applied by {!Link} senders — the fabric
    analogue of the collector's lossy UDP channel. *)

val validated_chaos : wire_chaos -> wire_chaos
(** Raises [Invalid_argument] unless each rate is in [0, 1] and they sum to
    at most 1. *)

type bye_stats = {
  by_reboots : int;  (** the worker's boot count (diagnostic) *)
  by_cache : Ferrite_machine.Cache_stats.t;
  by_retransmitted : int;  (** result frames re-sent beyond the first *)
  by_leases : int;  (** leases the worker completed *)
}
(** A worker's parting diagnostics. Lost with the worker when it is killed —
    like [reboots]/[cache] of a sequential run, these never feed records or
    telemetry. *)

type msg =
  | Lease_request of { lr_worker : int }
      (** worker → controller: I am idle, grant me a chunk (idempotent —
          resent on timeout, deduplicated by the controller) *)
  | Lease_grant of { lg_lease : int; lg_lo : int; lg_hi : int }
      (** controller → worker: run trials [lg_lo, lg_hi) under lease
          [lg_lease] (workers deduplicate by lease id) *)
  | Steal of { st_lease : int }
      (** controller → victim: another worker is idle — return the unstarted
          tail of lease [st_lease] *)
  | Steal_return of { sr_lease : int; sr_lo : int; sr_hi : int }
      (** victim → controller: [sr_lo, sr_hi) of the lease is yours to
          reassign (empty range = nothing to give) *)
  | Result of {
      rs_seq : int;  (** per-worker sequence number, echoed by {!Ack} *)
      rs_index : int;  (** trial index — the controller's dedup key *)
      rs_retries : int;
          (** failed attempts the worker's supervisor retried before this
              result (the in-process supervisor's [sup_retries] share of
              this trial) *)
      rs_entry : Journal.entry;
      rs_dump : Crash_dump.t option;
          (** crash dumps ride alongside the journal entry: the journal's
              on-disk format predates dumps, but the result store needs them,
              so the wire carries what the file format cannot *)
    }  (** worker → controller, retransmitted unboundedly until acked *)
  | Ack of { ak_seq : int }  (** controller → worker, per received {!Result} *)
  | Heartbeat of { hb_worker : int }
      (** worker → controller: I am alive and making progress. Sent on a
          timer between trials; a worker silent past the controller's
          heartbeat deadline is declared {e hung} and treated exactly like a
          dead one (leases reclaimed, trials re-granted), even if the
          process still exists — a spin-looped worker must not stall the
          campaign. *)
  | Bye of { bye_stats : bye_stats option }
      (** orderly shutdown. Controller → worker carries [None] (campaign
          drained); worker → controller carries [Some] diagnostics. *)

val chaos_eligible : msg -> bool
(** Messages the chaos {!Link} may drop/duplicate/reorder: lease, steal,
    result, ack and heartbeat traffic — everything the retry protocol is
    built to survive. {!Bye} is exempt: nothing re-sends it, and a worker
    that dies instead of saying [Bye] is already covered by the lease-expiry
    path. *)

(** {2 Codec} *)

val encode_payload : msg -> string
(** Unframed payload: a tag byte plus the message body. *)

val decode_payload : string -> msg option
(** Inverse of {!encode_payload}; [None] on any undecodable payload. *)

val encode : msg -> string
(** [Frame.encode (encode_payload m)] — the bytes that go on the wire. *)

val decode_prefix : string -> msg list * int
(** [decode_prefix bytes] walks the longest valid prefix of framed messages
    and returns them with the number of bytes consumed. Never raises: a torn
    frame, a CRC mismatch or an undecodable payload stops the walk exactly
    like journal recovery stops at a torn tail. *)

(** {2 Incremental decoding (live links)} *)

exception Corrupt of string
(** A complete frame arrived whose CRC or payload is invalid. On a stream
    socket this cannot be a torn tail — it is a peer speaking a different
    protocol, and the connection must be treated as dead. *)

type decoder

val decoder : unit -> decoder

val feed : decoder -> bytes -> int -> unit
(** [feed d buf n] appends the first [n] bytes of [buf] to the decoder. *)

val next : decoder -> msg option
(** The next complete message, if one is buffered. Raises {!Corrupt} for a
    complete-but-invalid frame. *)
