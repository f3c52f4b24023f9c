(** The one on-disk and on-wire framing shared by the journal, the columnar
    store and the fabric wire:

    {v frame := payload_len (4, LE) | crc32(payload) (4, LE) | payload v}

    A reader walks frames from an offset and stops at the first one that is
    incomplete, longer than {!max_payload}, fails its CRC or does not decode:
    everything before that point is the longest valid prefix, everything
    after it is a torn tail. *)

val crc32 : string -> int
(** IEEE 802.3 CRC32 (reflected, polynomial [0xEDB88320]). *)

val put_u32 : Buffer.t -> int -> unit
(** Append the low 32 bits of an int, little-endian. *)

val get_u32 : string -> int -> int
(** [get_u32 s off] reads a little-endian u32 at [off]. *)

val max_payload : int
(** 64 MiB: a length field beyond this is garbage, not a frame still being
    written, and is rejected before anything is allocated for it. *)

val encode : string -> string
(** [encode payload] is the framed bytes of one payload. *)

type 'a parse =
  | Complete of 'a * int  (** the decoded payload and the offset after it *)
  | Partial  (** fewer bytes than the frame needs: wait, or a torn tail *)
  | Invalid of string  (** bad length, CRC mismatch or undecodable payload *)

val parse : (string -> 'a option) -> string -> int -> 'a parse
(** [parse decode s off] examines the one frame at [off]. Never raises
    unless [decode] does. *)

val fold : (string -> 'a option) -> ('acc -> 'a -> 'acc) -> 'acc -> string -> int -> 'acc * int
(** [fold decode f init s off] folds [f] over the decoded payloads of the
    longest valid prefix of frames starting at [off], and returns the result
    with the offset where that prefix ends. *)

val read_file : string -> string
(** The whole contents of a file. *)
