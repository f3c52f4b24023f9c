module Iofault = Ferrite_iofault.Iofault
module Frame = Ferrite_iofault.Frame

(* Append-only, CRC-framed campaign journal (checkpoint/resume).

   Layout:

     header  := magic "FERRITEJ" (8) | version (1) | plan_hash (8, LE)
     frame   := Frame (payload_len | crc32 | payload)
     payload := Marshal of one {!entry}

   The file is written append-only, one flushed frame per completed trial, so
   a crash (or SIGKILL) can only ever leave a *torn tail*: a partial header,
   a partial frame, or a frame whose payload was cut short. Recovery walks
   frames from the start and stops at the first frame that is incomplete or
   fails its CRC; everything before that point is the longest valid prefix,
   everything after is truncated. The header's plan hash ties the journal to
   one campaign plan (suite/seed/engine — everything except the worker
   count, which never affects records), so resuming against the wrong
   campaign is rejected instead of silently mixing trials. *)

let magic = "FERRITEJ"

(* v2: [Outcome.record] carries the fault model and [Collector.stats] the
   per-model delivery breakdown. v1 journals (pre-fault-model) are still
   recovered — their payloads decode through the compat types below and are
   upgraded entry by entry — and [open_for_append] migrates the file to v2
   before appending. *)
let version = '\002'
let v1_version = '\001'
let header_size = String.length magic + 1 + 8 (* magic | version | plan hash *)

exception
  Header_mismatch of {
    hm_path : string;
    hm_expected : int64;
    hm_found : int64;
  }

exception Not_a_journal of string

(* ---------- plan hash (FNV-1a 64 over a canonical fingerprint) ---------- *)

let plan_hash_of_string s =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    s;
  !h

(* ---------- entries ---------- *)

type entry = {
  je_index : int;
  je_record : Outcome.record;
  je_stats : Collector.stats;
  je_trace : Ferrite_trace.Tracer.trial;
}

let encode_entry e = Marshal.to_string e []

let decode_entry s : entry option =
  match Marshal.from_string s 0 with
  | e -> Some e
  | exception _ -> None (* CRC-valid but undecodable: treat as torn *)

(* ---------- v1 payload compatibility ----------

   Marshal is structural: these types mirror the exact v1 field shapes of
   [Outcome.record] (4 fields, no model) and [Collector.stats] (5 counters,
   no per-model breakdown). [Target.t], [Outcome.t] and the trace types are
   shape-identical across versions (new [Event] constructors are appended,
   which Marshal tolerates in payloads that never contain them). *)

type v1_record = {
  v1_target : Target.t;
  v1_outcome : Outcome.t;
  v1_activated : bool;
  v1_activation_cycle : int option;
}

type v1_stats = {
  v1_received : int;
  v1_lost : int;
  v1_retransmitted : int;
  v1_gave_up : int;
  v1_dup_dropped : int;
}

type v1_entry = {
  v1_index : int;
  v1_entry_record : v1_record;
  v1_entry_stats : v1_stats;
  v1_trace : Ferrite_trace.Tracer.trial;
}

(* Every v1 trial was a single-bit transient, which is also what a fresh
   legacy-config run records — so upgraded entries are byte-identical to
   re-running the campaign under v2. *)
let upgrade_v1_entry (e : v1_entry) =
  let r = e.v1_entry_record in
  let s = e.v1_entry_stats in
  {
    je_index = e.v1_index;
    je_record =
      {
        Outcome.r_target = r.v1_target;
        r_outcome = r.v1_outcome;
        r_activated = r.v1_activated;
        r_activation_cycle = r.v1_activation_cycle;
        r_model = Fault_model.Single_bit_transient;
      };
    je_stats =
      {
        Collector.st_received = s.v1_received;
        st_lost = s.v1_lost;
        st_retransmitted = s.v1_retransmitted;
        st_gave_up = s.v1_gave_up;
        st_dup_dropped = s.v1_dup_dropped;
        st_by_model = (if s.v1_received > 0 then [ ("single_bit", s.v1_received) ] else []);
      };
    je_trace = e.v1_trace;
  }

let decode_v1_entry s : entry option =
  match (Marshal.from_string s 0 : v1_entry) with
  | e -> Some (upgrade_v1_entry e)
  | exception _ -> None

(* ---------- little-endian u64 (the header's plan hash) ---------- *)

let put_u64le buf v =
  for i = 0 to 7 do
    Buffer.add_char buf
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL)))
  done

let get_u64le s off =
  let v = ref 0L in
  for i = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code s.[off + i]))
  done;
  !v

let header_bytes ~plan_hash =
  let buf = Buffer.create header_size in
  Buffer.add_string buf magic;
  Buffer.add_char buf version;
  put_u64le buf plan_hash;
  Buffer.contents buf

let frame = Frame.encode

(* ---------- recovery ---------- *)

type recovery = {
  rc_entries : entry list;  (* longest valid prefix, in append order *)
  rc_valid_bytes : int;  (* end offset of the last valid frame (or 0) *)
  rc_truncated_bytes : int;  (* torn-tail bytes beyond the valid prefix *)
  rc_format : int;  (* header version the file was written under (1 or 2) *)
}

let empty_recovery =
  { rc_entries = []; rc_valid_bytes = 0; rc_truncated_bytes = 0; rc_format = 2 }

let recover ~path ~plan_hash =
  if not (Sys.file_exists path) then empty_recovery
  else begin
    let data = Frame.read_file path in
    let len = String.length data in
    if len < header_size then
      (* torn mid-header: the whole file is the tail *)
      { rc_entries = []; rc_valid_bytes = 0; rc_truncated_bytes = len; rc_format = 2 }
    else begin
      if String.sub data 0 (String.length magic) <> magic then raise (Not_a_journal path);
      let found = get_u64le data (String.length magic + 1) in
      let ver = data.[String.length magic] in
      if (ver <> version && ver <> v1_version) || found <> plan_hash then
        raise (Header_mismatch { hm_path = path; hm_expected = plan_hash; hm_found = found });
      let decode = if ver = v1_version then decode_v1_entry else decode_entry in
      let acc, valid = Frame.fold decode (fun acc e -> e :: acc) [] data header_size in
      {
        rc_entries = List.rev acc;
        rc_valid_bytes = valid;
        rc_truncated_bytes = len - valid;
        rc_format = (if ver = v1_version then 1 else 2);
      }
    end
  end

(* ---------- writer ---------- *)

(* Appends go through the degrading sink: retriable faults are absorbed, so
   under a recoverable fault plan the file is byte-identical to a fault-free
   run; ENOSPC/EIO stop persisting while the campaign keeps running, and the
   frames already on disk remain a valid recoverable prefix for [--resume]. *)
type writer = Iofault.sink

let open_for_append ~path ~plan_hash =
  let rc = recover ~path ~plan_hash in
  let keep =
    if rc.rc_format = 2 then rc.rc_valid_bytes
    else begin
      (* v1 journal: migrate via a temp file in the same directory, fsynced
         and atomically renamed over the original — a crash or kill at any
         point leaves either the intact v1 file or the complete v2 one,
         never a half-rewritten journal. The rewrite re-encodes the
         recovered (upgraded) entries, dropping any torn tail with them. *)
      let migrated =
        String.concat ""
          (header_bytes ~plan_hash :: List.map (fun e -> frame (encode_entry e)) rc.rc_entries)
      in
      let tmp = path ^ ".migrate.tmp" in
      let oc = open_out_gen [ Open_wronly; Open_trunc; Open_creat; Open_binary ] 0o644 tmp in
      (try
         output_string oc migrated;
         flush oc;
         (* An injected fsync failure is a durability downgrade, not data
            loss: the rename still lands the complete rewrite, it just isn't
            guaranteed to survive a power cut. Report it and carry on. *)
         (try Iofault.fsync (Iofault.wrap_file ~label:"journal-migrate" (Unix.descr_of_out_channel oc))
          with Unix.Unix_error (Unix.EIO, _, _) ->
            Printf.eprintf "ferrite: journal %s: fsync failed during v1 migration (durability downgrade)\n%!" path);
         close_out oc
       with e ->
         close_out_noerr oc;
         (try Sys.remove tmp with Sys_error _ -> ());
         raise e);
      Sys.rename tmp path;
      String.length migrated
    end
  in
  (* [keep] is 0 when the file is missing or its header was torn: the file
     then restarts from a fresh header *)
  ( Iofault.append_sink ~label:"journal" ~name:"journal"
      ~after:"persisting stopped — the campaign continues and the on-disk prefix stays resumable"
      ~header:(header_bytes ~plan_hash) ~keep path,
    rc )

let append w entry = ignore (Iofault.sink_write w (frame (encode_entry entry)))
let close = Iofault.sink_close
