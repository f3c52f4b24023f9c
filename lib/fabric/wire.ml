module Journal = Ferrite_injection.Journal
module Crash_dump = Ferrite_injection.Crash_dump
module Frame = Ferrite_iofault.Frame

type wire_chaos = { wc_drop : float; wc_dup : float; wc_reorder : float }

let validated_chaos c =
  let rate name r =
    if not (r >= 0.0 && r <= 1.0) then
      invalid_arg (Printf.sprintf "Wire.validated_chaos: %s=%g outside [0,1]" name r)
  in
  rate "drop" c.wc_drop;
  rate "dup" c.wc_dup;
  rate "reorder" c.wc_reorder;
  if c.wc_drop +. c.wc_dup +. c.wc_reorder > 1.0 then
    invalid_arg "Wire.validated_chaos: rates sum past 1";
  c

type bye_stats = {
  by_reboots : int;
  by_cache : Ferrite_machine.Cache_stats.t;
  by_retransmitted : int;
  by_leases : int;
}

type msg =
  | Lease_request of { lr_worker : int }
  | Lease_grant of { lg_lease : int; lg_lo : int; lg_hi : int }
  | Steal of { st_lease : int }
  | Steal_return of { sr_lease : int; sr_lo : int; sr_hi : int }
  | Result of {
      rs_seq : int;
      rs_index : int;
      rs_retries : int;
      rs_entry : Journal.entry;
      rs_dump : Crash_dump.t option;
    }
  | Ack of { ak_seq : int }
  | Heartbeat of { hb_worker : int }
  | Bye of { bye_stats : bye_stats option }

(* The goodbye is exempt: no retry machinery re-sends it, and a worker that
   never says it is already covered by the lease-expiry path. *)
let chaos_eligible = function
  | Bye _ -> false
  | Lease_request _ | Lease_grant _ | Steal _ | Steal_return _ | Result _ | Ack _
  | Heartbeat _ ->
    true

(* {2 Encoding} *)

let put_u32 = Frame.put_u32
let get_u32 = Frame.get_u32

let encode_payload msg =
  let b = Buffer.create 64 in
  (match msg with
  | Lease_request { lr_worker } ->
    Buffer.add_char b 'L';
    put_u32 b lr_worker
  | Lease_grant { lg_lease; lg_lo; lg_hi } ->
    Buffer.add_char b 'G';
    put_u32 b lg_lease;
    put_u32 b lg_lo;
    put_u32 b lg_hi
  | Steal { st_lease } ->
    Buffer.add_char b 'S';
    put_u32 b st_lease
  | Steal_return { sr_lease; sr_lo; sr_hi } ->
    Buffer.add_char b 'T';
    put_u32 b sr_lease;
    put_u32 b sr_lo;
    put_u32 b sr_hi
  | Result { rs_seq; rs_index; rs_retries; rs_entry; rs_dump } ->
    (* the entry blob is the journal's own payload encoding: a fabric result
       in flight is a journal frame whose file has not been written yet *)
    let entry = Journal.encode_entry rs_entry in
    Buffer.add_char b 'R';
    put_u32 b rs_seq;
    put_u32 b rs_index;
    put_u32 b rs_retries;
    put_u32 b (String.length entry);
    Buffer.add_string b entry;
    Buffer.add_string b (Marshal.to_string rs_dump [])
  | Ack { ak_seq } ->
    Buffer.add_char b 'A';
    put_u32 b ak_seq
  | Heartbeat { hb_worker } ->
    Buffer.add_char b 'K';
    put_u32 b hb_worker
  | Bye { bye_stats } ->
    Buffer.add_char b 'B';
    Buffer.add_string b (Marshal.to_string bye_stats []));
  Buffer.contents b

let unmarshal_from s off : 'a option =
  if String.length s - off < Marshal.header_size then None
  else
    let need = Marshal.total_size (Bytes.unsafe_of_string s) off in
    if String.length s - off <> need then None
    else match Marshal.from_string s off with v -> Some v | exception _ -> None

let decode_payload s =
  let n = String.length s in
  if n = 0 then None
  else
    let fixed len k = if n = len + 1 then k () else None in
    match s.[0] with
    | 'L' -> fixed 4 (fun () -> Some (Lease_request { lr_worker = get_u32 s 1 }))
    | 'G' ->
      fixed 12 (fun () ->
          Some
            (Lease_grant
               { lg_lease = get_u32 s 1; lg_lo = get_u32 s 5; lg_hi = get_u32 s 9 }))
    | 'S' -> fixed 4 (fun () -> Some (Steal { st_lease = get_u32 s 1 }))
    | 'T' ->
      fixed 12 (fun () ->
          Some
            (Steal_return
               { sr_lease = get_u32 s 1; sr_lo = get_u32 s 5; sr_hi = get_u32 s 9 }))
    | 'R' ->
      if n < 17 then None
      else
        let elen = get_u32 s 13 in
        if elen < 0 || n < 17 + elen then None
        else (
          match Journal.decode_entry (String.sub s 17 elen) with
          | None -> None
          | Some rs_entry -> (
            match (unmarshal_from s (17 + elen) : Crash_dump.t option option) with
            | None -> None
            | Some rs_dump ->
              Some
                (Result
                   {
                     rs_seq = get_u32 s 1;
                     rs_index = get_u32 s 5;
                     rs_retries = get_u32 s 9;
                     rs_entry;
                     rs_dump;
                   })))
    | 'A' -> fixed 4 (fun () -> Some (Ack { ak_seq = get_u32 s 1 }))
    | 'K' -> fixed 4 (fun () -> Some (Heartbeat { hb_worker = get_u32 s 1 }))
    | 'B' -> (
      match (unmarshal_from s 1 : bye_stats option option) with
      | Some bye_stats -> Some (Bye { bye_stats })
      | None -> None)
    | _ -> None

let encode msg = Frame.encode (encode_payload msg)

(* Torn or corrupt input stops the walk exactly like a torn journal tail. *)
let decode_prefix s =
  let acc, off = Frame.fold decode_payload (fun acc m -> m :: acc) [] s 0 in
  (List.rev acc, off)

(* {2 Incremental decoder} *)

exception Corrupt of string

type decoder = { mutable dc_buf : string; mutable dc_off : int }

let decoder () = { dc_buf = ""; dc_off = 0 }

let feed d buf n =
  if n > 0 then begin
    let tail = String.sub d.dc_buf d.dc_off (String.length d.dc_buf - d.dc_off) in
    d.dc_buf <- tail ^ Bytes.sub_string buf 0 n;
    d.dc_off <- 0
  end

(* Partial waits for more bytes; Invalid on a stream socket is a peer bug. *)
let next d =
  match Frame.parse decode_payload d.dc_buf d.dc_off with
  | Frame.Partial -> None
  | Frame.Invalid reason -> raise (Corrupt reason)
  | Frame.Complete (m, off') ->
    d.dc_off <- off';
    Some m
