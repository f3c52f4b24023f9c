module Iofault = Ferrite_iofault.Iofault
module Frame = Ferrite_iofault.Frame

(* Columnar on-disk result store.

   File layout (all integers little-endian or LEB128 varints):

     header := magic "FERRITEC" (8) | version (1)
     block  := Frame (payload_len | crc32 | payload)

   Each block is self-contained: its payload carries a row count followed by
   one column at a time, in a fixed order, with per-block string dictionaries
   — so blocks written by different sessions (append) decode without any
   shared state, and a torn tail loses at most the final partial block.

     payload := varint nrows
              | ints    index              (plain varints)
              | dict    arch
              | dict    kind
              | dict    model
              | dict    outcome
              | ints    activated          (0/1)
              | zigzags activation_cycle   (-1 encodes None)
              | optdict cause
              | zigzags latency            (-1 encodes None)
              | zigzags pc                 (-1 encodes None)
              | optdict function
              | optdict triage

     dict    := varint nstrings | (varint len | bytes)*  | varint code per row
     optdict := same, but code 0 is None and code k+1 is string k

   A reader walks the frames and stops at the first bad one, so a crash
   mid-append degrades to a shorter, still-valid store. Unlike the journal,
   payloads are hand-encoded (no [Marshal]): the format is stable across
   compiler versions, and decoding is total — every count and length is
   bounded by the payload bytes that remain, so a corrupted block ends the
   walk like a torn one instead of allocating what it claims. *)

type row = {
  r_index : int;
  r_arch : string;
  r_kind : string;
  r_model : string;
  r_outcome : string;
  r_activated : bool;
  r_activation_cycle : int option;
  r_cause : string option;
  r_latency : int option;
  r_pc : int option;
  r_function : string option;
  r_triage : string option;
}

let magic = "FERRITEC"
let version = '\001'
let header_size = String.length magic + 1

exception Not_a_store of string

(* ---------- varint / zigzag ---------- *)

(* unsigned LEB128 *)
let put_varint buf v =
  if v < 0 then invalid_arg "Store.put_varint: negative";
  let rec go v =
    if v < 0x80 then Buffer.add_char buf (Char.chr v)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (v land 0x7F)));
      go (v lsr 7)
    end
  in
  go v

exception Truncated_payload
(* internal: payload shorter than its encoding claims — treated as torn *)

let get_varint s pos =
  let n = String.length s in
  let rec go acc shift p =
    if p >= n then raise Truncated_payload;
    let b = Char.code s.[p] in
    let acc = acc lor ((b land 0x7F) lsl shift) in
    if b < 0x80 then (acc, p + 1) else go acc (shift + 7) (p + 1)
  in
  go 0 0 pos

(* zigzag maps small negatives to small codes: -1 (the None sentinel) is 1 *)
let zigzag v = (v lsl 1) lxor (v asr 62)
let unzigzag v = (v lsr 1) lxor (-(v land 1))

(* ---------- column encoders ---------- *)

let put_ints buf rows f =
  List.iter (fun r -> put_varint buf (f r)) rows

let put_zigzags buf rows f =
  List.iter (fun r -> put_varint buf (zigzag (f r))) rows

(* per-block dictionary: first-appearance order, so the encoding (and hence
   the file bytes) depends only on the row stream, never on hashing *)
let put_dict buf rows f =
  let order = ref [] and tbl = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let s = f r in
      if not (Hashtbl.mem tbl s) then begin
        Hashtbl.add tbl s (Hashtbl.length tbl);
        order := s :: !order
      end)
    rows;
  let strings = List.rev !order in
  put_varint buf (List.length strings);
  List.iter
    (fun s ->
      put_varint buf (String.length s);
      Buffer.add_string buf s)
    strings;
  List.iter (fun r -> put_varint buf (Hashtbl.find tbl (f r))) rows

let put_optdict buf rows f =
  put_dict buf rows (fun r -> match f r with None -> "" | Some s -> "\x01" ^ s)

let encode_block rows =
  let buf = Buffer.create 4096 in
  put_varint buf (List.length rows);
  put_ints buf rows (fun r -> r.r_index);
  put_dict buf rows (fun r -> r.r_arch);
  put_dict buf rows (fun r -> r.r_kind);
  put_dict buf rows (fun r -> r.r_model);
  put_dict buf rows (fun r -> r.r_outcome);
  put_ints buf rows (fun r -> if r.r_activated then 1 else 0);
  put_zigzags buf rows (fun r -> Option.value ~default:(-1) r.r_activation_cycle);
  put_optdict buf rows (fun r -> r.r_cause);
  put_zigzags buf rows (fun r -> Option.value ~default:(-1) r.r_latency);
  put_zigzags buf rows (fun r -> Option.value ~default:(-1) r.r_pc);
  put_optdict buf rows (fun r -> r.r_function);
  put_optdict buf rows (fun r -> r.r_triage);
  Buffer.contents buf

(* ---------- column decoders ---------- *)

(* Every element a count or length announces takes at least one byte, so
   one beyond the bytes that remain is corrupt: reject it before allocating. *)
let bounded s pos n = if n < 0 || n > String.length s - pos then raise Truncated_payload

let get_ints s pos n =
  bounded s pos n;
  let arr = Array.make n 0 in
  let pos = ref pos in
  for i = 0 to n - 1 do
    let v, p = get_varint s !pos in
    arr.(i) <- v;
    pos := p
  done;
  (arr, !pos)

let get_zigzags s pos n =
  let arr, pos = get_ints s pos n in
  (Array.map unzigzag arr, pos)

let get_dict s pos n =
  let ndict, pos = get_varint s pos in
  bounded s pos ndict;
  let strings = Array.make ndict "" in
  let pos = ref pos in
  for i = 0 to ndict - 1 do
    let len, p = get_varint s !pos in
    bounded s p len;
    strings.(i) <- String.sub s p len;
    pos := p + len
  done;
  let codes, pos' = get_ints s !pos n in
  let arr =
    Array.map
      (fun c -> if c >= 0 && c < ndict then strings.(c) else raise Truncated_payload)
      codes
  in
  (arr, pos')

let get_optdict s pos n =
  let arr, pos = get_dict s pos n in
  ( Array.map
      (fun v ->
        if v = "" then None else Some (String.sub v 1 (String.length v - 1)))
      arr,
    pos )

let decode_block payload =
  let nrows, pos = get_varint payload 0 in
  let index, pos = get_ints payload pos nrows in
  let arch, pos = get_dict payload pos nrows in
  let kind, pos = get_dict payload pos nrows in
  let model, pos = get_dict payload pos nrows in
  let outcome, pos = get_dict payload pos nrows in
  let activated, pos = get_ints payload pos nrows in
  let cycle, pos = get_zigzags payload pos nrows in
  let cause, pos = get_optdict payload pos nrows in
  let latency, pos = get_zigzags payload pos nrows in
  let pc, pos = get_zigzags payload pos nrows in
  let func, pos = get_optdict payload pos nrows in
  let triage, _pos = get_optdict payload pos nrows in
  let opt v = if v < 0 then None else Some v in
  Array.init nrows (fun i ->
      {
        r_index = index.(i);
        r_arch = arch.(i);
        r_kind = kind.(i);
        r_model = model.(i);
        r_outcome = outcome.(i);
        r_activated = activated.(i) <> 0;
        r_activation_cycle = opt cycle.(i);
        r_cause = cause.(i);
        r_latency = opt latency.(i);
        r_pc = opt pc.(i);
        r_function = func.(i);
        r_triage = triage.(i);
      })

(* ---------- reading ---------- *)

type scan = {
  sc_rows : int;
  sc_blocks : int;
  sc_bytes : int;  (* header + valid blocks *)
  sc_truncated_bytes : int;  (* torn tail dropped by the reader *)
}

let check_header path data =
  if
    String.length data < header_size
    || String.sub data 0 (String.length magic) <> magic
  then raise (Not_a_store path);
  if data.[String.length magic] <> version then raise (Not_a_store path)

(* Walk CRC-framed blocks; the first bad frame (truncated, CRC mismatch, or
   undecodable payload) ends the walk — everything after it is torn tail. *)
let fold path f init =
  let data = Frame.read_file path in
  check_header path data;
  let decode payload = try Some (decode_block payload) with Truncated_payload -> None in
  let (acc, rows, blocks), valid_end =
    Frame.fold decode
      (fun (acc, rows, blocks) block ->
        (Array.fold_left f acc block, rows + Array.length block, blocks + 1))
      (init, 0, 0) data header_size
  in
  ( acc,
    { sc_rows = rows; sc_blocks = blocks; sc_bytes = valid_end;
      sc_truncated_bytes = String.length data - valid_end } )

let iter path f = fst (fold path (fun () r -> f r) ())

let scan path = snd (fold path (fun () _ -> ()) ())

let read_all path =
  let rows, sc = fold path (fun acc r -> r :: acc) [] in
  (List.rev rows, sc)

(* ---------- writing ----------

   The writer is an [O_APPEND] sink, and a block (frame header + payload)
   goes to the kernel as ONE [write] call: POSIX appends are
   atomic with respect to the file offset, so two processes appending blocks
   concurrently interleave at block granularity — whole frames, never spliced
   bytes. That is the store's concurrency contract: concurrent appenders are
   safe as long as a block is what they interleave; row order across
   processes is whatever the kernel serialized. (An out_channel would
   buffer-split large blocks across multiple writes and could tear them
   mid-frame.) *)

type writer = {
  sink : Iofault.sink;  (* ENOSPC/EIO: stop persisting, keep counting *)
  block_rows : int;
  mutable pending : row list;  (* newest first *)
  mutable npending : int;
  mutable written : int;  (* rows flushed to disk *)
  mutable dropped : int;  (* rows accepted after degradation *)
}

let default_block_rows = 4096

(* One [write] per block in the common case; [Iofault.write_fully] retries
   EINTR/EAGAIN/short writes with bounded backoff, and under a recoverable
   fault plan produces the same bytes a fault-free run would. Faults that
   split a block across writes forfeit the multi-process interleaving
   guarantee for that block only — fault plans are a single-process test
   mode, never armed on shared production stores. *)
let flush_block w =
  if w.npending > 0 then begin
    if Iofault.sink_write w.sink (Frame.encode (encode_block (List.rev w.pending))) then
      w.written <- w.written + w.npending
    else w.dropped <- w.dropped + w.npending;
    w.pending <- [];
    w.npending <- 0
  end

let append w row =
  w.pending <- row :: w.pending;
  w.npending <- w.npending + 1;
  if w.npending >= w.block_rows then flush_block w

let close w =
  flush_block w;
  Iofault.sink_close w.sink

(* [keep] bytes of the file survive (0 starts a fresh store with its header);
   [written] counts the rows they hold. *)
let open_writer ~block_rows ~keep ~written path =
  if block_rows <= 0 then invalid_arg "Store: block_rows must be positive";
  {
    sink =
      Iofault.append_sink ~label:"store" ~name:"store"
        ~after:"persisting stopped — rows are counted, the on-disk prefix stays scannable"
        ~header:(magic ^ String.make 1 version) ~keep path;
    block_rows;
    pending = [];
    npending = 0;
    written;
    dropped = 0;
  }

let create ?(block_rows = default_block_rows) path =
  open_writer ~block_rows ~keep:0 ~written:0 path

(* Append to an existing store: validate the header, then truncate any torn
   tail so the new blocks butt up against the last valid one. A missing file
   degrades to [create]. *)
let open_append ?(block_rows = default_block_rows) path =
  if not (Sys.file_exists path) then create ~block_rows path
  else
    let sc = scan path in
    open_writer ~block_rows ~keep:sc.sc_bytes ~written:sc.sc_rows path

let rows_written w = w.written + w.npending + w.dropped
let degraded w = Iofault.sink_degraded w.sink
let rows_dropped w = w.dropped
