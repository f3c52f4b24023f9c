(* CRC-checked length-prefixed framing. See frame.mli. *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter (fun ch -> c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8)) s;
  !c lxor 0xFFFFFFFF

let put_u32 buf v =
  Buffer.add_char buf (Char.chr (v land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xFF))

let get_u32 s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

let max_payload = 64 * 1024 * 1024

let encode payload =
  let buf = Buffer.create (8 + String.length payload) in
  put_u32 buf (String.length payload);
  put_u32 buf (crc32 payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

type 'a parse = Complete of 'a * int | Partial | Invalid of string

let parse decode s off =
  let n = String.length s in
  if n - off < 8 then Partial
  else
    let len = get_u32 s off in
    if len > max_payload then Invalid "frame length out of range"
    else if n - off - 8 < len then Partial
    else
      let payload = String.sub s (off + 8) len in
      if crc32 payload <> get_u32 s (off + 4) then Invalid "frame CRC mismatch"
      else
        match decode payload with
        | Some v -> Complete (v, off + 8 + len)
        | None -> Invalid "undecodable payload"

let fold decode f init s off =
  let rec go acc off =
    match parse decode s off with
    | Complete (v, next) -> go (f acc v) next
    | Partial | Invalid _ -> (acc, off)
  in
  go init off

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))
