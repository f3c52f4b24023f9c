module System = Ferrite_kernel.System
module Abi = Ferrite_kernel.Abi
module KLayout = Ferrite_kir.Layout

type pending = { p_op : Workload.op }

type t = {
  sys : System.t;
  queues : Workload.op list array;  (* per worker, mutable via array set *)
  inflight : pending option array;
  mutable fsv : bool;
  mutable completed : int;
  mutable issued : int;
  total : int;
  slot_of : int -> int;
  off_status : int;
  off_nr : int;
  off_a : int array;
  off_ret : int;
}

type status = Running | Done

let create sys ~ops =
  let queues = Array.make Abi.nworkers [] in
  List.iter
    (fun (op : Workload.op) ->
      let w = op.Workload.op_worker in
      queues.(w) <- op :: queues.(w))
    (List.rev ops);
  let sl =
    KLayout.layout_struct sys.System.image.Ferrite_kir.Image.img_mode Abi.request_struct
  in
  let off name = (KLayout.field_of sl name).KLayout.fl_offset in
  let base = System.symbol sys "mailbox" in
  {
    sys;
    queues;
    inflight = Array.make Abi.nworkers None;
    fsv = false;
    completed = 0;
    issued = 0;
    total = List.length ops;
    slot_of = (fun w -> base + (w * sl.KLayout.sl_size));
    off_status = off "status";
    off_nr = off "nr";
    off_a = [| off "a0"; off "a1"; off "a2"; off "a3" |];
    off_ret = off "ret";
  }

let issue t w (op : Workload.op) =
  let slot = t.slot_of w in
  if op.Workload.op_think > 0 then System.idle_cycles t.sys op.Workload.op_think;
  let nr, a0, a1, a2, a3 = op.Workload.op_issue t.sys in
  System.poke32 t.sys (slot + t.off_nr) nr;
  System.poke32 t.sys (slot + t.off_a.(0)) a0;
  System.poke32 t.sys (slot + t.off_a.(1)) a1;
  System.poke32 t.sys (slot + t.off_a.(2)) a2;
  System.poke32 t.sys (slot + t.off_a.(3)) a3;
  System.poke32 t.sys (slot + t.off_status) Abi.req_pending

let tick t =
  for w = 0 to Abi.nworkers - 1 do
    (match t.inflight.(w) with
    | Some { p_op } ->
      let slot = t.slot_of w in
      if System.peek32 t.sys (slot + t.off_status) = Abi.req_done then begin
        let ret = System.peek32 t.sys (slot + t.off_ret) in
        if not (p_op.Workload.op_check t.sys ret) then t.fsv <- true;
        System.poke32 t.sys (slot + t.off_status) Abi.req_empty;
        t.inflight.(w) <- None;
        t.completed <- t.completed + 1
      end
    | None -> ());
    match t.inflight.(w), t.queues.(w) with
    | None, op :: rest ->
      t.queues.(w) <- rest;
      issue t w op;
      t.issued <- t.issued + 1;
      t.inflight.(w) <- Some { p_op = op }
    | _ -> ()
  done;
  if t.completed >= t.total then Done else Running

let fsv t = t.fsv
let completed_ops t = t.completed
let progress t = t.issued + t.completed
let total_ops t = t.total
