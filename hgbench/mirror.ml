(* The mixed_writes writer's model of the dataset it mutates.

   hgd names hyperedges by dense id and DELEDGE shifts every later id
   down by one, so a writer that picks ids from a stale picture sends
   invalid (or, worse, valid but unintended) deletes.  The mirror keeps
   a [Hp_wal.Live] state — the same structure the server folds ops into
   — plus the member lists the rewiring generator needs, and advances
   both only through [apply]. *)

module Live = Hp_wal.Live
module Wal = Hp_wal.Wal
module H = Hp_hypergraph.Hypergraph
module Dyn = Hp_util.Dynarray

type t = {
  live : Live.t;
  edges : int array Dyn.t;  (* dense edge id -> members *)
  mutable n_vertices : int;
  mutable epoch : int;
}

let of_hypergraph h =
  {
    live = Live.of_hypergraph h;
    edges =
      Dyn.of_array ~dummy:[||]
        (Array.init (H.n_edges h) (fun e -> Array.copy (H.edge_members h e)));
    n_vertices = H.n_vertices h;
    epoch = 0;
  }

let n_edges t = Dyn.length t.edges
let epoch t = t.epoch
let edge t e = Dyn.get t.edges e
let hypergraph t = Live.to_hypergraph t.live

(* Validate against the Live state, then apply to both pictures.
   Returns the id an add was assigned. *)
let apply t (op : Wal.op) =
  match Live.validate t.live op with
  | Error _ as e -> e
  | Ok () ->
    let assigned = Live.apply_exn t.live op in
    (match op with
    | Wal.Add_vertex _ -> t.n_vertices <- t.n_vertices + 1
    | Wal.Add_edge { members; _ } -> Dyn.push t.edges (Array.copy members)
    | Wal.Del_edge { edge } -> Dyn.remove t.edges edge);
    t.epoch <- t.epoch + 1;
    Ok assigned

(* The reply hgd owes for [op] once [apply] has advanced the mirror
   past it (single-op path, no auto-checkpoint configured). *)
let expected_reply t ~assigned : Hp_server.Protocol.reply =
  Hp_server.Protocol.Ok
    ([ ("epoch", string_of_int t.epoch) ]
    @ (match assigned with Some id -> [ ("assigned", string_of_int id) ] | None -> [])
    @ [
        ("vertices", string_of_int t.n_vertices);
        ("hyperedges", string_of_int (n_edges t));
        ("checkpointed", "false");
      ])

let request_of_op ~dataset : Wal.op -> Hp_server.Protocol.request = function
  | Wal.Add_vertex { name } -> Hp_server.Protocol.Add_vertex { dataset; name }
  | Wal.Add_edge { name; members } ->
    Hp_server.Protocol.Add_edge { dataset; name; members = Array.to_list members }
  | Wal.Del_edge { edge } -> Hp_server.Protocol.Del_edge { dataset; edge }

(* A rewiring stream in the style of degree-preserving null models:
   delete a random complex and add it back with one member swapped for
   a random protein, so the complex-size sequence is kept.  About one
   op in sixteen adds a fresh protein instead, which later swaps can
   pick up.  Every op is valid against the state its predecessors
   leave behind; the stream is a function of [seed] and [h] alone. *)
let rewiring_ops ~seed ~n h =
  let rng = Hp_util.Prng.create seed in
  let m = of_hypergraph h in
  let ops = ref [] and count = ref 0 in
  let emit op =
    if !count < n then begin
      (match apply m op with
      | Ok _ -> ()
      | Error msg -> invalid_arg ("Mirror.rewiring_ops: generated invalid op: " ^ msg));
      ops := op :: !ops;
      incr count
    end
  in
  while !count < n do
    if Hp_util.Prng.int rng 16 = 0 || n_edges m = 0 then
      emit (Wal.Add_vertex { name = Printf.sprintf "rv%d.%d" seed !count })
    else begin
      let e = Hp_util.Prng.int rng (n_edges m) in
      let members = Array.copy (edge m e) in
      let len = Array.length members in
      (if len > 0 then
         let rec draw tries =
           if tries > 0 then begin
             let v = Hp_util.Prng.int rng m.n_vertices in
             if Array.mem v members then draw (tries - 1)
             else members.(Hp_util.Prng.int rng len) <- v
           end
         in
         draw 8);
      Array.sort compare members;
      emit (Wal.Del_edge { edge = e });
      emit (Wal.Add_edge { name = Printf.sprintf "rw%d" !count; members })
    end
  done;
  Array.of_list (List.rev !ops)
