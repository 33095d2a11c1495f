module H = Hp_hypergraph.Hypergraph
module Origin = Hp_hypergraph.Hypergraph_maintain.Origin
module D = Hp_util.Dynarray

type t = {
  mutable nv : int;
  vnames : string D.t;
  vindex : (string, int) Hashtbl.t;  (* name -> id, for duplicate checks *)
  edges : int array D.t;
      (* sorted, deduplicated member arrays, shared with [last] (and
         every hypergraph published before it) where they survive *)
  enames : string D.t;
  mutable last : H.t;  (* the hypergraph last published or adopted *)
  origin : Origin.t;  (* current edge id -> its id in [last], -1 if added since *)
}

let of_hypergraph h =
  let nv = H.n_vertices h in
  let vnames = D.create ~capacity:(max 16 nv) ~dummy:"" () in
  let vindex = Hashtbl.create (max 16 nv) in
  for v = 0 to nv - 1 do
    D.push vnames (H.vertex_name h v);
    if not (Hashtbl.mem vindex (H.vertex_name h v)) then
      Hashtbl.add vindex (H.vertex_name h v) v
  done;
  let ne = H.n_edges h in
  let edges = D.create ~capacity:(max 16 ne) ~dummy:[||] () in
  let enames = D.create ~capacity:(max 16 ne) ~dummy:"" () in
  for e = 0 to ne - 1 do
    D.push edges (H.edge_members h e);
    D.push enames (H.edge_name h e)
  done;
  { nv; vnames; vindex; edges; enames; last = h; origin = Origin.start ne }

let n_vertices t = t.nv

let n_edges t = D.length t.edges

let validate t (op : Wal.op) =
  match op with
  | Wal.Add_vertex { name } ->
    (* Vertex names are the dataset's external identity: the text
       format, snapshot-vs-text replica comparisons and the KCORE
       payload all address vertices by name, and [Hypergraph_io]
       collapses equal names on parse.  Accepting a duplicate here
       would create a state no text round trip can represent. *)
    if name = "" then Error "empty vertex name"
    else if Hashtbl.mem t.vindex name then
      Error (Printf.sprintf "duplicate vertex name %S" name)
    else Ok ()
  | Wal.Add_edge { members; _ } ->
    if Array.for_all (fun v -> v >= 0 && v < t.nv) members then Ok ()
    else
      Error
        (Printf.sprintf "member vertex out of range [0, %d)" t.nv)
  | Wal.Del_edge { edge } ->
    let ne = D.length t.edges in
    if edge >= 0 && edge < ne then Ok ()
    else Error (Printf.sprintf "edge %d out of range [0, %d)" edge ne)

let apply_exn t (op : Wal.op) =
  match op with
  | Wal.Add_vertex { name } ->
    D.push t.vnames name;
    if not (Hashtbl.mem t.vindex name) then Hashtbl.add t.vindex name (t.nv);
    t.nv <- t.nv + 1;
    Some (t.nv - 1)
  | Wal.Add_edge { name; members } ->
    D.push t.edges (Hp_util.Sorted.of_array members);
    D.push t.enames name;
    Origin.add t.origin;
    Some (D.length t.edges - 1)
  | Wal.Del_edge { edge } ->
    D.remove t.edges edge;
    D.remove t.enames edge;
    ignore (Origin.delete t.origin edge);
    None

let apply t op =
  match validate t op with
  | Error _ as e -> e
  | Ok () -> Ok (apply_exn t op)

(* The successor of [last]: member rows are the live ones (shared),
   and an incidence row is rebuilt only for a vertex of an added
   hyperedge, of a deleted one or of one whose id moved down; every
   other row is shared without being read.  Old ids map monotonically
   and added hyperedges take the top ids, so a rebuilt row is the old
   row mapped, with the added ids appended in ascending order: sorted
   without a sort. *)
let to_hypergraph t =
  let last = t.last in
  let nv_old = H.n_vertices last and ne_old = H.n_edges last in
  let nv = t.nv in
  let edges = D.to_array t.edges in
  let ne = Array.length edges in
  let origin = Origin.to_array t.origin in
  (* Old id -> new id (-1 when deleted); ids below [first_moved] kept
     theirs, and every id from it up was deleted or moved down. *)
  let renum = Array.make (max ne_old 1) (-1) in
  let nsurv = ref 0 in
  Array.iteri
    (fun j o ->
      if o >= 0 then begin
        renum.(o) <- j;
        incr nsurv
      end)
    origin;
  let nsurv = !nsurv in
  let first_moved = ref 0 in
  while !first_moved < ne_old && renum.(!first_moved) = !first_moved do
    incr first_moved
  done;
  (* [grow.(v)] is -1 for a row shared as it is, else the number of
     added hyperedges v is in; below, the append cursor of its rebuilt
     row. *)
  let grow = Array.make (max nv 1) (-1) in
  for e = !first_moved to ne_old - 1 do
    let ms = H.edge_members last e in
    for i = 0 to Array.length ms - 1 do
      grow.(ms.(i)) <- 0
    done
  done;
  for j = nsurv to ne - 1 do
    let ms = edges.(j) in
    for i = 0 to Array.length ms - 1 do
      let v = ms.(i) in
      grow.(v) <- (if grow.(v) < 0 then 1 else grow.(v) + 1)
    done
  done;
  let vadj = Array.make nv [||] in
  for v = 0 to nv - 1 do
    let row = if v < nv_old then H.vertex_edges last v else [||] in
    if grow.(v) < 0 then vadj.(v) <- row
    else begin
      let len = Array.length row and g = grow.(v) in
      let r = Array.make (len + g) 0 in
      let kept = ref 0 in
      for k = 0 to len - 1 do
        let e' = renum.(row.(k)) in
        if e' >= 0 then begin
          r.(!kept) <- e';
          incr kept
        end
      done;
      grow.(v) <- !kept;
      vadj.(v) <- (if !kept = len then r else Array.sub r 0 (!kept + g))
    end
  done;
  for j = nsurv to ne - 1 do
    let ms = edges.(j) in
    for i = 0 to Array.length ms - 1 do
      let v = ms.(i) in
      vadj.(v).(grow.(v)) <- j;
      grow.(v) <- grow.(v) + 1
    done
  done;
  let vertex_names =
    match H.vertex_names_opt last with
    | Some names when nv = nv_old -> names
    | Some _ | None -> D.to_array t.vnames
  in
  let h =
    H.of_csr_unchecked ~vertex_names ~edge_names:(D.to_array t.enames)
      ~n_vertices:nv ~edges ~vadj ()
  in
  t.last <- h;
  Origin.reset t.origin ne;
  h
