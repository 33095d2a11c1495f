module U = Hp_util

type t = {
  nv : int;
  edges : int array array;      (* edge id -> sorted member vertices *)
  vadj : int array array;       (* vertex id -> sorted incident edge ids *)
  vertex_names : string array option;
  edge_names : string array option;
  (* Name-to-id indexes are built on first lookup: constructing them
     eagerly costs more than everything else a snapshot load does, and
     most kernel work never queries by name. *)
  vertex_index : (string, int) Hashtbl.t option Lazy.t;
  edge_index : (string, int) Hashtbl.t option Lazy.t;
}

let build_index = function
  | None -> None
  | Some names ->
    let idx = Hashtbl.create (2 * Array.length names) in
    Array.iteri (fun i name -> if not (Hashtbl.mem idx name) then Hashtbl.add idx name i) names;
    Some idx

let of_csr_unchecked ?vertex_names ?edge_names ~n_vertices ~edges ~vadj () =
  {
    nv = n_vertices;
    edges;
    vadj;
    vertex_names;
    edge_names;
    vertex_index = lazy (build_index vertex_names);
    edge_index = lazy (build_index edge_names);
  }

let of_arrays ?vertex_names ?edge_names ~n_vertices members =
  if n_vertices < 0 then invalid_arg "Hypergraph: negative vertex count";
  (match vertex_names with
  | Some names when Array.length names <> n_vertices ->
    invalid_arg "Hypergraph: vertex_names length mismatch"
  | Some _ | None -> ());
  (match edge_names with
  | Some names when Array.length names <> Array.length members ->
    invalid_arg "Hypergraph: edge_names length mismatch"
  | Some _ | None -> ());
  let edges =
    Array.map
      (fun ms ->
        let ms = U.Sorted.of_array ms in
        Array.iter
          (fun v ->
            if v < 0 || v >= n_vertices then
              invalid_arg "Hypergraph: member vertex out of range")
          ms;
        ms)
      members
  in
  let deg = Array.make n_vertices 0 in
  Array.iter (Array.iter (fun v -> deg.(v) <- deg.(v) + 1)) edges;
  let vadj = Array.init n_vertices (fun v -> Array.make deg.(v) 0) in
  let cursor = Array.make n_vertices 0 in
  Array.iteri
    (fun e ms ->
      Array.iter
        (fun v ->
          vadj.(v).(cursor.(v)) <- e;
          cursor.(v) <- cursor.(v) + 1)
        ms)
    edges;
  (* Edge ids were appended in increasing order, so vadj rows are
     already sorted. *)
  of_csr_unchecked ?vertex_names ?edge_names ~n_vertices ~edges ~vadj ()

(* Constructor for loaders that already hold both incidence directions
   (the snapshot store).  Skips the sort of [of_arrays] but still
   refuses malformed input: member rows must be strictly increasing and
   in range, and [vadj] must be exactly the reverse incidence —
   verified with a cursor sweep in O(|E|), the same order the arrays
   would take to rebuild. *)
let of_csr_exn ?(rows_validated = false) ?vertex_names ?edge_names ~n_vertices
    ~edges ~vadj () =
  if n_vertices < 0 then invalid_arg "Hypergraph: negative vertex count";
  (match vertex_names with
  | Some names when Array.length names <> n_vertices ->
    invalid_arg "Hypergraph: vertex_names length mismatch"
  | Some _ | None -> ());
  (match edge_names with
  | Some names when Array.length names <> Array.length edges ->
    invalid_arg "Hypergraph: edge_names length mismatch"
  | Some _ | None -> ());
  if Array.length vadj <> n_vertices then
    invalid_arg "Hypergraph: vadj length mismatch";
  (* Explicit loops: this runs on every snapshot load, so avoid the
     closure and double-bounds-check overhead of the iterator forms.
     The range-and-monotonicity pass is branchless — [v - prev - 1]
     goes negative when the row stops strictly increasing (which also
     catches any v < 0, since prev starts at -1 and a first negative
     member trips it immediately), [n_vertices - 1 - v] when v
     escapes the vertex range; a row whose sign accumulator stays
     non-negative is valid, and the rare flagged row is rescanned for
     the precise diagnostic. *)
  let check_row_precise ms =
    let p = ref (-1) in
    Array.iter
      (fun v ->
        if v < 0 || v >= n_vertices then
          invalid_arg "Hypergraph: member vertex out of range";
        if v <= !p then
          invalid_arg "Hypergraph: members not strictly increasing";
        p := v)
      ms
  in
  let ne = Array.length edges in
  (* [rows_validated] callers (the snapshot loader) already ran this
     exact check while extracting the rows; the cursor sweep below
     still works unconditionally because it only indexes through
     values pass 1 vouched for — so it must not be skipped. *)
  if not rows_validated then
    for e = 0 to ne - 1 do
      let ms = Array.unsafe_get edges e in
      let len = Array.length ms in
      let rec scan i prev flags =
        if i = len then flags
        else
          let v = Array.unsafe_get ms i in
          scan (i + 1) v (flags lor (v - prev - 1) lor (n_vertices - 1 - v))
      in
      if scan 0 (-1) 0 < 0 then check_row_precise ms
    done;
  let cursor = Array.make n_vertices 0 in
  for e = 0 to ne - 1 do
    let ms = Array.unsafe_get edges e in
    for i = 0 to Array.length ms - 1 do
      (* v < n_vertices was established by the pass above, so it
         indexes cursor and vadj (length n_vertices) safely. *)
      let v = Array.unsafe_get ms i in
      let row = Array.unsafe_get vadj v in
      let c = Array.unsafe_get cursor v in
      if c >= Array.length row || Array.unsafe_get row c <> e then
        invalid_arg "Hypergraph: vadj disagrees with incidence";
      Array.unsafe_set cursor v (c + 1)
    done
  done;
  Array.iteri
    (fun v c ->
      if c <> Array.length vadj.(v) then
        invalid_arg "Hypergraph: vadj disagrees with incidence")
    cursor;
  of_csr_unchecked ?vertex_names ?edge_names ~n_vertices ~edges ~vadj ()

let create ?vertex_names ?edge_names ~n_vertices members =
  of_arrays ?vertex_names ?edge_names ~n_vertices
    (Array.of_list (List.map Array.of_list members))

let n_vertices h = h.nv

let n_edges h = Array.length h.edges

let vertex_degree h v = Array.length h.vadj.(v)

let edge_size h e = Array.length h.edges.(e)

let total_incidence h = Array.fold_left (fun acc ms -> acc + Array.length ms) 0 h.edges

let max_vertex_degree h = Array.fold_left (fun acc a -> max acc (Array.length a)) 0 h.vadj

let max_edge_size h = Array.fold_left (fun acc a -> max acc (Array.length a)) 0 h.edges

let edge_members h e = h.edges.(e)

let vertex_edges h v = h.vadj.(v)

let mem h ~vertex ~edge = U.Sorted.mem h.edges.(edge) vertex

let vertex_degrees h = Array.map Array.length h.vadj

let edge_sizes h = Array.map Array.length h.edges

let edge_degree2 h e =
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun v ->
      Array.iter
        (fun f -> if f <> e && not (Hashtbl.mem seen f) then Hashtbl.add seen f ())
        h.vadj.(v))
    h.edges.(e);
  Hashtbl.length seen

let max_edge_degree2 h =
  let best = ref 0 in
  for e = 0 to n_edges h - 1 do
    let d2 = edge_degree2 h e in
    if d2 > !best then best := d2
  done;
  !best

let vertex_degree2 h v =
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun e ->
      Array.iter
        (fun w -> if w <> v && not (Hashtbl.mem seen w) then Hashtbl.add seen w ())
        h.edges.(e))
    h.vadj.(v);
  Hashtbl.length seen

let vertex_names_opt h = h.vertex_names

let edge_names_opt h = h.edge_names

let vertex_name h v =
  match h.vertex_names with
  | Some names -> names.(v)
  | None -> "v" ^ string_of_int v

let edge_name h e =
  match h.edge_names with
  | Some names -> names.(e)
  | None -> "e" ^ string_of_int e

let vertex_of_name h name =
  match Lazy.force h.vertex_index with
  | Some idx -> Hashtbl.find_opt idx name
  | None -> None

let edge_of_name h name =
  match Lazy.force h.edge_index with
  | Some idx -> Hashtbl.find_opt idx name
  | None -> None

(* The distinct ids of [ids] in ascending order, each checked to lie in
   [0, n).  Marking an n-slot array instead of sorting accepts unsorted
   and duplicate input in O(n + |ids|). *)
let kept_ids ~what n ids =
  let mark = Bytes.make n '\000' in
  Array.iter
    (fun i ->
      if i < 0 || i >= n then
        invalid_arg (Printf.sprintf "Hypergraph.sub: %s id %d out of range" what i);
      Bytes.unsafe_set mark i '\001')
    ids;
  let out = U.Dynarray.create ~dummy:0 () in
  Bytes.iteri (fun i b -> if b = '\001' then U.Dynarray.push out i) mark;
  U.Dynarray.to_array out

let sub h ~vertices ~edges =
  let vertices = kept_ids ~what:"vertex" h.nv vertices in
  let edges = kept_ids ~what:"edge" (Array.length h.edges) edges in
  let nv' = Array.length vertices in
  (* Old-to-new vertex ids, -1 for dropped vertices.  The map is
     monotone, so restricting a sorted member row keeps it sorted, and
     appending edge ids in ascending order fills sorted [vadj] rows:
     both incidence directions come out canonical without a sort. *)
  let vmap = Array.make h.nv (-1) in
  Array.iteri (fun i v -> vmap.(v) <- i) vertices;
  let deg = Array.make nv' 0 in
  let members =
    Array.map
      (fun e ->
        let ms = h.edges.(e) in
        let kept = ref 0 in
        Array.iter (fun v -> if vmap.(v) >= 0 then incr kept) ms;
        let row = Array.make !kept 0 and i = ref 0 in
        Array.iter
          (fun v ->
            let v' = vmap.(v) in
            if v' >= 0 then begin
              row.(!i) <- v';
              incr i;
              deg.(v') <- deg.(v') + 1
            end)
          ms;
        row)
      edges
  in
  let vadj = Array.map (fun d -> Array.make d 0) deg in
  Array.fill deg 0 nv' 0;
  Array.iteri
    (fun e' row ->
      Array.iter
        (fun v' ->
          vadj.(v').(deg.(v')) <- e';
          deg.(v') <- deg.(v') + 1)
        row)
    members;
  let vertex_names =
    Option.map (fun names -> Array.map (fun v -> names.(v)) vertices) h.vertex_names
  in
  let edge_names =
    Option.map (fun names -> Array.map (fun e -> names.(e)) edges) h.edge_names
  in
  ( of_csr_exn ?vertex_names ?edge_names ~n_vertices:nv' ~edges:members ~vadj (),
    vertices,
    edges )

let is_reduced h =
  let m = n_edges h in
  let contained_somewhere e =
    (* f is contained in g iff g is a superset; scan candidate supersets
       through a member's adjacency (any member of f works, since a
       superset shares all members). *)
    let ms = h.edges.(e) in
    if Array.length ms = 0 then m > 1 (* empty edge is contained in any other *)
    else begin
      let candidates = h.vadj.(ms.(0)) in
      Array.exists
        (fun g -> g <> e && U.Sorted.subset ms h.edges.(g))
        candidates
    end
  in
  let rec loop e = e >= m || ((not (contained_somewhere e)) && loop (e + 1)) in
  loop 0

let equal_structure a b =
  a.nv = b.nv && Array.length a.edges = Array.length b.edges
  && Array.for_all2 U.Sorted.equal a.edges b.edges

let pp ppf h =
  Format.fprintf ppf "@[<v>hypergraph: %d vertices, %d hyperedges, |E| = %d@,"
    (n_vertices h) (n_edges h) (total_incidence h);
  Array.iteri
    (fun e ms ->
      Format.fprintf ppf "%s:" (edge_name h e);
      Array.iter (fun v -> Format.fprintf ppf " %s" (vertex_name h v)) ms;
      Format.fprintf ppf "@,")
    h.edges;
  Format.fprintf ppf "@]"
