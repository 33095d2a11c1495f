(* Incremental maintenance of the k-core decomposition across the
   mutation stream (DESIGN.md sections 13 and 15).

   Every mutation, and every burst of them, takes one two-rung repair
   ladder: the subcore cascade, else one full re-peel.

   The cascade bounds the band of core levels the burst can disturb by
   core-number theory, reconstructs the peel boundary at the band
   floor B (vertices with core >= B, hyperedges with core >= B
   restricted to those vertices), collects the overlap component(s) of
   the burst inside that boundary, and resumes the canonical sweep
   ({!Hypergraph_core.resume_peel}) from level B on just that region.
   Levels below B never change, so the repair cost is O(affected
   subcore), not O(component).

   The band floor is sound only when the burst cannot change what the
   initial reduction does (a new hyperedge containing a live one, a
   deletion resurfacing a previously non-maximal hyperedge): those
   cases have no floor and take the full re-peel.  So do a floor of 0,
   a region past the visit budget and any empty hyperedge anywhere
   (its survival is a whole-hypergraph property in [Hypergraph_reduce]).
   The floor itself caps at every level where a mutated hyperedge
   could act as a containment witness mid-peel (DESIGN.md section 15
   gives the argument).  Bit-identity with the full one-pass sweep
   remains the invariant, asserted after every mutation by the
   differential suite (test_kcore_inc.ml).

   Every full re-peel starts from the overlap graph of the hypergraph
   the maintainer last peeled, advanced through the hyperedge ids the
   bursts since then have shifted ({!Hypergraph_core.advance_overlap}),
   instead of recounting every pair.  A burst the cascade repairs only
   replays its ops over the graph's id map, so it pays nothing
   O(pairs).  The advance writes into a spare graph and the drain
   into a workspace, both kept here, so a re-peel allocates only the
   decomposition it publishes; the maintainer runs under its owner's
   writer lock, so one set of buffers serves every re-peel. *)

module U = Hp_util
module H = Hypergraph
module HC = Hypergraph_core

type reason =
  | Swallow
  | Resurface
  | Entangled
  | New_member
  | Empty_edge
  | Zero_floor
  | Budget

let reasons =
  [ Swallow; Resurface; Entangled; New_member; Empty_edge; Zero_floor; Budget ]

let reason_name = function
  | Swallow -> "swallow"
  | Resurface -> "resurface"
  | Entangled -> "entangled"
  | New_member -> "new_member"
  | Empty_edge -> "empty_edge"
  | Zero_floor -> "zero_floor"
  | Budget -> "budget"

type stats = {
  mutable cascade_repairs : int;
  mutable repair_visited : int;
  mutable full_repeels : int;
  mutable budget_fallbacks : int;
  mutable swallow_repeels : int;
  mutable resurface_repeels : int;
  mutable entangled_repeels : int;
  mutable new_member_repeels : int;
  mutable empty_edge_repeels : int;
  mutable zero_floor_repeels : int;
}

let repeels s = function
  | Swallow -> s.swallow_repeels
  | Resurface -> s.resurface_repeels
  | Entangled -> s.entangled_repeels
  | New_member -> s.new_member_repeels
  | Empty_edge -> s.empty_edge_repeels
  | Zero_floor -> s.zero_floor_repeels
  | Budget -> s.budget_fallbacks

type outcome = Cascade of int | Repeel of reason

type op = Op_add_vertex | Op_add_edge | Op_del_edge of int

module Origin = struct
  type t = int U.Dynarray.t

  let reset d n =
    U.Dynarray.clear d;
    for i = 0 to n - 1 do
      U.Dynarray.push d i
    done

  (* Room for a burst's appends without a regrowth. *)
  let start n =
    let d = U.Dynarray.create ~capacity:(n + 16) ~dummy:0 () in
    reset d n;
    d

  let length = U.Dynarray.length
  let add d = U.Dynarray.push d (-1)

  let delete d k =
    let o = U.Dynarray.get d k in
    U.Dynarray.remove d k;
    o

  let to_array = U.Dynarray.to_array
end

type t = {
  budget : int;
  mutable h : H.t;
  mutable dec : HC.decomposition;
  mutable empty_edges : int;
  mutable graph : HC.overlap;  (* of the hypergraph last peeled *)
  mutable spare : HC.overlap option;
      (* the graph before [graph]: read by no one, so the next advance
         writes into its arrays *)
  graph_ids : Origin.t;
      (* current hyperedge id -> its id in [graph]'s hypergraph, -1 for
         one added since *)
  ws : HC.workspace;  (* the advance's and the drain's scratch *)
  stats : stats;
}

let count_empty h =
  let c = ref 0 in
  for e = 0 to H.n_edges h - 1 do
    if H.edge_size h e = 0 then incr c
  done;
  !c

let default_budget = 4096

let create ?(budget = default_budget) h =
  let graph = HC.overlap_graph h in
  let ws = HC.workspace () in
  {
    budget;
    h;
    dec = HC.decompose_over ~ws graph h;
    empty_edges = count_empty h;
    graph;
    spare = None;
    graph_ids = Origin.start (H.n_edges h);
    ws;
    stats =
      {
        cascade_repairs = 0;
        repair_visited = 0;
        full_repeels = 0;
        budget_fallbacks = 0;
        swallow_repeels = 0;
        resurface_repeels = 0;
        entangled_repeels = 0;
        new_member_repeels = 0;
        empty_edge_repeels = 0;
        zero_floor_repeels = 0;
      };
  }

let decomposition t = t.dec
let hypergraph t = t.h
let stats t = t.stats

let overlap t =
  HC.advance_overlap ~ws:(HC.workspace ()) t.graph
    ~origin:(Origin.to_array t.graph_ids) t.h

(* The full re-peel, from the kept overlap graph advanced to [after]
   ([graph] instead, when the burst's ids are unknown).  The advance
   writes into the spare, and the graph it replaces becomes the next
   spare. *)
let repeel ?graph t after reason =
  let graph =
    match graph with
    | Some g -> g
    | None ->
      HC.advance_overlap ?into:t.spare ~ws:t.ws t.graph
        ~origin:(Origin.to_array t.graph_ids) after
  in
  t.dec <- HC.decompose_over ~ws:t.ws graph after;
  t.h <- after;
  t.spare <- Some t.graph;
  t.graph <- graph;
  Origin.reset t.graph_ids (H.n_edges after);
  t.empty_edges <- count_empty after;
  let s = t.stats in
  s.full_repeels <- s.full_repeels + 1;
  (match reason with
  | Swallow -> s.swallow_repeels <- s.swallow_repeels + 1
  | Resurface -> s.resurface_repeels <- s.resurface_repeels + 1
  | Entangled -> s.entangled_repeels <- s.entangled_repeels + 1
  | New_member -> s.new_member_repeels <- s.new_member_repeels + 1
  | Empty_edge -> s.empty_edge_repeels <- s.empty_edge_repeels + 1
  | Zero_floor -> s.zero_floor_repeels <- s.zero_floor_repeels + 1
  | Budget -> s.budget_fallbacks <- s.budget_fallbacks + 1);
  Repeel reason

(* The id bookkeeping of one burst, replayed over [Origin]: [origin]
   maps each hyperedge of [after] to its pre-burst id (-1 for one the
   burst added, all of them on top), [deleted] marks the pre-burst
   hyperedges the burst deleted, and [entangled] says it deleted one
   it had added itself.  The same ops advance [t.graph_ids], so a
   burst costs the kept graph's map nothing O(E) beyond the shifts of
   its deletions.  [None] when the ops do not lead from the
   maintainer's hypergraph to [after] (the re-peel then counts a
   fresh graph and restarts the map). *)
type burst = {
  origin : int array;
  deleted : bool array;
  added : int;
  entangled : bool;
}

let replay_burst t ~after ~ops =
  let ne_old = H.n_edges t.h in
  let ids = Origin.start ne_old in
  let deleted = Array.make (max ne_old 1) false in
  let entangled = ref false and in_range = ref true in
  let new_vertices = ref 0 and added = ref 0 in
  List.iter
    (function
      | Op_add_vertex -> incr new_vertices
      | Op_add_edge ->
        Origin.add ids;
        Origin.add t.graph_ids;
        incr added
      | Op_del_edge k ->
        if k < 0 || k >= Origin.length ids then in_range := false
        else begin
          ignore (Origin.delete t.graph_ids k);
          let o = Origin.delete ids k in
          if o >= 0 then deleted.(o) <- true
          else begin
            entangled := true;
            decr added
          end
        end)
    ops;
  let origin = Origin.to_array ids in
  if
    !in_range
    && Array.length origin = H.n_edges after
    && H.n_vertices after = H.n_vertices t.h + !new_vertices
  then Some { origin; deleted; added = !added; entangled = !entangled }
  else None

exception Blown

(* ------------------------------------------------------------------ *)
(* Subcore cascade.                                                   *)

(* Epoch-stamped scratch arena: one per domain, grown monotonically,
   invalidated by bumping the epoch so repairs never pay an O(n)
   clear.  Fresh growth is zero-filled and the epoch starts above
   zero, so stale reads can never alias a live stamp. *)
type scratch = {
  mutable vstamp : int array;
  mutable estamp : int array;
  mutable epoch : int;
}

let scratch_key =
  Domain.DLS.new_key (fun () -> { vstamp = [||]; estamp = [||]; epoch = 0 })

let scratch ~nv ~ne =
  let s = Domain.DLS.get scratch_key in
  if Array.length s.vstamp < nv then s.vstamp <- Array.make (max nv 16) 0;
  if Array.length s.estamp < ne then s.estamp <- Array.make (max ne 16) 0;
  s

(* The cascade rung of [apply_batch] (a single mutation is a batch of
   one).  [after] is the maintainer's hypergraph with the burst [b]
   applied (appends at the end, deletes shifting later ids down).
   Returns [`Applied outcome] when the cascade repaired the
   decomposition, [`Bail reason] when no sound band floor exists
   (reduction-level structural change, an entangled burst, or the
   floor reached 0), and [`Blown] when the bounded region exceeded the
   budget. *)
let cascade_apply t ~after b =
  let vc = t.dec.HC.vertex_core and ec = t.dec.HC.edge_core in
  let nv_old = H.n_vertices t.h and ne_old = H.n_edges t.h in
  let nv_after = H.n_vertices after and ne_after = H.n_edges after in
  let final_origin = b.origin and del_old = b.deleted in
  if b.entangled then
    (* Deleting an edge added earlier in the same batch: the origin
       bookkeeping copes, but the add-side caps would be computed
       against a hyperedge that no longer exists — punt to the full
       re-peel. *)
    `Bail Entangled
  else begin
    let n_new = b.added in
    let nsurv = ne_after - n_new in
    let doomed = Array.make (max n_new 1) false in
    let s = scratch ~nv:(max nv_old nv_after) ~ne:(max ne_old ne_after) in
    let b = ref max_int in
    let bail = ref None in
    (* --- added hyperedges: reduce-level dooming, structural bails,
       member floor and mid-peel swallow caps --- *)
    for j = 0 to n_new - 1 do
      if Option.is_none !bail then begin
        let ef = nsurv + j in
        let fm = H.edge_members after ef in
        (* Empty hyperedges flip the global reduce rule; members
           created in the same batch have no core number to bound the
           band with.  Both are full-re-peel territory. *)
        if Array.length fm = 0 then bail := Some Empty_edge
        else if Array.exists (fun v -> v >= nv_old) fm then
          bail := Some New_member
        else begin
          (* Doomed at reduce iff some other hyperedge of [after]
             contains it (with the (size, id) tie-break; containment
             is transitive, so doomed witnesses are fine). *)
          let lf = Array.length fm in
          let is_doomed =
            Array.exists
              (fun g ->
                g <> ef
                &&
                let gm = H.edge_members after g in
                let lg = Array.length gm in
                (lg > lf || (lg = lf && g < ef)) && U.Sorted.subset fm gm)
              (H.vertex_edges after fm.(0))
          in
          if is_doomed then doomed.(j) <- true
          else begin
            (* Band floor: the new hyperedge only adds degree to its
               members, so nothing below the least member core moves —
               except where f can swallow a partner g once g's members
               outside f are all gone (level k_g = max core over
               g \ f).  Cap at every such feasible level; a partner
               contained in f outright changes the reduction — bail. *)
            Array.iter (fun v -> b := min !b vc.(v)) fm;
            s.epoch <- s.epoch + 1;
            let ep = s.epoch in
            Array.iter (fun v -> s.vstamp.(v) <- ep) fm;
            Array.iter
              (fun v ->
                Array.iter
                  (fun g ->
                    if g <> ef && g < nsurv && s.estamp.(g) <> ep then begin
                      s.estamp.(g) <- ep;
                      let o = final_origin.(g) in
                      if ec.(o) >= 0 then begin
                        let gm = H.edge_members after g in
                        let inside = ref 0 and outside_max = ref (-1) in
                        Array.iter
                          (fun w ->
                            if s.vstamp.(w) = ep then incr inside
                            else outside_max := max !outside_max vc.(w))
                          gm;
                        if !inside = Array.length gm then bail := Some Swallow
                        else if ec.(o) >= !outside_max then
                          b := min !b !outside_max
                      end
                    end)
                  (H.vertex_edges after v))
              fm
          end
        end
      end
    done;
    (* --- deleted hyperedges: resurface bails, member floor with
       multiplicity, and witness caps --- *)
    let del_count = Hashtbl.create 16 in
    if Option.is_none !bail then
      for e = 0 to ne_old - 1 do
        if del_old.(e) && ec.(e) >= 0 then
          Array.iter
            (fun v ->
              let c = Option.value (Hashtbl.find_opt del_count v) ~default:0 in
              Hashtbl.replace del_count v (c + 1))
            (H.edge_members t.h e)
      done;
    for e = 0 to ne_old - 1 do
      if Option.is_none !bail && del_old.(e) && ec.(e) >= 0 then begin
        let em = H.edge_members t.h e in
        s.epoch <- s.epoch + 1;
        let ep = s.epoch in
        Array.iter (fun v -> s.vstamp.(v) <- ep) em;
        (* Floor: a vertex losing d of its hyperedges can drop at most
           d levels before the boundary stops being reconstructible. *)
        Array.iter
          (fun v ->
            let d = Option.value (Hashtbl.find_opt del_count v) ~default:0 in
            b := min !b (vc.(v) - d))
          em;
        Array.iter
          (fun v ->
            Array.iter
              (fun g ->
                if g <> e && s.estamp.(g) <> ep then begin
                  s.estamp.(g) <- ep;
                  if not del_old.(g) then begin
                    let gm = H.edge_members t.h g in
                    if U.Sorted.subset gm em then
                      (* g (alive or reduce-doomed) sits inside e:
                         deleting e can resurface it at reduce. *)
                      bail := Some Resurface
                    else if ec.(g) >= 0 && ec.(g) <= ec.(e) then begin
                      (* e was a feasible containment witness at g's
                         death level: every member of g still alive at
                         level ec(g) lies inside e.  Without e, g may
                         survive past ec(g) — cap the floor there. *)
                      let feasible = ref true in
                      Array.iter
                        (fun w ->
                          if vc.(w) >= ec.(g) && s.vstamp.(w) <> ep then
                            feasible := false)
                        gm;
                      if !feasible then b := min !b ec.(g)
                    end
                  end
                end)
              (H.vertex_edges t.h v))
          em
      end
    done;
    match !bail with
    | Some reason -> `Bail reason
    | None ->
      (* --- seeds: everything whose sweep-from-B can differ --- *)
      let seed_vs = U.Dynarray.create ~dummy:0 () in
      let seed_es = U.Dynarray.create ~dummy:0 () in
      for e = 0 to ne_old - 1 do
        if del_old.(e) && ec.(e) >= 0 then
          Array.iter (fun v -> U.Dynarray.push seed_vs v) (H.edge_members t.h e)
      done;
      for j = 0 to n_new - 1 do
        if not doomed.(j) then U.Dynarray.push seed_es (nsurv + j)
      done;
      let ec_final =
        Array.init ne_after (fun j ->
            let o = final_origin.(j) in
            if o >= 0 then ec.(o) else -1)
      in
      if U.Dynarray.length seed_vs = 0 && U.Dynarray.length seed_es = 0 then begin
        (* Only reduce-doomed hyperedges and isolated bookkeeping
           moved: no core number can change. *)
        let vc' =
          if nv_after = nv_old then vc
          else begin
            let a = Array.make nv_after 0 in
            Array.blit vc 0 a 0 nv_old;
            a
          end
        in
        t.dec <-
          {
            HC.vertex_core = vc';
            edge_core = ec_final;
            max_core = t.dec.HC.max_core;
          };
        t.h <- after;
        t.stats.cascade_repairs <- t.stats.cascade_repairs + 1;
        `Applied (Cascade 0)
      end
      else if !b <= 0 then `Bail Zero_floor
      else begin
        let bf = !b in
        (* --- region: overlap component(s) of the seeds inside the
           level-B boundary of the NEW structure --- *)
        s.epoch <- s.epoch + 1;
        let ep = s.epoch in
        let vbuf = U.Dynarray.create ~dummy:0 () in
        let ebuf = U.Dynarray.create ~dummy:0 () in
        let vwork = U.Dynarray.create ~dummy:0 () in
        let ework = U.Dynarray.create ~dummy:0 () in
        let visits = ref 0 in
        let in_boundary_e j =
          let o = final_origin.(j) in
          if o >= 0 then ec.(o) >= bf else not doomed.(j - nsurv)
        in
        let push_v v =
          if s.vstamp.(v) <> ep && v < nv_old && vc.(v) >= bf then begin
            s.vstamp.(v) <- ep;
            incr visits;
            if !visits > t.budget then raise Blown;
            U.Dynarray.push vbuf v;
            U.Dynarray.push vwork v
          end
        in
        let push_e e =
          if s.estamp.(e) <> ep && in_boundary_e e then begin
            s.estamp.(e) <- ep;
            incr visits;
            if !visits > t.budget then raise Blown;
            U.Dynarray.push ebuf e;
            U.Dynarray.push ework e
          end
        in
        match
          for i = 0 to U.Dynarray.length seed_vs - 1 do
            push_v (U.Dynarray.get seed_vs i)
          done;
          for i = 0 to U.Dynarray.length seed_es - 1 do
            push_e (U.Dynarray.get seed_es i)
          done;
          while
            U.Dynarray.length vwork > 0 || U.Dynarray.length ework > 0
          do
            if U.Dynarray.length ework > 0 then begin
              let e = U.Dynarray.get ework (U.Dynarray.length ework - 1) in
              U.Dynarray.remove ework (U.Dynarray.length ework - 1);
              Array.iter push_v (H.edge_members after e)
            end
            else begin
              let v = U.Dynarray.get vwork (U.Dynarray.length vwork - 1) in
              U.Dynarray.remove vwork (U.Dynarray.length vwork - 1);
              Array.iter push_e (H.vertex_edges after v)
            end
          done
        with
        | exception Blown -> `Blown
        | () ->
          let vs = U.Sorted.of_array (U.Dynarray.to_array vbuf) in
          let es = U.Sorted.of_array (U.Dynarray.to_array ebuf) in
          (* --- resume the canonical sweep from the floor and splice --- *)
          let sub, vmap, emap = H.sub after ~vertices:vs ~edges:es in
          let ld = HC.resume_peel ~level:bf sub in
          let vc' = Array.make nv_after 0 in
          Array.blit vc 0 vc' 0 nv_old;
          Array.iteri (fun i v -> vc'.(v) <- ld.HC.vertex_core.(i)) vmap;
          Array.iteri (fun i g -> ec_final.(g) <- ld.HC.edge_core.(i)) emap;
          let mc = Array.fold_left max 0 vc' in
          t.dec <-
            { HC.vertex_core = vc'; edge_core = ec_final; max_core = mc };
          t.h <- after;
          let visited = Array.length vs + Array.length es in
          t.stats.cascade_repairs <- t.stats.cascade_repairs + 1;
          t.stats.repair_visited <- t.stats.repair_visited + visited;
          `Applied (Cascade visited)
      end
  end

(* ------------------------------------------------------------------ *)
(* Public mutation entry points.                                      *)

(* Appended vertices are isolated: each is its own component at core
   0 with nothing else reachable, so the repair is the array copy. *)
let append_vertices t ~after n =
  let d = t.dec in
  let vc = Array.append d.HC.vertex_core (Array.make n 0) in
  t.dec <- { d with HC.vertex_core = vc };
  t.h <- after;
  t.stats.cascade_repairs <- t.stats.cascade_repairs + 1;
  t.stats.repair_visited <- t.stats.repair_visited + n;
  Cascade n

(* The ladder: cascade, else one full re-peel, counted under the one
   reason the cascade could not go on. *)
let apply_batch t ~after ~ops =
  if List.for_all (( = ) Op_add_vertex) ops then
    append_vertices t ~after (List.length ops)
  else
    match replay_burst t ~after ~ops with
    | None ->
      (* The ops do not lead to [after]: no id map, so count the
         graph afresh. *)
      repeel ~graph:(HC.overlap_graph after) t after Entangled
    | Some b -> (
      if t.empty_edges > 0 then repeel t after Empty_edge
      else
        match cascade_apply t ~after b with
        | `Applied o -> o
        | `Bail reason -> repeel t after reason
        | `Blown -> repeel t after Budget)

let add_vertex t ~after = apply_batch t ~after ~ops:[ Op_add_vertex ]
let add_edge t ~after = apply_batch t ~after ~ops:[ Op_add_edge ]
let del_edge t ~after ~edge = apply_batch t ~after ~ops:[ Op_del_edge edge ]
