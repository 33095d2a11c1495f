(* In-process reference for hgd's analysis replies.

   Each function calls the same kernels hgd's dispatcher composes and
   renders the payload in the protocol's key order and number formats,
   so a reply from the daemon can be compared field for field with a
   run of the same kernels on the same generated hypergraph.  The
   [timer] lets the traced replay put a span around each kernel call;
   [count] receives the kernels' work counters. *)

module H = Hp_hypergraph.Hypergraph
module HC = Hp_hypergraph.Hypergraph_core
module HP = Hp_hypergraph.Hypergraph_path
module P = Hp_server.Protocol

type timer = { time : 'a. string -> (unit -> 'a) -> 'a }

let untimed = { time = (fun _ f -> f ()) }

let float3 = Printf.sprintf "%.3f"
let float4 = Printf.sprintf "%.4f"

let names h ids =
  String.concat " " (Array.to_list (Array.map (H.vertex_name h) ids))

let powerlaw_lines hist =
  match Hp_stats.Powerlaw.fit_loglog hist with
  | fit ->
    [
      ("powerlaw_gamma", float4 fit.gamma);
      ("powerlaw_log10_c", float4 fit.log10_c);
      ("powerlaw_r2", float4 fit.r2);
    ]
  | exception Invalid_argument _ -> [ ("powerlaw_fit", "n/a") ]

(* [role] names the dataset in span and counter names ("sparse" for a
   proteome, "dense" for a Matrix Market hypergraph). *)
let stats ~timer ~count ~role h =
  let summary = HP.component_summary h in
  let sweep = HP.sweep_stats () in
  let diam, apl =
    timer.time ("path.sweep." ^ role) (fun () ->
        HP.diameter_and_average_path ~domains:1 ~stats:sweep h)
  in
  count ("path.bfs_sources." ^ role) (HP.sources_visited sweep);
  let largest =
    if Array.length summary = 0 then []
    else
      let nv, ne = summary.(0) in
      [
        ("largest_component_vertices", string_of_int nv);
        ("largest_component_hyperedges", string_of_int ne);
      ]
  in
  [
    ("vertices", string_of_int (H.n_vertices h));
    ("hyperedges", string_of_int (H.n_edges h));
    ("incidence", string_of_int (H.total_incidence h));
    ("max_vertex_degree", string_of_int (H.max_vertex_degree h));
    ("max_hyperedge_size", string_of_int (H.max_edge_size h));
    ("components", string_of_int (Array.length summary));
  ]
  @ largest
  @ [ ("diameter", string_of_int diam); ("average_path", float3 apl) ]
  @ powerlaw_lines (Hp_stats.Degree_dist.vertex_histogram h)

(* [cores] is the maintained decomposition hgd serves KCORE from once
   a dataset has been mutated; without it the core is peeled. *)
let kcore ~timer ~count ~role ?cores h k =
  let (result : HC.result), k =
    match cores with
    | Some (dec : HC.decomposition) ->
      let k = Option.value k ~default:dec.max_core in
      (timer.time "core.of_decomposition" (fun () -> HC.core_of_decomposition h dec k), k)
    | None -> (
      match k with
      | Some k -> (timer.time ("core.k_core." ^ role) (fun () -> HC.k_core ~domains:1 h k), k)
      | None ->
        let k, r = timer.time ("core.max_core." ^ role) (fun () -> HC.max_core ~domains:1 h) in
        (r, k))
  in
  count ("core.peel_rounds." ^ role) result.stats.peel_rounds;
  count ("core.maximality_checks." ^ role) result.stats.maximality_checks;
  [
    ("k", string_of_int k);
    ("core_vertices", string_of_int (H.n_vertices result.core));
    ("core_hyperedges", string_of_int (H.n_edges result.core));
    ("members", names h result.vertex_ids);
  ]

let cover ~timer ~role h (weighting : P.weighting) r =
  let weights =
    match weighting with
    | P.Uniform -> Hp_cover.Weighting.uniform h
    | P.Degree -> Hp_cover.Weighting.degree h
    | P.Degree_squared -> Hp_cover.Weighting.degree_squared h
  in
  let trace =
    timer.time ("cover.solve." ^ role) (fun () ->
        if r <= 1 then Hp_cover.Greedy.vertex_cover_trace ~weights h
        else
          Hp_cover.Greedy.solve ~weights
            ~requirements:(Hp_cover.Multicover.uniform_requirements h ~r)
            h)
  in
  [
    ("weighting", P.weighting_to_string weighting);
    ("r", string_of_int r);
    ("cover_size", string_of_int (Array.length trace.cover));
    ("total_weight", float3 trace.total_weight);
    ("average_degree", float3 (Hp_cover.Cover.average_degree h trace.cover));
    ("members", names h trace.cover);
  ]

let powerlaw ~timer h =
  timer.time "stats.powerlaw" (fun () ->
      let hist = Hp_stats.Degree_dist.vertex_histogram h in
      let ls = powerlaw_lines hist in
      match Hp_stats.Powerlaw.fit_mle hist with
      | mle ->
        let ks =
          match Hp_stats.Powerlaw.fit_loglog hist with
          | fit ->
            [
              ( "ks_distance",
                float4 (Hp_stats.Powerlaw.ks_distance hist ~gamma:fit.gamma ~dmin:1) );
            ]
          | exception Invalid_argument _ -> []
        in
        ls @ [ ("mle_gamma", float4 mle.gamma_mle); ("mle_tail_n", string_of_int mle.n_tail) ] @ ks
      | exception Invalid_argument _ -> ls)

let payload ?(timer = untimed) ?(count = fun _ _ -> ()) ~role ?cores h : P.analysis -> _ =
  function
  | P.Stats -> stats ~timer ~count ~role h
  | P.Kcore k -> kcore ~timer ~count ~role ?cores h k
  | P.Cover { weighting; r } -> cover ~timer ~role h weighting r
  | P.Powerlaw -> powerlaw ~timer h
  | P.Storage -> invalid_arg "Oracle.payload: STORAGE is not in any workload"

(* The reply hgd sends for a computed (not cached) analysis. *)
let computed_reply payload = P.Ok (payload @ [ ("cached", "false") ])

(* ---------- reply checks ---------- *)

(* Two decoded replies are equal exactly when their wire lines are:
   the framing is canonical and decoding splits each line at its one
   tab. *)
let same (a : P.reply) (b : P.reply) = a = b

let is_pong : P.reply -> bool = function
  | P.Ok kvs -> List.assoc_opt "pong" kvs = Some "hgd"
  | P.Err _ -> false

(* A KCORE reply served while writes race it: the epoch it answers for
   is unknown, so only its shape is checked; the final reply after the
   writer stops is compared with the oracle. *)
let is_core_shaped : P.reply -> bool = function
  | P.Ok kvs -> (
    match
      ( Option.bind (List.assoc_opt "k" kvs) int_of_string_opt,
        Option.bind (List.assoc_opt "core_vertices" kvs) int_of_string_opt,
        List.assoc_opt "members" kvs )
    with
    | Some k, Some nv, Some members ->
      k >= 0
      && nv = (if members = "" then 0 else List.length (String.split_on_char ' ' members))
    | _ -> false)
  | P.Err _ -> false

(* Reference replies by request line.  Lines without a reference are
   PING (its uptime changes, so it is checked by shape) and, when
   [racing], KCORE reads that race the writer. *)
type checker = { refs : (string, P.reply) Hashtbl.t; racing : bool }

let check chk line reply =
  match Hashtbl.find_opt chk.refs line with
  | Some r -> same r reply
  | None -> if line = P.request_line P.Ping then is_pong reply else chk.racing && is_core_shaped reply

(* A BATCH passes only if every item arrived and every item passes. *)
let check_batch chk lines (items : (P.reply, string) result list) =
  List.length items = List.length lines
  && List.for_all2
       (fun line r -> match r with Ok rep -> check chk line rep | Error _ -> false)
       lines items
