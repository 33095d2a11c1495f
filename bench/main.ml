(* Experiment harness: regenerates every table and figure of the paper
   (ids E1-E12, see DESIGN.md) on the synthetic datasets, printing
   paper-reported vs. measured values, then runs Bechamel
   micro-benchmarks — one per table/figure workload.

   Usage:  dune exec bench/main.exe [-- --quick] [-- --no-timing]
     --quick       skip the largest Table-1 instance
     --no-timing   skip the Bechamel pass
     --check-path  fail if the E21 path-sweep speedup over its BFS
                   oracle regressed >2x against bench/path_baseline.json
     --check-core  fail if the E22 core-peel speedup over the naive
                   oracle regressed >2x against bench/core_baseline.json,
                   or its maximality-check count differs from it
     --check-snap  fail if the E23 mmap snapshot load is not at least
                   10x faster than the text parse on the largest
                   instance
     --check-inc   fail if the E25 incrementally maintained k-core
                   decomposition is not at least 5x faster than
                   re-peeling after every mutation
     --check-maint fail if the E26 cluster cascade's median speedup
                   over a full re-peel per mutation fell below half of
                   bench/maint_baseline.json, or if on the rewiring
                   stream the full re-peel's median is below 0.9x the
                   maintained repair's *)

module H = Hp_hypergraph.Hypergraph
module HP = Hp_hypergraph.Hypergraph_path
module HC = Hp_hypergraph.Hypergraph_core
module HCV = Hp_hypergraph.Hypergraph_convert
module ST = Hp_hypergraph.Storage
module G = Hp_graph.Graph
module GC = Hp_graph.Graph_core
module MM = Hp_data.Matrix_market
module CZ = Hp_data.Cellzome
module U = Hp_util

let quick = Array.exists (( = ) "--quick") Sys.argv
let no_timing = Array.exists (( = ) "--no-timing") Sys.argv

(* --check-path: after the E21 path bench, compare the measured
   sweep speedup against bench/path_baseline.json and exit non-zero
   if it regressed by more than 2x.  Speedups (bit-parallel sweep vs
   the per-source BFS oracle, in process) are machine-normalized
   ratios, so the guard travels across CI hosts where absolute times
   do not. *)
let check_path = Array.exists (( = ) "--check-path") Sys.argv

(* --check-core: the same guard for the E22 core bench, against
   bench/core_baseline.json — CSR overlap kernel vs the naive oracle
   on the same host — plus an exact match of each instance's
   maximality-check count. *)
let check_core = Array.exists (( = ) "--check-core") Sys.argv

(* --check-snap: the E23 guard is an absolute ratio, not a baseline
   file — the snapshot store's reason to exist is that mapping beats
   re-parsing by an order of magnitude. *)
let check_snap = Array.exists (( = ) "--check-snap") Sys.argv

(* --check-inc: like E23, an absolute same-host ratio — incremental
   repair exists to beat the per-mutation full re-peel on workloads
   whose mutations stay local. *)
let check_inc = Array.exists (( = ) "--check-inc") Sys.argv

(* --check-maint: the E26 guard, two same-host ratios against the
   full re-peel oracle.  On the cluster schedule the subcore cascade
   exists to beat it: half-the-baseline check against
   bench/maint_baseline.json.  On the rewiring stream most repairs
   re-peel anyway, so maintenance must not cost more than re-peeling:
   an absolute 0.9x floor.  The maintainer re-peels from the overlap
   graph it keeps, so its median sits above the oracle's, which counts
   every pair: 20 runs read 1.01-1.20x, and the floor leaves a tenth
   below the lowest of them. *)
let check_maint = Array.exists (( = ) "--check-maint") Sys.argv

(* Minimal numeric field scrape for committed baseline files — the
   schema is ours, so a JSON parser buys nothing (same stance as the
   Loadgen guard). *)
let scrape_float ~field s =
  let needle = "\"" ^ field ^ "\":" in
  let nl = String.length needle in
  let at = ref None in
  for i = 0 to String.length s - nl do
    if !at = None && String.sub s i nl = needle then at := Some (i + nl)
  done;
  match !at with
  | None -> None
  | Some start ->
    let stop = ref start in
    let len = String.length s in
    while
      !stop < len
      && (match s.[!stop] with
         | '0' .. '9' | '.' | '-' | 'e' | 'E' | '+' -> true
         | _ -> false)
    do
      incr stop
    done;
    float_of_string_opt (String.sub s start (!stop - start))

let section title = Printf.printf "\n== %s ==\n" title

let table = U.Table.render
let ff = U.Table.fmt_float
let fi = string_of_int

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Result of the first run, best wall-clock of [k]. *)
let best_of k f =
  let r, t0 = time f in
  let best = ref t0 in
  for _ = 2 to k do
    let _, t = time f in
    if t < !best then best := t
  done;
  (r, !best)

(* Plot-ready artifacts: each figure-like series also lands in
   _artifacts/ as CSV, consumed by _artifacts/plots.gp. *)
let write_artifact name header rows =
  if not (Sys.file_exists "_artifacts") then Sys.mkdir "_artifacts" 0o755;
  let path = Filename.concat "_artifacts" name in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (String.concat "," header);
      output_char oc '\n';
      List.iter
        (fun row ->
          output_string oc (String.concat "," row);
          output_char oc '\n')
        rows);
  Printf.printf "[wrote %s]\n" path

(* Machine-readable kernel timings.  Every [record_kernel] call lands
   in _artifacts/BENCH_kernels.json, which CI uploads as an artifact so
   runs can be compared without scraping the human-readable tables. *)
let bench_entries : (string * float * (string * string) list) list ref = ref []

let record_kernel op seconds stats =
  bench_entries := (op, seconds, stats) :: !bench_entries

let write_bench_json () =
  if not (Sys.file_exists "_artifacts") then Sys.mkdir "_artifacts" 0o755;
  let path = Filename.concat "_artifacts" "BENCH_kernels.json" in
  let esc s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"schema\":1,\"entries\":[";
      List.iteri
        (fun i (op, seconds, stats) ->
          if i > 0 then output_char oc ',';
          Printf.fprintf oc "\n  {\"op\":\"%s\",\"seconds\":%.6f,\"stats\":{"
            (esc op) seconds;
          List.iteri
            (fun j (k, v) ->
              if j > 0 then output_char oc ',';
              Printf.fprintf oc "\"%s\":\"%s\"" (esc k) (esc v))
            stats;
          output_string oc "}}")
        (List.rev !bench_entries);
      output_string oc "\n]}\n");
  Printf.printf "[wrote %s]\n" path

let write_gnuplot_script () =
  if not (Sys.file_exists "_artifacts") then Sys.mkdir "_artifacts" 0o755;
  let oc = open_out "_artifacts/plots.gp" in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        "# gnuplot script regenerating the paper-style figures from the CSVs\n\
         # usage: gnuplot plots.gp   (from inside _artifacts/)\n\
         set datafile separator ','\n\
         set key off\n\
         set terminal pngcairo size 800,600\n\n\
         set output 'figure1_degree_distribution.png'\n\
         set logscale xy\n\
         set xlabel 'Number of complexes a protein belongs to'\n\
         set ylabel 'Frequency'\n\
         plot 'figure1_degree_distribution.csv' every ::1 using 1:2 with points pt 7 ps 1.5\n\n\
         set output 'core_profile.png'\n\
         unset logscale\n\
         set xlabel 'k'\n\
         set ylabel 'size of the k-core'\n\
         set key on\n\
         plot 'core_profile.csv' every ::1 using 1:2 with linespoints title 'proteins', \\\n\
         \     'core_profile.csv' every ::1 using 1:3 with linespoints title 'complexes'\n\n\
         set output 'scaling.png'\n\
         set logscale xy\n\
         set xlabel 'proteins'\n\
         set ylabel 'decomposition time (s)'\n\
         set key off\n\
         plot 'scaling.csv' every ::1 using 2:6 with linespoints pt 7\n")

(* Shared dataset. *)
let dataset = CZ.paper ()
let yeast = dataset.hypergraph

(* ------------------------------------------------------------------ *)
(* E1 / Figure 1: protein degree distribution and power-law fit.      *)

let fig1 () =
  section "E1 / Figure 1: protein degree distribution, power-law fit";
  let hist = Hp_stats.Degree_dist.vertex_histogram yeast in
  Printf.printf "degree -> frequency series (the log-log points of Figure 1):\n";
  let series = Hp_stats.Degree_dist.frequency_series hist in
  print_endline
    (table ~header:[ "degree"; "frequency" ]
       (Array.to_list (Array.map (fun (d, c) -> [ fi d; fi c ]) series)));
  write_artifact "figure1_degree_distribution.csv" [ "degree"; "frequency" ]
    (Array.to_list (Array.map (fun (d, c) -> [ fi d; fi c ]) series));
  let fit = Hp_stats.Powerlaw.fit_loglog hist in
  let mle = Hp_stats.Powerlaw.fit_mle hist in
  let ks = Hp_stats.Powerlaw.ks_distance hist ~gamma:fit.gamma ~dmin:1 in
  print_newline ();
  print_endline
    (table
       ~header:[ "quantity"; "paper"; "measured" ]
       [
         [ "log10(c)"; ff CZ.Reported.powerlaw_log10_c; ff fit.log10_c ];
         [ "gamma (least squares)"; ff CZ.Reported.powerlaw_gamma; ff fit.gamma ];
         [ "R^2"; ff CZ.Reported.powerlaw_r2; ff fit.r2 ];
         [ "gamma (discrete MLE)"; "-"; ff mle.gamma_mle ];
         [ "KS distance"; "-"; ff ks ];
       ])

(* ------------------------------------------------------------------ *)
(* E2 / Section 2: components, degrees, small world.                  *)

let sec2 () =
  section "E2 / Section 2: network statistics";
  let summary = HP.component_summary yeast in
  let nv0, ne0 = summary.(0) in
  let deg1 =
    Array.fold_left (fun a d -> if d = 1 then a + 1 else a) 0 (H.vertex_degrees yeast)
  in
  let (diam, apl), t = time (fun () -> HP.diameter_and_average_path yeast) in
  print_endline
    (table
       ~header:[ "quantity"; "paper"; "measured" ]
       [
         [ "proteins"; fi CZ.Reported.n_proteins; fi (H.n_vertices yeast) ];
         [ "complexes"; fi CZ.Reported.n_complexes; fi (H.n_edges yeast) ];
         [ "connected components"; fi CZ.Reported.n_components;
           fi (Array.length summary) ];
         [ "largest component proteins"; fi CZ.Reported.largest_component_proteins;
           fi nv0 ];
         [ "largest component complexes"; fi CZ.Reported.largest_component_complexes;
           fi ne0 ];
         [ "degree-1 proteins"; fi CZ.Reported.degree_one_proteins; fi deg1 ];
         [ "max protein degree"; fi CZ.Reported.max_degree;
           fi (H.max_vertex_degree yeast) ];
         [ "max-degree protein"; "ADH1"; H.vertex_name yeast dataset.adh1 ];
         [ "diameter"; fi CZ.Reported.diameter; fi diam ];
         [ "average path length"; ff CZ.Reported.average_path; ff apl ];
       ]);
  Printf.printf "(all-pairs BFS sweep: %s)\n" (U.Table.fmt_time t);
  let rng = U.Prng.create 2026 in
  let sw = Hp_stats.Smallworld.assess_hypergraph rng ~trials:3 yeast in
  Printf.printf
    "small-world check: L = %s vs degree-preserving null L = %s (diameter %d vs %s)\n"
    (ff sw.average_path) (ff sw.null_average_path_mean) sw.diameter
    (ff sw.null_diameter_mean)

(* ------------------------------------------------------------------ *)
(* E3 / Figure 2: the graph k-core illustration.                      *)

let fig2_graph () =
  G.of_edges ~n:9
    [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3);
      (0, 4); (4, 5); (5, 6); (1, 7); (2, 8) ]

let fig2 () =
  section "E3 / Figure 2: k-core of a graph (illustration re-encoded)";
  let g = fig2_graph () in
  let d = GC.decompose g in
  Printf.printf "max core = %d (paper's figure: 3)\n" d.max_core;
  print_endline
    (table
       ~header:[ "k"; "vertices in k-core" ]
       (List.init (d.max_core + 1) (fun k ->
            [ fi k; fi (Array.length (GC.k_core_vertices g k)) ])))

(* ------------------------------------------------------------------ *)
(* E4 / Section 3: maximum core of the yeast hypergraph.              *)

let sec3_core () =
  section "E4 / Section 3: core proteome (hypergraph maximum core)";
  let (k, r), t = time (fun () -> HC.max_core yeast) in
  print_endline
    (table
       ~header:[ "quantity"; "paper"; "measured" ]
       [
         [ "maximum core index"; fi CZ.Reported.max_core; fi k ];
         [ "core proteins"; fi CZ.Reported.core_proteins; fi (H.n_vertices r.core) ];
         [ "core complexes"; fi CZ.Reported.core_complexes; fi (H.n_edges r.core) ];
         [ "run time"; "0.47 s (2 GHz Xeon, 2004)"; U.Table.fmt_time t ];
       ])

(* ------------------------------------------------------------------ *)
(* E5 / Section 3: enrichment of the core proteome.                   *)

let sec3_enrichment () =
  section "E5 / Section 3: core proteome enrichment";
  let _, r = HC.max_core yeast in
  let rng = U.Prng.create 2026 in
  let ann = Hp_data.Annotations.generate rng dataset in
  let rep = Hp_data.Annotations.core_report ann ~protein_ids:r.vertex_ids in
  print_endline
    (table
       ~header:[ "quantity"; "paper"; "measured" ]
       [
         [ "core proteins"; "41"; fi rep.core_size ];
         [ "unknown / unknown function"; "9"; fi rep.unknown ];
         [ "essential among known"; "22 of 32";
           Printf.sprintf "%d of %d" rep.known_essential rep.known_total ];
         [ "with reported homologs"; "24"; fi rep.homologs ];
         [ "genome essential / non-essential"; "878 / 3158";
           Printf.sprintf "%d / %d" ann.genome_essential ann.genome_nonessential ];
       ]);
  let e = rep.essential_enrichment in
  Printf.printf
    "essentiality enrichment: %s%% in core vs %s%% genome-wide (fold %s, \
     hypergeometric p = %.3e)\n"
    (ff (100.0 *. e.sample_fraction))
    (ff (100.0 *. e.population_fraction))
    (ff e.fold) e.p_value

(* ------------------------------------------------------------------ *)
(* E6 / Section 3: DIP protein interaction graph cores.               *)

let sec3_dip () =
  section "E6 / Section 3: DIP protein-protein interaction graph cores";
  let row name (net : Hp_data.Dip.network) paper_n paper_k paper_size =
    let d, t = time (fun () -> GC.decompose net.graph) in
    let size =
      Array.fold_left (fun a c -> if c = d.max_core then a + 1 else a) 0 d.core_number
    in
    [
      name;
      Printf.sprintf "%d / k=%d / %d" paper_n paper_k paper_size;
      Printf.sprintf "%d / k=%d / %d" (G.n_vertices net.graph) d.max_core size;
      U.Table.fmt_time t;
    ]
  in
  print_endline
    (table
       ~header:
         [ "network"; "paper (proteins / max core / size)"; "measured"; "time" ]
       [
         row "DIP yeast" (Hp_data.Dip.yeast ()) Hp_data.Dip.Reported.yeast_proteins
           Hp_data.Dip.Reported.yeast_max_core Hp_data.Dip.Reported.yeast_core_size;
         row "DIP drosophila" (Hp_data.Dip.drosophila ())
           Hp_data.Dip.Reported.drosophila_proteins
           Hp_data.Dip.Reported.drosophila_max_core
           Hp_data.Dip.Reported.drosophila_core_size;
       ])

(* ------------------------------------------------------------------ *)
(* E7 / Table 1: core statistics over Cellzome + matrix hypergraphs.  *)

let table1 () =
  section "E7 / Table 1: hypergraph core statistics (synthetic Matrix Market suite)";
  if quick then print_endline "(--quick: largest instance skipped)";
  let instances =
    ("cellzome", yeast)
    :: (MM.synthetic_suite ()
       |> List.filter (fun (name, _) -> not (quick && name = "fidapm11-like"))
       |> List.map (fun (name, m) -> (name, MM.to_hypergraph m)))
  in
  let rows =
    List.map
      (fun (name, h) ->
        let d2f = H.max_edge_degree2 h in
        let d, t = time (fun () -> HC.decompose h) in
        let core_v =
          Array.fold_left
            (fun a c -> if c >= d.max_core then a + 1 else a)
            0 d.vertex_core
        in
        let core_e =
          Array.fold_left (fun a c -> if c >= d.max_core then a + 1 else a) 0 d.edge_core
        in
        [
          name; fi (H.n_vertices h); fi (H.n_edges h); fi (H.total_incidence h);
          fi (H.max_vertex_degree h); fi (H.max_edge_size h); fi d2f;
          fi d.max_core; fi core_v; fi core_e; U.Table.fmt_time t;
        ])
      instances
  in
  print_endline
    (table
       ~header:
         [ "hypergraph"; "|V|"; "|F|"; "|E|"; "dV"; "dF"; "d2F"; "max core";
           "core |V|"; "core |F|"; "time" ]
       rows);
  print_endline
    "(the paper's Table 1 reports the same columns for bfw/fidap/stk/utm matrices;\n\
    \ absolute times differ -- 2 GHz Xeon, 2004, per-k algorithm -- but the shape\n\
    \ holds: run time grows sharply with |E| and Delta_2F, largest instance slowest)"

(* ------------------------------------------------------------------ *)
(* E8 / Figure 3: Pajek export.                                       *)

let fig3 () =
  section "E8 / Figure 3: Pajek export of the bipartite drawing";
  let _, r = HC.max_core yeast in
  let net, clu =
    Hp_data.Pajek.write_figure3 ~dir:"_artifacts" ~prefix:"figure3_yeast" yeast
      ~core_vertices:r.vertex_ids ~core_edges:r.edge_ids
  in
  Printf.printf
    "wrote %s (%d nodes) and %s (4 classes: periphery/core x protein/complex)\n" net
    (H.n_vertices yeast + H.n_edges yeast)
    clu

(* ------------------------------------------------------------------ *)
(* E9 / Section 4: vertex covers as bait selection.                   *)

let sec4 () =
  section "E9 / Section 4 + Figure 5: bait selection by vertex covers";
  let avg = Hp_cover.Cover.average_degree yeast in
  let unweighted, tu = time (fun () -> Hp_cover.Greedy.vertex_cover yeast) in
  let w2 = Hp_cover.Weighting.degree_squared yeast in
  let weighted, tw = time (fun () -> Hp_cover.Greedy.vertex_cover ~weights:w2 yeast) in
  let reqs = Hp_cover.Multicover.uniform_requirements yeast ~r:2 in
  let mc, tm =
    time (fun () -> Hp_cover.Multicover.solve ~weights:w2 ~requirements:reqs yeast)
  in
  assert (Hp_cover.Cover.is_cover yeast unweighted);
  assert (Hp_cover.Cover.is_cover yeast weighted);
  assert (Hp_cover.Cover.is_multicover yeast ~requirements:reqs mc.cover);
  print_endline
    (table
       ~header:[ "bait set"; "paper size"; "size"; "paper avg deg"; "avg deg"; "time" ]
       [
         [ "greedy min-cardinality cover"; fi CZ.Reported.greedy_cover_size;
           fi (Array.length unweighted); ff CZ.Reported.greedy_cover_avg_degree;
           ff (avg unweighted); U.Table.fmt_time tu ];
         [ "greedy degree^2-weighted cover"; fi CZ.Reported.weighted_cover_size;
           fi (Array.length weighted); ff CZ.Reported.weighted_cover_avg_degree;
           ff (avg weighted); U.Table.fmt_time tw ];
         [ "greedy 2-multicover"; fi CZ.Reported.multicover_size;
           fi (Array.length mc.cover); ff CZ.Reported.multicover_avg_degree;
           ff (avg mc.cover); U.Table.fmt_time tm ];
         [ "historical productive baits"; fi CZ.Reported.productive_baits;
           fi (Array.length dataset.historical_baits);
           ff CZ.Reported.bait_average_degree;
           ff (avg dataset.historical_baits); "-" ];
       ]);
  Printf.printf
    "complexes covered twice by the multicover: %d (paper: %d; %d singletons excluded)\n"
    (Hp_cover.Multicover.covered_edges ~requirements:reqs)
    CZ.Reported.multicover_complexes CZ.Reported.singleton_complexes;
  Printf.printf
    "shape: unweighted cover is small but promiscuous (avg degree %s);\n\
    \ degree^2 weighting trades size for unambiguous low-degree baits (avg %s);\n\
    \ the 2-multicover costs ~%sx the weighted cover -- the orderings the paper \
     reports.\n"
    (ff (avg unweighted)) (ff (avg weighted))
    (ff ~digits:1
       (float_of_int (Array.length mc.cover) /. float_of_int (Array.length weighted)))

(* ------------------------------------------------------------------ *)
(* E10: storage ablation (Sections 1.2-1.3).                          *)

let storage () =
  section "E10: storage of the competing representations";
  let r = ST.measure yeast in
  print_endline
    (table
       ~header:[ "representation"; "incidence entries" ]
       [
         [ "hypergraph (|E|)"; fi r.hypergraph_entries ];
         [ "protein graph, clique expansion"; fi r.clique_entries ];
         [ "  (before pair dedup)"; fi r.clique_entries_raw ];
         [ "protein graph, star expansion"; fi r.star_entries ];
         [ "complex intersection graph"; fi r.intersection_entries ];
       ]);
  print_newline ();
  let rows =
    List.map
      (fun n ->
        let h = H.create ~n_vertices:n [ List.init n Fun.id ] in
        let m = ST.measure h in
        [ fi n; fi m.hypergraph_entries; fi m.clique_entries ])
      [ 10; 20; 40; 80 ]
  in
  print_endline
    (table ~header:[ "complex size n"; "hypergraph O(n)"; "clique O(n^2)" ] rows)

(* ------------------------------------------------------------------ *)
(* E11: maximality-strategy ablation inside the k-core algorithm.     *)

let ablation_maximality () =
  section "E11: overlap-count vs subset-scan maximality (k-core ablation)";
  let suite = MM.synthetic_suite () in
  let instances =
    [ ("cellzome", yeast);
      ("bfw398-like", MM.to_hypergraph (List.assoc "bfw398-like" suite));
      ("fidap035-like", MM.to_hypergraph (List.assoc "fidap035-like" suite)) ]
  in
  let rows =
    List.map
      (fun (name, h) ->
        (* Peel down to the maximum core so the maximality machinery is
           actually exercised. *)
        let k = (HC.decompose h).max_core in
        let a, ta = best_of 3 (fun () -> HC.k_core ~strategy:HC.Overlap h k) in
        let b, tb = best_of 3 (fun () -> HC.k_core ~strategy:HC.Naive h k) in
        assert (H.equal_structure a.core b.core);
        let checks_ratio =
          float_of_int a.stats.maximality_checks
          /. float_of_int (max 1 b.stats.maximality_checks)
        in
        ( tb /. ta,
          checks_ratio,
          [
            name; fi k;
            fi a.stats.maximality_checks; U.Table.fmt_time ta;
            fi b.stats.maximality_checks; U.Table.fmt_time tb;
            ff ~digits:2 (tb /. ta) ^ "x";
          ] ))
      instances
  in
  print_endline
    (table
       ~header:
         [ "hypergraph"; "k"; "overlap checks"; "overlap time"; "naive checks";
           "naive time"; "naive/overlap" ]
       (List.map (fun (_, _, row) -> row) rows));
  let faster = List.length (List.filter (fun (r, _, _) -> r > 1.0) rows) in
  let most_checks = List.fold_left (fun acc (_, c, _) -> max acc c) 0.0 rows in
  Printf.printf
    "(both strategies produce identical cores; the overlap kernel was faster\n\
    \ on %d of %d instances.  It makes up to %.0fx the anchored subset scan's\n\
    \ containment checks where Delta_2F is large, but each is one array read)\n"
    faster (List.length rows) most_checks

(* ------------------------------------------------------------------ *)
(* E12: primal-dual vs greedy covers (the paper's 'current work').    *)

let ext_primal_dual () =
  section "E12: primal-dual cover vs greedy (extension)";
  let w2 = Hp_cover.Weighting.degree_squared yeast in
  let rows =
    List.map
      (fun (name, weights) ->
        let g, tg = time (fun () -> Hp_cover.Greedy.vertex_cover ?weights yeast) in
        let (pd, duals), tp =
          time (fun () -> Hp_cover.Primal_dual.vertex_cover_with_duals ?weights yeast)
        in
        let wsum set =
          match weights with
          | None -> float_of_int (Array.length set)
          | Some w -> Hp_cover.Cover.total_weight ~weights:w set
        in
        let lower = Array.fold_left ( +. ) 0.0 duals in
        [
          name;
          Printf.sprintf "%d (w=%s)" (Array.length g) (ff (wsum g));
          Printf.sprintf "%d (w=%s)" (Array.length pd) (ff (wsum pd));
          ff lower;
          U.Table.fmt_time tg;
          U.Table.fmt_time tp;
        ])
      [ ("uniform", None); ("degree^2", Some w2) ]
  in
  print_endline
    (table
       ~header:
         [ "weighting"; "greedy cover"; "primal-dual cover"; "dual lower bound";
           "greedy time"; "pd time" ]
       rows);
  print_endline
    "(greedy wins under uniform weights; primal-dual can win under degree^2 --\n\
    \ echoing the paper's remark that it is 'not clear if these algorithms will\n\
    \ be practically inferior or superior'; the dual sum lower-bounds the optimum)"

(* ------------------------------------------------------------------ *)
(* E13: TAP reliability simulation (extension).                       *)

let ext_tap_reliability () =
  section "E13: TAP reliability simulation at 70% reproducibility (extension)";
  let w2 = Hp_cover.Weighting.degree_squared yeast in
  let reqs = Hp_cover.Multicover.uniform_requirements yeast ~r:2 in
  let strategies =
    [
      ("greedy min-cardinality", Hp_cover.Greedy.vertex_cover yeast);
      ("greedy degree^2", Hp_cover.Greedy.vertex_cover ~weights:w2 yeast);
      ( "greedy 2-multicover",
        (Hp_cover.Multicover.solve ~weights:w2 ~requirements:reqs yeast).cover );
      ("historical baits", dataset.historical_baits);
    ]
  in
  let rows =
    List.map
      (fun (name, baits) ->
        let rng = U.Prng.create 1970 in
        let r =
          Hp_data.Tap_experiment.assess rng yeast ~baits ~reproducibility:0.7
            ~trials:200
        in
        [
          name;
          fi (Array.length baits);
          fi r.coverable;
          ff (100.0 *. r.mean_identified_fraction) ^ "%";
          ff (100.0 *. r.mean_twice_identified_fraction) ^ "%";
          fi r.always_identified;
        ])
      strategies
  in
  print_endline
    (table
       ~header:
         [ "bait strategy"; "baits"; "coverable"; "identified/run";
           "identified 2x/run"; "always found" ]
       rows);
  print_endline
    "(the 2-multicover's redundancy is what the paper proposes: confident\n\
    \ two-sighting identifications jump while single covers leave a missed tail)"

(* ------------------------------------------------------------------ *)
(* E14: cross-organism bait transfer (extension).                     *)

let ext_cross_organism () =
  section "E14: bait transfer to a related organism (extension)";
  let rng = U.Prng.create 1492 in
  let ortholog = Hp_data.Ortholog.perturb rng yeast in
  Printf.printf
    "ortholog model: %d memberships lost, %d gained, %d complexes dropped\n"
    ortholog.lost_memberships ortholog.gained_memberships ortholog.dropped_complexes;
  let w2 = Hp_cover.Weighting.degree_squared yeast in
  let reqs = Hp_cover.Multicover.uniform_requirements yeast ~r:2 in
  let rows =
    List.map
      (fun (name, baits) ->
        let r = Hp_data.Ortholog.transfer_report ortholog ~baits in
        [
          name; fi r.baits; fi r.covered;
          fi r.coverable_complexes;
          ff (100.0 *. r.coverage_fraction) ^ "%";
          fi r.covered_twice;
        ])
      [
        ("greedy min-cardinality", Hp_cover.Greedy.vertex_cover yeast);
        ("greedy degree^2", Hp_cover.Greedy.vertex_cover ~weights:w2 yeast);
        ( "greedy 2-multicover",
          (Hp_cover.Multicover.solve ~weights:w2 ~requirements:reqs yeast).cover );
      ]
  in
  print_endline
    (table
       ~header:
         [ "bait set (chosen on yeast)"; "baits"; "covered"; "coverable";
           "coverage"; "covered 2x" ]
       rows);
  print_endline
    "(redundant covers degrade gracefully under membership divergence --\n\
    \ the paper's model-organism use case)"

(* ------------------------------------------------------------------ *)
(* E15: parallel-depth groundwork (batch peeling rounds).             *)

let ext_peel_rounds () =
  section "E15: synchronous peeling rounds (parallel-depth groundwork)";
  let suite = MM.synthetic_suite () in
  let instances =
    [ ("cellzome", yeast, 6);
      ("bfw398-like", MM.to_hypergraph (List.assoc "bfw398-like" suite), 13);
      ("stk21-like", MM.to_hypergraph (List.assoc "stk21-like" suite), 28) ]
  in
  let rows =
    List.map
      (fun (name, h, k) ->
        let r = HC.peel_rounds h k in
        let biggest = Array.fold_left max 0 r.batch_sizes in
        [
          name; fi k; fi r.rounds; fi biggest;
          fi r.core_vertices; fi r.core_edges;
        ])
      instances
  in
  print_endline
    (table
       ~header:
         [ "hypergraph"; "k"; "rounds"; "largest batch"; "core |V|"; "core |F|" ]
       rows);
  print_endline
    "(the round count is the depth a parallel peel would need -- the paper's\n\
    \ closing observation that large hypergraphs demand a parallel algorithm)"

(* ------------------------------------------------------------------ *)
(* E16: correlation profile of the graph baselines (Section 1.2).     *)

let ext_correlation_profile () =
  section "E16: clustering inflation of the clique expansion (Section 1.2 + ref [8])";
  let module GA = Hp_graph.Graph_algo in
  let module GG = Hp_graph.Graph_gen in
  let clique = HCV.clique_expansion yeast in
  let star = HCV.star_expansion yeast ~centers:(HCV.default_centers yeast) in
  let profile name g =
    let rng = U.Prng.create 8128 in
    let null = GG.maslov_sneppen rng g ~rounds:10 in
    [
      name;
      ff (GA.average_clustering g);
      ff (GA.average_clustering null);
      ff (GA.degree_assortativity g);
      ff (GA.degree_assortativity null);
    ]
  in
  print_endline
    (table
       ~header:
         [ "protein graph model"; "clustering"; "MS-null clustering";
           "assortativity"; "MS-null assortativity" ]
       [ profile "clique expansion" clique; profile "star expansion" star ]);
  print_endline
    "(the clique expansion's clustering dwarfs its degree-preserving null --\n\
    \ the 'unusually high clustering coefficients' the paper cites as evidence\n\
    \ that the all-pairs assumption distorts the network; the star expansion\n\
    \ errs the opposite way, sitting at or below its null)"

(* ------------------------------------------------------------------ *)
(* E17: core profile vs degree-preserving null (extension).           *)

let ext_core_profile () =
  section "E17: core profile of yeast vs degree-preserving null (extension)";
  let profile h = HC.core_profile (HC.decompose h) in
  let obs = profile yeast in
  (* Mean max core over null rewirings. *)
  let rng = U.Prng.create 6174 in
  let trials = 5 in
  let null_max = ref 0 and null_sum = ref 0 in
  for _ = 1 to trials do
    let null = Hp_hypergraph.Hypergraph_gen.degree_preserving_shuffle rng yeast ~rounds:10 in
    let k = (HC.decompose null).max_core in
    null_sum := !null_sum + k;
    if k > !null_max then null_max := k
  done;
  let profile_rows =
    Array.to_list (Array.map (fun (k, nv, ne) -> [ fi k; fi nv; fi ne ]) obs)
  in
  print_endline
    (table ~header:[ "k"; "k-core proteins"; "k-core complexes" ] profile_rows);
  write_artifact "core_profile.csv" [ "k"; "proteins"; "complexes" ] profile_rows;
  Printf.printf
    "max core: observed %d vs degree-preserving null mean %s (max %d over %d trials)\n"
    (let k, _, _ = obs.(Array.length obs - 1) in k)
    (ff (float_of_int !null_sum /. float_of_int trials))
    !null_max trials;
  (* Thresholded intersection graph: how complex-complex structure
     thins as the required overlap s grows. *)
  let rows =
    List.map
      (fun s ->
        let g = HCV.intersection_graph_min_overlap yeast ~s in
        let sizes = Hp_graph.Graph_algo.component_sizes g in
        [
          fi s;
          fi (G.n_edges g);
          fi (Array.length sizes);
          fi (if Array.length sizes > 0 then sizes.(0) else 0);
        ])
      [ 1; 2; 3; 4 ]
  in
  print_newline ();
  print_endline
    (table
       ~header:
         [ "min shared proteins s"; "intersection edges"; "components"; "largest" ]
       rows);
  print_endline
    "(the core survives because the complexes share sub-assemblies, not just\n\
    \ single proteins: raising s thins incidental overlaps first)"

(* ------------------------------------------------------------------ *)
(* E18: network reconstruction from purifications (extension).        *)

let ext_reconstruction () =
  section "E18: complex network reconstruction from noisy purifications (extension)";
  let w2 = Hp_cover.Weighting.degree_squared yeast in
  let reqs = Hp_cover.Multicover.uniform_requirements yeast ~r:2 in
  let strategies =
    [
      ("greedy min-cardinality", Hp_cover.Greedy.vertex_cover yeast);
      ("greedy degree^2", Hp_cover.Greedy.vertex_cover ~weights:w2 yeast);
      ( "greedy 2-multicover",
        (Hp_cover.Multicover.solve ~weights:w2 ~requirements:reqs yeast).cover );
      ("historical baits", dataset.historical_baits);
    ]
  in
  let rows =
    List.map
      (fun (name, baits) ->
        let rng = U.Prng.create 424242 in
        let purifications =
          Hp_data.Purification.run_experiment rng yeast ~baits ~reproducibility:0.7
            ~dropout:0.1 ~contamination:0.2
        in
        let recon =
          Hp_data.Purification.reconstruct ~n_vertices:(H.n_vertices yeast)
            purifications
        in
        let a = Hp_data.Purification.compare_to_truth ~truth:yeast recon in
        [
          name;
          fi (Array.length baits);
          fi (List.length purifications);
          fi a.reconstructed;
          Printf.sprintf "%d/%d" a.matched a.true_complexes;
          fi a.spurious;
          ff a.mean_best_jaccard;
        ])
      strategies
  in
  print_endline
    (table
       ~header:
         [ "bait strategy"; "baits"; "purifications"; "reconstructed";
           "matched"; "spurious"; "mean Jaccard" ]
       rows);
  print_endline
    "(end-to-end fidelity of the recovered network under the Section 1.1 noise\n\
    \ model.  Note the tension with E13: redundant bait sets see more complexes\n\
    \ per run, but their extra purifications chain-merge overlapping complexes\n\
    \ during assembly, lowering exact-match counts -- reconstruction fidelity\n\
    \ depends on the merge heuristic as much as on coverage)"

(* ------------------------------------------------------------------ *)
(* E19: scaling toward larger proteomes (extension).                  *)

let ext_scaling () =
  section "E19: k-core scaling toward larger proteomes (extension)";
  let factors = if quick then [ 1.0; 2.0; 4.0 ] else [ 1.0; 2.0; 4.0; 8.0; 16.0 ] in
  let rows =
    List.map
      (fun factor ->
        let rng = U.Prng.create 5050 in
        let params = Hp_data.Proteome_gen.scaled Hp_data.Proteome_gen.cellzome_params factor in
        let p = Hp_data.Proteome_gen.generate rng params in
        let h = p.hypergraph in
        let d, t = time (fun () -> HC.decompose h) in
        record_kernel "decompose:scaled-proteome" t
          [
            ("scale", ff ~digits:0 factor);
            ("proteins", fi (H.n_vertices h));
            ("complexes", fi (H.n_edges h));
            ("incidence", fi (H.total_incidence h));
            ("max_core", fi d.max_core);
          ];
        [
          ff ~digits:0 factor;
          fi (H.n_vertices h); fi (H.n_edges h); fi (H.total_incidence h);
          fi d.max_core; ff ~digits:4 t;
        ])
      factors
  in
  print_endline
    (table
       ~header:[ "scale"; "proteins"; "complexes"; "|E|"; "max core"; "decompose (s)" ]
       rows);
  write_artifact "scaling.csv"
    [ "scale"; "proteins"; "complexes"; "incidence"; "max_core"; "seconds" ] rows;
  write_gnuplot_script ();
  print_endline
    "(16x the Cellzome study is roughly the ~20k-protein human proteome the\n\
    \ paper anticipates; the one-pass decomposition keeps it interactive)"

(* ------------------------------------------------------------------ *)
(* E20: multicore speedups (the parallel algorithm the paper calls    *)
(* for, on the embarrassingly parallel phases).                       *)

let ext_parallel () =
  section "E20: multicore speedups via OCaml domains (extension)";
  Printf.printf "recommended domains on this machine: %d\n"
    (U.Parallel.recommended_domains ());
  let big =
    let rng = U.Prng.create 5050 in
    (Hp_data.Proteome_gen.generate rng
       (Hp_data.Proteome_gen.scaled Hp_data.Proteome_gen.cellzome_params 8.0))
      .hypergraph
  in
  let utm = MM.to_hypergraph (List.assoc "utm5940-like" (MM.synthetic_suite ())) in
  let workloads =
    [
      ("yeast all-pairs BFS sweep",
       fun domains -> ignore (HP.diameter_and_average_path ~domains yeast));
      ("8x-proteome all-pairs BFS sweep",
       fun domains -> ignore (HP.diameter_and_average_path ~domains big));
      ("utm5940-like core decomposition",
       fun domains -> ignore (HC.decompose ~domains utm));
    ]
  in
  let rows =
    List.map
      (fun (name, run) ->
        let t1 = snd (time (fun () -> run 1)) in
        let t2 = snd (time (fun () -> run 2)) in
        let t4 = snd (time (fun () -> run 4)) in
        List.iter
          (fun (domains, t) ->
            record_kernel ("parallel:" ^ name) t
              [ ("domains", fi domains) ])
          [ (1, t1); (2, t2); (4, t4) ];
        [
          name;
          U.Table.fmt_time t1; U.Table.fmt_time t2; U.Table.fmt_time t4;
          ff ~digits:2 (t1 /. t4) ^ "x";
        ])
      workloads
  in
  print_endline
    (table
       ~header:[ "workload"; "1 domain"; "2 domains"; "4 domains"; "speedup @4" ]
       rows);
  if U.Parallel.recommended_domains () <= 1 then
    print_endline
      "(this machine exposes a single core, so extra domains only add overhead\n\
      \ here; on a multicore host the BFS sweep scales near-linearly.  The\n\
      \ multi-domain results are bit-identical to sequential ones in every\n\
      \ configuration -- property-tested)"
  else
    print_endline
      "(the BFS sweep is embarrassingly parallel and scales; the core\n\
      \ decomposition only parallelizes its overlap-construction phase, the\n\
      \ peeling cascade itself being the sequential part the paper's called-for\n\
      \ parallel algorithm would have to attack -- see E15 for its depth)"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one per table/figure workload.          *)

let bechamel_pass () =
  let open Bechamel in
  section "Bechamel timings (one benchmark per table/figure workload)";
  let hist = Hp_stats.Degree_dist.vertex_histogram yeast in
  let small_graph = fig2_graph () in
  let dip_yeast = (Hp_data.Dip.yeast ()).graph in
  let bfw = MM.to_hypergraph (List.assoc "bfw398-like" (MM.synthetic_suite ())) in
  let w2 = Hp_cover.Weighting.degree_squared yeast in
  let reqs = Hp_cover.Multicover.uniform_requirements yeast ~r:2 in
  let tests =
    [
      Test.make ~name:"fig1:powerlaw-fit"
        (Staged.stage (fun () -> ignore (Hp_stats.Powerlaw.fit_loglog hist)));
      Test.make ~name:"sec2:hypergraph-bfs"
        (Staged.stage (fun () -> ignore (HP.bfs yeast 0)));
      Test.make ~name:"fig2:graph-kcore-example"
        (Staged.stage (fun () -> ignore (GC.decompose small_graph)));
      Test.make ~name:"sec3:hypergraph-kcore-yeast"
        (Staged.stage (fun () -> ignore (HC.decompose yeast)));
      Test.make ~name:"sec3:graph-kcore-dip-yeast"
        (Staged.stage (fun () -> ignore (GC.decompose dip_yeast)));
      Test.make ~name:"table1:hypergraph-kcore-bfw398"
        (Staged.stage (fun () -> ignore (HC.decompose bfw)));
      Test.make ~name:"sec4:greedy-cover"
        (Staged.stage (fun () -> ignore (Hp_cover.Greedy.vertex_cover yeast)));
      Test.make ~name:"sec4:greedy-multicover"
        (Staged.stage (fun () ->
             ignore (Hp_cover.Multicover.solve ~weights:w2 ~requirements:reqs yeast)));
      Test.make ~name:"e10:clique-expansion"
        (Staged.stage (fun () -> ignore (HCV.clique_expansion yeast)));
      Test.make ~name:"e11:kcore-naive-bfw398"
        (Staged.stage (fun () -> ignore (HC.k_core ~strategy:HC.Naive bfw 3)));
    ]
  in
  let grouped = Test.make_grouped ~name:"hyperprot" tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let quota = Time.second (if quick then 0.5 else 2.0) in
  let cfg = Benchmark.cfg ~limit:200 ~quota ~kde:None () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] grouped in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (x :: _) -> x
        | Some [] | None -> nan
      in
      rows := [ name; ff ~digits:3 (ns /. 1e6) ^ " ms/run" ] :: !rows)
    results;
  let rows = List.sort compare !rows in
  print_endline (table ~header:[ "benchmark"; "monotonic clock" ] rows)

(* ------------------------------------------------------------------ *)
(* Kernel profile: timings plus the counters the kernels now surface  *)
(* (peel rounds, maximality checks, BFS sources) — the same numbers   *)
(* hgd exports as kernel_* gauges, here in BENCH_kernels.json form.   *)

let kernel_profile () =
  section "kernel profile (peel rounds, maximality checks, BFS sources)";
  let r, t = time (fun () -> HC.k_core yeast 3) in
  record_kernel "kcore:yeast:k3" t
    [
      ("peel_rounds", fi r.stats.peel_rounds);
      ("maximality_checks", fi r.stats.maximality_checks);
      ("vertices_deleted", fi r.stats.vertices_deleted);
      ("edges_deleted", fi r.stats.edges_deleted);
    ];
  Printf.printf
    "3-core peel: %d rounds, %d maximality checks, %d vertices peeled\n"
    r.stats.peel_rounds r.stats.maximality_checks r.stats.vertices_deleted;
  let stats = HP.sweep_stats () in
  let (diam, apl), t = time (fun () -> HP.diameter_and_average_path ~stats yeast) in
  record_kernel "sweep:yeast:exact" t
    [
      ("bfs_sources", fi (HP.sources_visited stats));
      ("diameter", fi diam);
      ("average_path", Printf.sprintf "%.4f" apl);
    ];
  let sstats = HP.sweep_stats () in
  let (sdiam, sapl), st =
    time (fun () ->
        HP.sampled_diameter_and_average_path ~stats:sstats (U.Prng.create 2004)
          yeast ~samples:100)
  in
  record_kernel "sweep:yeast:sampled100" st
    [
      ("bfs_sources", fi (HP.sources_visited sstats));
      ("diameter", fi sdiam);
      ("average_path", Printf.sprintf "%.4f" sapl);
    ];
  Printf.printf
    "exact sweep: %d sources in %.4fs; 100-sample estimate: %.4fs \
     (diameter %d vs %d)\n"
    (HP.sources_visited stats) t st diam sdiam

(* ------------------------------------------------------------------ *)
(* E21: path-kernel bench.  The bit-parallel sweep against its oracle, *)
(* the plain one-source [HP.bfs] folded over the same sources, on the  *)
(* paper instance and a generated scaled proteome, exact and sampled.  *)
(* Lands in _artifacts/BENCH_path.json; CI guards the speedup ratio.   *)

(* (diameter, average path) from per-source BFS, averaged exactly as
   the sweeps average. *)
let bfs_fold h sources =
  let sum = ref 0 and pairs = ref 0 and dmax = ref 0 in
  Array.iter
    (fun src ->
      Array.iter
        (fun d ->
          if d > 0 then begin
            sum := !sum + d;
            incr pairs;
            if d > !dmax then dmax := d
          end)
        (HP.bfs h src))
    sources;
  (!dmax, if !pairs = 0 then 0.0 else float_of_int !sum /. float_of_int !pairs)

type path_row = {
  pname : string;
  nv : int;
  ne : int;
  oracle_s : float;
  s1 : float;
  s2 : float;
  s4 : float;
  speedup : float;
  diam : int;
  apl : float;
}

(* The sampled sweeps E21 verifies: [path_samples] sources drawn from
   [path_sample_seed], as [HP.sampled_diameter_and_average_path]
   documents. *)
let path_samples = 100
let path_sample_seed = 2004

let write_path_json rows =
  if not (Sys.file_exists "_artifacts") then Sys.mkdir "_artifacts" 0o755;
  let path = Filename.concat "_artifacts" "BENCH_path.json" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc
        "{\"schema\":2,\"domains_verified\":\"1,2,4,7\",\"sampled_sources\":%d,\
         \"sweeps\":["
        path_samples;
      List.iteri
        (fun i r ->
          if i > 0 then output_char oc ',';
          Printf.fprintf oc
            "\n  {\"name\":\"%s\",\"vertices\":%d,\"hyperedges\":%d,\
             \"oracle_s\":%.6f,\"sweep_1dom_s\":%.6f,\
             \"sweep_2dom_s\":%.6f,\"sweep_4dom_s\":%.6f,\
             \"speedup_1dom\":%.4f,\
             \"oracle_us_per_source\":%.3f,\"sweep_us_per_source\":%.3f,\
             \"diameter\":%d,\"average_path\":%.6f}"
            r.pname r.nv r.ne r.oracle_s r.s1 r.s2 r.s4 r.speedup
            (r.oracle_s *. 1e6 /. float_of_int (max 1 r.nv))
            (r.s1 *. 1e6 /. float_of_int (max 1 r.nv))
            r.diam r.apl)
        rows;
      output_string oc "\n]}\n");
  Printf.printf "[wrote %s]\n" path

(* Minimal field scraping for the baseline file — the schema is ours
   and flat, so a scanner beats pulling in a JSON dependency.  Returns
   each entry's [field] (default the speedup) by name. *)
let baseline_speedups ?(field = "speedup_1dom") path =
  let ic = open_in path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let find_from key start =
    let kl = String.length key in
    let rec scan i =
      if i + kl > String.length text then None
      else if String.sub text i kl = key then Some (i + kl)
      else scan (i + 1)
    in
    scan start
  in
  let token_at i =
    let stop = ref i in
    while
      !stop < String.length text
      && not (List.mem text.[!stop] [ ','; '}'; ']'; '"'; '\n' ])
    do
      incr stop
    done;
    String.sub text i (!stop - i)
  in
  let rec collect acc pos =
    match find_from "\"name\":\"" pos with
    | None -> List.rev acc
    | Some i ->
      let name =
        let stop = String.index_from text i '"' in
        String.sub text i (stop - i)
      in
      (match find_from ("\"" ^ field ^ "\":") i with
      | None -> List.rev acc
      | Some j ->
        let v = float_of_string_opt (token_at j) in
        let acc = match v with Some s -> (name, s) :: acc | None -> acc in
        collect acc j)
  in
  collect [] 0

let path_bench () =
  section "E21: bit-parallel path sweep vs per-source BFS oracle (extension)";
  let scaled =
    let rng = U.Prng.create 5050 in
    (Hp_data.Proteome_gen.generate rng
       (Hp_data.Proteome_gen.scaled Hp_data.Proteome_gen.cellzome_params 2.0))
      .hypergraph
  in
  let graphs = [ ("yeast:exact", yeast); ("scaled2x-proteome:exact", scaled) ] in
  let rows =
    List.map
      (fun (name, h) ->
        let nv = H.n_vertices h in
        let (odiam, oapl), oracle_s =
          best_of 3 (fun () -> bfs_fold h (Array.init nv Fun.id))
        in
        let _, s1 = best_of 3 (fun () -> HP.diameter_and_average_path ~domains:1 h) in
        let _, s2 = time (fun () -> HP.diameter_and_average_path ~domains:2 h) in
        let _, s4 = time (fun () -> HP.diameter_and_average_path ~domains:4 h) in
        (* Both sweeps must be bit-identical to the oracle at every
           domain count — the paper's Section 2 numbers are not allowed
           to move.  (sum and pairs are ints, so averages either match
           exactly or not at all.) *)
        let sampled =
          let rng = U.Prng.create path_sample_seed in
          bfs_fold h (Array.init path_samples (fun _ -> U.Prng.int rng nv))
        in
        let verify what expected got domains =
          if got <> expected then begin
            Printf.eprintf "E21 FAIL: %s %s at domains=%d: (%d, %.6f) <> oracle (%d, %.6f)\n"
              name what domains (fst got) (snd got) (fst expected) (snd expected);
            exit 1
          end
        in
        List.iter
          (fun domains ->
            verify "exact" (odiam, oapl) (HP.diameter_and_average_path ~domains h) domains;
            verify "sampled" sampled
              (HP.sampled_diameter_and_average_path ~domains
                 (U.Prng.create path_sample_seed) h ~samples:path_samples)
              domains)
          [ 1; 2; 4; 7 ];
        let speedup = oracle_s /. s1 in
        record_kernel ("path:" ^ name) s1
          [ ("oracle_s", Printf.sprintf "%.6f" oracle_s);
            ("speedup", Printf.sprintf "%.2f" speedup) ];
        { pname = name; nv; ne = H.n_edges h;
          oracle_s; s1; s2; s4; speedup; diam = odiam; apl = oapl })
      graphs
  in
  print_endline
    (table
       ~header:[ "sweep"; "bfs oracle"; "sweep @1"; "@2"; "@4"; "speedup @1" ]
       (List.map
          (fun r ->
            [ r.pname; U.Table.fmt_time r.oracle_s; U.Table.fmt_time r.s1;
              U.Table.fmt_time r.s2; U.Table.fmt_time r.s4;
              ff ~digits:2 r.speedup ^ "x" ])
          rows));
  Printf.printf
    "(exact and %d-sample sweeps verified identical to the per-source BFS\n\
    \ oracle at domains 1, 2, 4 and 7 on both instances)\n"
    path_samples;
  write_path_json rows;
  if check_path then begin
    let baseline_file = Filename.concat "bench" "path_baseline.json" in
    if not (Sys.file_exists baseline_file) then begin
      Printf.eprintf "E21 guard: missing %s\n" baseline_file;
      exit 1
    end;
    let baseline = baseline_speedups baseline_file in
    List.iter
      (fun r ->
        match List.assoc_opt r.pname baseline with
        | None -> ()
        | Some base ->
          (* The speedup is a ratio of the sweep and its oracle on
             the same host, so "worsened >2x" is host-independent:
             fail when the measured speedup fell below half the
             committed one. *)
          if r.speedup *. 2.0 < base then begin
            Printf.eprintf
              "E21 guard: %s speedup %.2fx fell below half the baseline \
               %.2fx — the sweep regressed >2x against its oracle\n"
              r.pname r.speedup base;
            exit 1
          end
          else
            Printf.printf "guard ok: %s %.2fx (baseline %.2fx)\n" r.pname
              r.speedup base)
      rows
  end

(* ------------------------------------------------------------------ *)
(* E22: flat CSR overlap kernel vs the naive oracle in the k-core     *)
(* peel.  Both strategies drive the same deletion order, so their     *)
(* decompositions and k-cores must agree bit-for-bit; the CSR build   *)
(* (sort-based counting into per-domain flat buffers, reduction read  *)
(* off the same counts) and its early-exit partner scans are where    *)
(* the speedup comes from.  Lands in _artifacts/BENCH_core.json; CI   *)
(* guards the speedup ratio and the peel's maximality-check count.    *)

type core_row = {
  cname : string;
  cnv : int;
  cne : int;
  cinc : int;
  cmax : int;
  naive_s : float;
  c1 : float;
  c2 : float;
  c4 : float;
  cspeedup : float;
  cchecks : int;
}

let write_core_json rows =
  if not (Sys.file_exists "_artifacts") then Sys.mkdir "_artifacts" 0o755;
  let path = Filename.concat "_artifacts" "BENCH_core.json" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"schema\":2,\"domains_verified\":\"1,2,4,7\",\"peels\":[";
      List.iteri
        (fun i r ->
          if i > 0 then output_char oc ',';
          Printf.fprintf oc
            "\n  {\"name\":\"%s\",\"vertices\":%d,\"hyperedges\":%d,\
             \"incidence\":%d,\"max_core\":%d,\
             \"naive_s\":%.6f,\"csr_1dom_s\":%.6f,\
             \"csr_2dom_s\":%.6f,\"csr_4dom_s\":%.6f,\
             \"speedup_1dom\":%.4f,\"maximality_checks\":%d}"
            r.cname r.cnv r.cne r.cinc r.cmax r.naive_s r.c1 r.c2 r.c4
            r.cspeedup r.cchecks)
        rows;
      output_string oc "\n]}\n");
  Printf.printf "[wrote %s]\n" path

let core_bench () =
  section "E22: CSR overlap kernel vs naive oracle (k-core peel)";
  if quick then print_endline "(--quick: fidapm11-like skipped)";
  let suite = MM.synthetic_suite () in
  let instances =
    [ ("cellzome", yeast);
      ("stk21-like", MM.to_hypergraph (List.assoc "stk21-like" suite));
      ("utm5940-like", MM.to_hypergraph (List.assoc "utm5940-like" suite)) ]
    @
    if quick then []
    else [ ("fidapm11-like", MM.to_hypergraph (List.assoc "fidapm11-like" suite)) ]
  in
  let fail fmt = Printf.ksprintf (fun s -> Printf.eprintf "E22 FAIL: %s\n" s; exit 1) fmt in
  let rows =
    List.map
      (fun (name, h) ->
        let dn, naive_s =
          time (fun () -> HC.decompose ~strategy:HC.Naive h)
        in
        let d1, c1 =
          best_of 2 (fun () -> HC.decompose ~strategy:HC.Overlap ~domains:1 h)
        in
        let d2, c2 = time (fun () -> HC.decompose ~strategy:HC.Overlap ~domains:2 h) in
        let d4, c4 = time (fun () -> HC.decompose ~strategy:HC.Overlap ~domains:4 h) in
        let d7 = HC.decompose ~strategy:HC.Overlap ~domains:7 h in
        (* Bit-identical decompositions at every fan-out: the kernel and
           the oracle peel in the same order, so the arrays — not just
           the multisets — must match the naive reference. *)
        List.iter
          (fun (domains, d) ->
            if
              d.HC.vertex_core <> dn.HC.vertex_core
              || d.HC.edge_core <> dn.HC.edge_core
              || d.HC.max_core <> dn.HC.max_core
            then fail "%s: decompose differs from reference at domains=%d" name domains)
          [ (1, d1); (2, d2); (4, d4); (7, d7) ];
        (* Same check for the per-k driver at the maximum core. *)
        let rn = HC.k_core ~strategy:HC.Naive h dn.HC.max_core in
        List.iter
          (fun domains ->
            let r = HC.k_core ~strategy:HC.Overlap ~domains h dn.HC.max_core in
            if r.HC.vertex_ids <> rn.HC.vertex_ids || r.HC.edge_ids <> rn.HC.edge_ids
            then fail "%s: k_core differs from reference at domains=%d" name domains)
          [ 1; 2; 4; 7 ];
        (* The work the timed sweep does: its maximality checks, a
           deterministic count. *)
        let checks = (snd (HC.max_core ~strategy:HC.Overlap h)).HC.stats.maximality_checks in
        let speedup = naive_s /. c1 in
        record_kernel ("core:" ^ name) c1
          [ ("naive_s", Printf.sprintf "%.6f" naive_s);
            ("speedup", Printf.sprintf "%.2f" speedup);
            ("max_core", fi dn.HC.max_core);
            ("maximality_checks", fi checks) ];
        {
          cname = name;
          cnv = H.n_vertices h;
          cne = H.n_edges h;
          cinc = H.total_incidence h;
          cmax = dn.HC.max_core;
          naive_s; c1; c2; c4;
          cspeedup = speedup;
          cchecks = checks;
        })
      instances
  in
  print_endline
    (table
       ~header:[ "peel"; "naive"; "CSR @1"; "@2"; "@4"; "speedup @1"; "checks" ]
       (List.map
          (fun r ->
            [ r.cname; U.Table.fmt_time r.naive_s; U.Table.fmt_time r.c1;
              U.Table.fmt_time r.c2; U.Table.fmt_time r.c4;
              ff ~digits:2 r.cspeedup ^ "x"; fi r.cchecks ])
          rows));
  print_endline
    "(identical decompose arrays and k_core id maps verified at domains\n\
    \ 1, 2, 4 and 7 against the naive reference on every instance)";
  write_core_json rows;
  if check_core then begin
    let baseline_file = Filename.concat "bench" "core_baseline.json" in
    if not (Sys.file_exists baseline_file) then begin
      Printf.eprintf "E22 guard: missing %s\n" baseline_file;
      exit 1
    end;
    let baseline = baseline_speedups baseline_file in
    let baseline_checks = baseline_speedups ~field:"maximality_checks" baseline_file in
    List.iter
      (fun r ->
        (match List.assoc_opt r.cname baseline_checks with
        | None -> ()
        | Some want ->
          (* The check count is deterministic: a peel that changed its
             work shows here even when timing noise hides it. *)
          if float_of_int r.cchecks <> want then begin
            Printf.eprintf
              "E22 guard: %s did %d maximality checks, the baseline %.0f \
               — the peel's work changed\n"
              r.cname r.cchecks want;
            exit 1
          end);
        match List.assoc_opt r.cname baseline with
        | None -> ()
        | Some base ->
          (* Same-host ratio of the kernel and its oracle, so the guard
             is machine-independent: fail when the measured speedup fell
             below half the committed one. *)
          if r.cspeedup *. 2.0 < base then begin
            Printf.eprintf
              "E22 guard: %s speedup %.2fx fell below half the baseline \
               %.2fx — the core peel regressed >2x\n"
              r.cname r.cspeedup base;
            exit 1
          end
          else
            Printf.printf "guard ok: %s %.2fx (baseline %.2fx), %d checks\n"
              r.cname r.cspeedup base r.cchecks)
      rows
  end

(* E23: binary snapshot store.  Text parse vs pack vs mmap load for   *)
(* every instance (largest last), with the mmap'd hypergraph checked  *)
(* structurally identical to the parsed one, plus a warm-start pass   *)
(* over a real server: first STATS after a restart, cold (no cache    *)
(* file) vs warm (cache restored).  Lands in                          *)
(* _artifacts/BENCH_snapshot.json; --check-snap guards the mmap       *)
(* speedup on the largest instance.                                   *)

type snap_row = {
  sname : string;
  snv : int;
  sne : int;
  sinc : int;
  text_bytes : int;
  snap_bytes : int;
  parse_s : float;
  pack_s : float;
  mmap_s : float;
  sspeedup : float;
}

let write_snapshot_json rows ~cold_s ~warm_s =
  if not (Sys.file_exists "_artifacts") then Sys.mkdir "_artifacts" 0o755;
  let path = Filename.concat "_artifacts" "BENCH_snapshot.json" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"schema\":1,\"loads\":[";
      List.iteri
        (fun i r ->
          if i > 0 then output_char oc ',';
          Printf.fprintf oc
            "\n  {\"name\":\"%s\",\"vertices\":%d,\"hyperedges\":%d,\
             \"incidence\":%d,\"text_bytes\":%d,\"snap_bytes\":%d,\
             \"parse_s\":%.6f,\"pack_s\":%.6f,\"mmap_s\":%.6f,\
             \"speedup\":%.4f}"
            r.sname r.snv r.sne r.sinc r.text_bytes r.snap_bytes r.parse_s
            r.pack_s r.mmap_s r.sspeedup)
        rows;
      Printf.fprintf oc
        "\n],\"first_query\":{\"cold_s\":%.6f,\"warm_s\":%.6f}}\n" cold_s
        warm_s);
  Printf.printf "[wrote %s]\n" path

(* First STATS latency over a real in-process server: one life that
   computes and saves the cache, then a restarted life whose first
   query is answered from the restored cache.  The cold number is the
   first life's first query. *)
let snapshot_warm_bench dir data =
  let module Server = Hp_server.Server in
  let module Client = Hp_server.Client in
  let module P = Hp_server.Protocol in
  let socket_path = Filename.concat dir "hgd.sock" in
  let cache_file = Filename.concat dir "cache.bin" in
  let config =
    {
      (Server.default_config ~socket_path) with
      workers = 2;
      cache_file = Some cache_file;
    }
  in
  let fail fmt =
    Printf.ksprintf (fun s -> Printf.eprintf "E23 FAIL: %s\n" s; exit 1) fmt
  in
  let life f =
    match Server.start config with
    | Error msg -> fail "server start: %s" msg
    | Ok t -> Fun.protect ~finally:(fun () -> Server.stop t) (fun () -> f ())
  in
  let first_stats () =
    let outcome =
      Client.with_connection ~socket_path (fun c ->
          match Client.request c (P.Load data) with
          | Ok (P.Ok kvs) ->
            let digest = List.assoc "digest" kvs in
            let (), elapsed =
              time (fun () ->
                  match
                    Client.request c
                      (P.Analyze { dataset = digest; analysis = P.Stats })
                  with
                  | Ok (P.Ok kvs) ->
                    if not (List.mem_assoc "cached" kvs) then
                      fail "STATS reply lacks cached marker"
                  | Ok (P.Err { message; _ }) -> fail "STATS: %s" message
                  | Error msg -> fail "STATS transport: %s" msg)
            in
            Ok elapsed
          | Ok (P.Err { message; _ }) -> fail "LOAD: %s" message
          | Error msg -> fail "LOAD transport: %s" msg)
    in
    match outcome with Ok s -> s | Error msg -> fail "connect: %s" msg
  in
  let cold_s = ref 0.0 and warm_s = ref 0.0 in
  life (fun () -> cold_s := first_stats ());
  life (fun () -> warm_s := first_stats ());
  (!cold_s, !warm_s)

let snapshot_bench () =
  section "E23: binary snapshot store — mmap load vs text parse (extension)";
  let module Snap = Hp_snapshot.Snapshot in
  let module HIO = Hp_hypergraph.Hypergraph_io in
  let suite = MM.synthetic_suite () in
  (* Largest instance last, so the guarded row is the one where the
     parse cost actually hurts.  fidapm11-like stays in --quick runs:
     the guard is defined on the largest example, so it must be
     present even in CI's quick pass. *)
  let instances =
    [ ("cellzome", yeast);
      ("stk21-like", MM.to_hypergraph (List.assoc "stk21-like" suite));
      ("utm5940-like", MM.to_hypergraph (List.assoc "utm5940-like" suite));
      ("fidapm11-like", MM.to_hypergraph (List.assoc "fidapm11-like" suite)) ]
  in
  let fail fmt =
    Printf.ksprintf (fun s -> Printf.eprintf "E23 FAIL: %s\n" s; exit 1) fmt
  in
  let dir = Filename.temp_dir "hyperprot" "snapbench" in
  let rows =
    List.map
      (fun (name, h) ->
        let text = Filename.concat dir (name ^ ".hg") in
        let snap = Snap.sibling_path text in
        HIO.write text h;
        (* Normalize: text ids are assigned by first appearance, so
           parse once and compare everything against that parse. *)
        let reference = HIO.read text in
        let _, parse_s = best_of 5 (fun () -> HIO.read text) in
        let info, pack_s = time (fun () -> Snap.pack reference snap) in
        let mapped, mmap_s =
          best_of 9 (fun () ->
              match Snap.read snap with
              | Ok (h, _) -> h
              | Error e -> fail "%s: %s" snap (Snap.error_to_string e))
        in
        if not (H.equal_structure reference mapped) then
          fail "%s: mmap'd hypergraph differs from the text parse" name;
        let dp = HC.decompose reference and dm = HC.decompose mapped in
        if
          dp.HC.vertex_core <> dm.HC.vertex_core
          || dp.HC.edge_core <> dm.HC.edge_core
          || dp.HC.max_core <> dm.HC.max_core
        then fail "%s: decompose differs between parse and mmap" name;
        let speedup = parse_s /. mmap_s in
        record_kernel ("snapshot:" ^ name) mmap_s
          [ ("parse_s", Printf.sprintf "%.6f" parse_s);
            ("speedup", Printf.sprintf "%.2f" speedup) ];
        {
          sname = name;
          snv = H.n_vertices h;
          sne = H.n_edges h;
          sinc = H.total_incidence h;
          text_bytes = (Unix.stat text).Unix.st_size;
          snap_bytes = info.Snap.bytes;
          parse_s; pack_s; mmap_s;
          sspeedup = speedup;
        })
      instances
  in
  print_endline
    (table
       ~header:[ "dataset"; "|E|"; "text parse"; "pack"; "mmap load"; "speedup" ]
       (List.map
          (fun r ->
            [ r.sname; fi r.sinc; U.Table.fmt_time r.parse_s;
              U.Table.fmt_time r.pack_s; U.Table.fmt_time r.mmap_s;
              ff ~digits:1 r.sspeedup ^ "x" ])
          rows));
  print_endline
    "(mmap'd hypergraphs verified structurally identical to the text\n\
    \ parse, with equal core decompositions, on every instance)";
  let cold_s, warm_s =
    snapshot_warm_bench dir (Filename.concat dir "cellzome.hg")
  in
  Printf.printf
    "first STATS after start: cold %s, warm (restored cache) %s\n"
    (U.Table.fmt_time cold_s) (U.Table.fmt_time warm_s);
  write_snapshot_json rows ~cold_s ~warm_s;
  if check_snap then begin
    let largest = List.nth rows (List.length rows - 1) in
    if largest.sspeedup < 10.0 then begin
      Printf.eprintf
        "E23 guard: %s mmap load only %.1fx faster than the text parse \
         (need >= 10x)\n"
        largest.sname largest.sspeedup;
      exit 1
    end
    else
      Printf.printf "guard ok: %s mmap %.1fx over text parse\n" largest.sname
        largest.sspeedup
  end

(* ------------------------------------------------------------------ *)
(* E24: WAL recovery cost vs writes-since-checkpoint (extension).     *)
(* Builds a mutation log of n records over the cellzome base through  *)
(* the registry itself (append-before-apply, sync=Never so the curve  *)
(* measures replay, not fsync), then times a fresh registry's load —  *)
(* base resolution + log fold — for each n.  A final checkpoint       *)
(* compacts the largest log and shows recovery collapsing back to a   *)
(* snapshot load.  _artifacts/BENCH_wal.json.                         *)

type wal_row = {
  wwrites : int;
  wbytes : int;      (* on-disk .hgwal size *)
  wappend_s : float; (* whole burst, through Registry.mutate *)
  wrecover_s : float;
  wreplayed : int;
}

let write_wal_json rows ~ckpt_pack_s ~ckpt_recover_s =
  if not (Sys.file_exists "_artifacts") then Sys.mkdir "_artifacts" 0o755;
  let path = Filename.concat "_artifacts" "BENCH_wal.json" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"schema\":1,\"recovery\":[";
      List.iteri
        (fun i r ->
          if i > 0 then output_char oc ',';
          Printf.fprintf oc
            "\n  {\"writes\":%d,\"wal_bytes\":%d,\"append_s\":%.6f,\
             \"recover_s\":%.6f,\"replayed\":%d}"
            r.wwrites r.wbytes r.wappend_s r.wrecover_s r.wreplayed)
        rows;
      Printf.fprintf oc
        "\n],\"checkpoint\":{\"pack_s\":%.6f,\"recover_s\":%.6f}}\n"
        ckpt_pack_s ckpt_recover_s);
  Printf.printf "[wrote %s]\n" path

let wal_bench () =
  section "E24: WAL recovery — replay cost vs writes-since-checkpoint (extension)";
  let module Registry = Hp_server.Registry in
  let module W = Hp_wal.Wal in
  let module HIO = Hp_hypergraph.Hypergraph_io in
  let fail fmt =
    Printf.ksprintf (fun s -> Printf.eprintf "E24 FAIL: %s\n" s; exit 1) fmt
  in
  let dir = Filename.temp_dir "hyperprot" "walbench" in
  let counts = if quick then [ 0; 100; 1000 ] else [ 0; 100; 1000; 10000 ] in
  let nv0 = H.n_vertices yeast in
  (* Alternating adds keep every op valid against the base alone, so
     the log length is the only variable in the curve. *)
  let op i =
    if i mod 2 = 0 then W.Add_vertex { name = Printf.sprintf "w%d" i }
    else
      W.Add_edge
        {
          name = Printf.sprintf "we%d" i;
          members = [| i mod nv0; (i * 7) mod nv0; ((i * 13) + 3) mod nv0 |];
        }
  in
  let load_fresh data =
    let reg = Registry.create () in
    match Registry.load reg data with
    | Ok (e, _) -> e
    | Error (Registry.Read_failed m | Registry.Parse_failed m) ->
      fail "%s: recovery load: %s" data m
  in
  let rows =
    List.map
      (fun n ->
        let data = Filename.concat dir (Printf.sprintf "wal%d.hg" n) in
        HIO.write data yeast;
        (* One throwaway load learns the handle; the log itself is
           built through the raw writer (epoch stamps base+1..base+n),
           so the append column is WAL framing + write cost, not the
           registry's state republication. *)
        let digest =
          let reg = Registry.create () in
          match Registry.load reg data with
          | Ok (e, _) -> e.Registry.digest
          | Error (Registry.Read_failed m | Registry.Parse_failed m) ->
            fail "load: %s" m
        in
        let wal_path = W.sibling_path data in
        let wappend_s =
          if n = 0 then 0.0
          else begin
            let w =
              match
                W.create ~path:wal_path ~handle:digest ~base_identity:digest
                  ~base_epoch:0 ~sync:W.Never
              with
              | Ok w -> w
              | Error e -> fail "wal create: %s" (W.error_to_string e)
            in
            let (), s =
              time (fun () ->
                  for i = 0 to n - 1 do
                    match W.append w { W.epoch = i + 1; op = op i } with
                    | Ok () -> ()
                    | Error e -> fail "append %d: %s" i (W.error_to_string e)
                  done;
                  W.close w)
            in
            s
          end
        in
        let wbytes =
          if Sys.file_exists wal_path then (Unix.stat wal_path).Unix.st_size
          else 0
        in
        let entry, wrecover_s = best_of 5 (fun () -> load_fresh data) in
        let wreplayed =
          match entry.Registry.recovery with
          | Some r -> r.Registry.replayed
          | None -> 0
        in
        if wreplayed <> n then fail "%d writes: replayed %d" n wreplayed;
        if entry.Registry.state.Registry.epoch <> n then
          fail "%d writes: recovered epoch %d" n
            entry.Registry.state.Registry.epoch;
        record_kernel
          (Printf.sprintf "wal-recover:%d" n)
          wrecover_s
          [ ("wal_bytes", fi wbytes); ("replayed", fi wreplayed) ];
        { wwrites = n; wbytes; wappend_s; wrecover_s; wreplayed })
      counts
  in
  (* Checkpoint the deepest log and show the curve collapsing: the
     same dataset recovers from the snapshot with zero records to
     fold. *)
  let deepest = List.nth counts (List.length counts - 1) in
  let data = Filename.concat dir (Printf.sprintf "wal%d.hg" deepest) in
  let reg = Registry.create () in
  let digest =
    match Registry.load reg data with
    | Ok (e, _) -> e.Registry.digest
    | Error (Registry.Read_failed m | Registry.Parse_failed m) ->
      fail "checkpoint load: %s" m
  in
  let info, ckpt_pack_s =
    time (fun () ->
        match Registry.checkpoint reg digest with
        | Ok info -> info
        | Error (`Io m) -> fail "checkpoint: %s" m
        | Error (`Missing | `Ambiguous) -> fail "checkpoint: lost handle")
  in
  if info.Registry.records_folded <> deepest then
    fail "checkpoint folded %d of %d records" info.Registry.records_folded
      deepest;
  ignore (Registry.evict reg digest);
  let entry, ckpt_recover_s = best_of 5 (fun () -> load_fresh data) in
  (match entry.Registry.recovery with
  | Some r when r.Registry.replayed = 0 -> ()
  | Some r -> fail "post-checkpoint recovery replayed %d" r.Registry.replayed
  | None -> fail "post-checkpoint recovery lost its WAL");
  if entry.Registry.state.Registry.epoch <> deepest then
    fail "post-checkpoint epoch %d" entry.Registry.state.Registry.epoch;
  print_endline
    (table
       ~header:[ "writes since ckpt"; "wal bytes"; "append"; "recover"; "replayed" ]
       (List.map
          (fun r ->
            [ fi r.wwrites; fi r.wbytes; U.Table.fmt_time r.wappend_s;
              U.Table.fmt_time r.wrecover_s; fi r.wreplayed ])
          rows));
  Printf.printf
    "checkpoint at %d writes: pack %s, recovery afterwards %s (0 records \
     folded at load)\n"
    deepest
    (U.Table.fmt_time ckpt_pack_s)
    (U.Table.fmt_time ckpt_recover_s);
  write_wal_json rows ~ckpt_pack_s ~ckpt_recover_s

(* E25: incremental k-core maintenance vs per-mutation re-peel        *)
(* (extension).  A dataset of many small overlap components takes a   *)
(* burst of component-local mutations; the maintained decomposition   *)
(* (Hypergraph_maintain) repairs only the touched subcore while the   *)
(* oracle re-peels everything after every op.  Both sides walk the    *)
(* same precomputed state sequence, so the timings isolate repair vs  *)
(* re-peel cost.  _artifacts/BENCH_kcore_inc.json; --check-inc guards *)
(* the speedup ratio.                                                 *)

let write_inc_json ~ncomp ~nv ~ne ~ops ~initial_s ~inc_s ~repeel_s ~speedup
    ~(stats : Hp_hypergraph.Hypergraph_maintain.stats) =
  if not (Sys.file_exists "_artifacts") then Sys.mkdir "_artifacts" 0o755;
  let path = Filename.concat "_artifacts" "BENCH_kcore_inc.json" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc
        "{\"schema\":2,\"components\":%d,\"vertices\":%d,\"hyperedges\":%d,\n\
        \ \"ops\":%d,\"initial_peel_s\":%.6f,\"incremental_s\":%.6f,\n\
        \ \"repeel_s\":%.6f,\"speedup\":%.2f,\"cascade_repairs\":%d,\n\
        \ \"full_repeels\":%d,\"repair_visited\":%d}\n"
        ncomp nv ne ops initial_s inc_s repeel_s speedup
        stats.Hp_hypergraph.Hypergraph_maintain.cascade_repairs
        stats.Hp_hypergraph.Hypergraph_maintain.full_repeels
        stats.Hp_hypergraph.Hypergraph_maintain.repair_visited);
  Printf.printf "[wrote %s]\n" path

let inc_bench () =
  section
    "E25: incremental k-core maintenance vs per-mutation re-peel (extension)";
  let module HM = Hp_hypergraph.Hypergraph_maintain in
  let module W = Hp_wal.Wal in
  let module L = Hp_wal.Live in
  let fail fmt =
    Printf.ksprintf (fun s -> Printf.eprintf "E25 FAIL: %s\n" s; exit 1) fmt
  in
  (* Many copies of the 3-complex triangle, each its own overlap
     component: the shape where the mutation stream stays local and a
     full re-peel does maximal wasted work. *)
  let ncomp = if quick then 500 else 2000 in
  let n_ops = if quick then 100 else 300 in
  let members =
    List.concat
      (List.init ncomp (fun c ->
           let b = 6 * c in
           [
             [ b; b + 1; b + 2; b + 3 ];
             [ b; b + 1; b + 4; b + 5 ];
             [ b + 2; b + 3; b + 4; b + 5 ];
           ]))
  in
  let h0 = H.create ~n_vertices:(6 * ncomp) members in
  let rng = U.Prng.create 2025 in
  (* Valid-by-construction schedule of component-local edge adds with
     interleaved deletes, as in the differential suite. *)
  let live = L.of_hypergraph h0 in
  let ne = ref (H.n_edges h0) in
  let schedule =
    List.init n_ops (fun i ->
        let op =
          if i mod 4 = 3 && !ne > 0 then begin
            decr ne;
            W.Del_edge { edge = U.Prng.int rng (!ne + 1) }
          end
          else begin
            let b = 6 * U.Prng.int rng ncomp in
            incr ne;
            W.Add_edge
              {
                name = Printf.sprintf "x%d" i;
                members = [| b + U.Prng.int rng 6; b + U.Prng.int rng 6 |];
              }
          end
        in
        (match L.apply live op with
        | Ok _ -> ()
        | Error m -> fail "schedule op %d invalid: %s" i m);
        (op, L.to_hypergraph live))
  in
  let maint, initial_s = time (fun () -> HM.create h0) in
  let (), inc_s =
    time (fun () ->
        List.iter
          (fun (op, after) ->
            ignore
              (match op with
              | W.Add_vertex _ -> HM.add_vertex maint ~after
              | W.Add_edge _ -> HM.add_edge maint ~after
              | W.Del_edge { edge } -> HM.del_edge maint ~after ~edge))
          schedule)
  in
  let last, repeel_s =
    time (fun () ->
        List.fold_left
          (fun _ (_, after) -> Some (HC.decompose ~domains:1 after))
          None schedule)
  in
  (match last with
  | Some d ->
    let got = HM.decomposition maint in
    if
      d.HC.vertex_core <> got.HC.vertex_core
      || d.HC.edge_core <> got.HC.edge_core
    then fail "maintained decomposition diverged from the re-peel oracle"
  | None -> fail "empty schedule");
  let speedup = repeel_s /. inc_s in
  let stats = HM.stats maint in
  record_kernel "kcore-inc:maintained" inc_s
    [
      ("ops", fi n_ops);
      ("cascade_repairs", fi stats.HM.cascade_repairs);
      ("full_repeels", fi stats.HM.full_repeels);
    ];
  record_kernel "kcore-inc:repeel" repeel_s [ ("ops", fi n_ops) ];
  print_endline
    (table
       ~header:[ "strategy"; "total"; "per op"; "speedup" ]
       [
         [
           "re-peel every op"; U.Table.fmt_time repeel_s;
           U.Table.fmt_time (repeel_s /. float_of_int n_ops); "1.0";
         ];
         [
           "maintained"; U.Table.fmt_time inc_s;
           U.Table.fmt_time (inc_s /. float_of_int n_ops); ff speedup;
         ];
       ]);
  Printf.printf
    "%d components, %d ops: initial peel %s, then %d cascade repairs / %d \
     full re-peels (%d visited)\n"
    ncomp n_ops (U.Table.fmt_time initial_s) stats.HM.cascade_repairs
    stats.HM.full_repeels stats.HM.repair_visited;
  write_inc_json ~ncomp ~nv:(H.n_vertices h0) ~ne:(H.n_edges h0) ~ops:n_ops
    ~initial_s ~inc_s ~repeel_s ~speedup ~stats;
  if check_inc && speedup < 5.0 then begin
    Printf.eprintf
      "E25 guard: maintained decomposition only %.1fx faster than re-peeling \
       every mutation (threshold 5.0x)\n"
      speedup;
    exit 1
  end

(* E26: the maintained decomposition vs a full re-peel per mutation,  *)
(* per-op medians on two schedules.  Cluster: one ring-connected      *)
(* giant overlap component with a small dense cluster bridged in;     *)
(* mutations land in the cluster, whose core numbers sit far above    *)
(* the ring's, so the cascade's subcore floor confines the repair to  *)
(* the cluster — the shape the cascade was built for.  Rewiring: the  *)
(* hgbench write probe's traffic (Hgb.Mirror.rewiring_ops) on the     *)
(* Cellzome stand-in, where many repairs have no sound band floor and *)
(* take the full re-peel — the common case, where maintenance must at *)
(* least not cost more than re-peeling.  _artifacts/BENCH_maint.json; *)
(* --check-maint guards both ratios.                                  *)

type maint_row = {
  nv : int;
  ne : int;
  ops : int;
  med_maint_s : float;
  med_repeel_s : float;
  stats : Hp_hypergraph.Hypergraph_maintain.stats;
}

let write_maint_json ~cluster ~rewiring ~rewiring_seed =
  if not (Sys.file_exists "_artifacts") then Sys.mkdir "_artifacts" 0o755;
  let path = Filename.concat "_artifacts" "BENCH_maint.json" in
  let counts r =
    let s = r.stats in
    Printf.sprintf
      "\"cascade_repairs\":%d,\"full_repeels\":%d,\"budget_fallbacks\":%d,\
       \"repair_visited\":%d"
      s.Hp_hypergraph.Hypergraph_maintain.cascade_repairs
      s.Hp_hypergraph.Hypergraph_maintain.full_repeels
      s.Hp_hypergraph.Hypergraph_maintain.budget_fallbacks
      s.Hp_hypergraph.Hypergraph_maintain.repair_visited
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc
        "{\"schema\":2,\"bench\":\"kcore_maint\",\n\
        \ \"cluster\":{\"vertices\":%d,\"hyperedges\":%d,\"ops\":%d,\n\
        \  \"median_cascade_us\":%.2f,\"median_repeel_us\":%.2f,\
         \"speedup_vs_repeel\":%.2f,\n\
        \  %s},\n\
        \ \"rewiring\":{\"seed\":%d,\"vertices\":%d,\"hyperedges\":%d,\
         \"ops\":%d,\n\
        \  \"median_maintained_us\":%.2f,\"median_repeel_us\":%.2f,\
         \"repeel_over_maintained\":%.2f,\n\
        \  %s}}\n"
        cluster.nv cluster.ne cluster.ops (cluster.med_maint_s *. 1e6)
        (cluster.med_repeel_s *. 1e6)
        (cluster.med_repeel_s /. cluster.med_maint_s)
        (counts cluster) rewiring_seed rewiring.nv rewiring.ne rewiring.ops
        (rewiring.med_maint_s *. 1e6) (rewiring.med_repeel_s *. 1e6)
        (rewiring.med_repeel_s /. rewiring.med_maint_s)
        (counts rewiring));
  Printf.printf "[wrote %s]\n" path

let maint_bench () =
  section "E26: maintained k-core vs full re-peel per mutation";
  let module HM = Hp_hypergraph.Hypergraph_maintain in
  let module W = Hp_wal.Wal in
  let module L = Hp_wal.Live in
  let fail fmt =
    Printf.ksprintf (fun s -> Printf.eprintf "E26 FAIL: %s\n" s; exit 1) fmt
  in
  let median times =
    let a = Array.of_list times in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let time_op f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  (* Walk [ops] through a maintainer and through a full re-peel per op
     over the same precomputed state sequence, timing the two sides of
     each op back to back so both see the same heap; the maintained
     arrays must end bit-identical to the re-peel. *)
  let measure ~kernel name h0 ops =
    let live = L.of_hypergraph h0 in
    let states =
      List.mapi
        (fun i op ->
          (match L.apply live op with
          | Ok _ -> ()
          | Error msg -> fail "%s op %d invalid: %s" name i msg);
          (op, L.to_hypergraph live))
        ops
    in
    let maint = HM.create h0 in
    let times =
      List.map
        (fun (op, after) ->
          let m =
            time_op (fun () ->
                ignore
                  (match op with
                  | W.Add_vertex _ -> HM.add_vertex maint ~after
                  | W.Add_edge _ -> HM.add_edge maint ~after
                  | W.Del_edge { edge } -> HM.del_edge maint ~after ~edge))
          in
          (m, time_op (fun () -> ignore (HC.decompose ~domains:1 after))))
        states
    in
    let maint_times = List.map fst times and repeel_times = List.map snd times in
    let oracle = HC.decompose ~domains:1 (L.to_hypergraph live) in
    let got = HM.decomposition maint in
    if
      oracle.HC.vertex_core <> got.HC.vertex_core
      || oracle.HC.edge_core <> got.HC.edge_core
    then fail "%s: maintained decomposition diverged from the full peel" name;
    record_kernel kernel
      (List.fold_left ( +. ) 0.0 maint_times)
      [
        ("ops", fi (List.length ops));
        ("cascade_repairs", fi (HM.stats maint).HM.cascade_repairs);
        ("full_repeels", fi (HM.stats maint).HM.full_repeels);
        ("repair_visited", fi (HM.stats maint).HM.repair_visited);
      ];
    {
      nv = H.n_vertices h0;
      ne = H.n_edges h0;
      ops = List.length ops;
      med_maint_s = median maint_times;
      med_repeel_s = median repeel_times;
      stats = HM.stats maint;
    }
  in
  (* Ring of stride-overlapping size-6 complexes: one giant overlap
     component whose vertices peel out at core 2. *)
  let nv_ring = if quick then 4002 else 12000 in
  let stride = 3 and k = 6 in
  let ring_edges =
    List.init (nv_ring / stride) (fun c ->
        List.init k (fun j -> ((c * stride) + j) mod nv_ring))
  in
  (* A dense 48-vertex cluster (96 random size-6 complexes) bridged
     into the ring by one mixed edge: same overlap component, but its
     core numbers sit far above the ring's, so a cascade repair of a
     cluster-local mutation never leaves the cluster. *)
  let m = 48 in
  let cluster_base = nv_ring in
  let rng = U.Prng.create 2026 in
  let cluster_edges =
    List.init (2 * m) (fun _ ->
        Array.to_list
          (Array.map
             (fun v -> cluster_base + v)
             (U.Prng.sample_without_replacement rng k m)))
  in
  let bridge =
    [ 0; 1; 2; cluster_base; cluster_base + 1; cluster_base + 2 ]
  in
  let h0 =
    H.create ~n_vertices:(nv_ring + m)
      (ring_edges @ cluster_edges @ [ bridge ])
  in
  let n_ops = if quick then 120 else 240 in
  (* Cluster-local schedule: small edge adds over cluster vertices,
     interleaved with deletes of edges this schedule added (tracked
     through id shifts), so every op's affected subcore is the
     cluster. *)
  let ne = ref (H.n_edges h0) in
  let tracked = ref [] in
  let cluster_ops =
    List.init n_ops (fun i ->
        match !tracked with
        | e :: rest when i mod 3 = 2 ->
          tracked := List.map (fun x -> if x > e then x - 1 else x) rest;
          decr ne;
          W.Del_edge { edge = e }
        | _ ->
          let members =
            Array.map
              (fun v -> cluster_base + v)
              (U.Prng.sample_without_replacement rng 3 m)
          in
          tracked := !ne :: !tracked;
          incr ne;
          W.Add_edge { name = Printf.sprintf "y%d" i; members })
  in
  let cluster =
    measure ~kernel:"kcore-maint:cascade" "cluster" h0 cluster_ops
  in
  if cluster.stats.HM.cascade_repairs = 0 then
    fail "no cascade repairs fired on the cluster schedule";
  if cluster.stats.HM.budget_fallbacks > 0 then
    fail "%d budget fallbacks on a cluster-sized region (budget %d)"
      cluster.stats.HM.budget_fallbacks HM.default_budget;
  (* The write probe's stream: 450 rewiring ops (delete a complex, add
     it back with one member swapped; now and then a fresh protein). *)
  let rewiring_seed = 2004 in
  let rewiring =
    measure ~kernel:"kcore-maint:rewiring" "rewiring" yeast
      (Array.to_list (Hgb.Mirror.rewiring_ops ~seed:rewiring_seed ~n:450 yeast))
  in
  let fmt_us s = Printf.sprintf "%.1f us" (s *. 1e6) in
  let row name r =
    [
      name; fi r.ops; fmt_us r.med_maint_s; fmt_us r.med_repeel_s;
      ff (r.med_repeel_s /. r.med_maint_s); fi r.stats.HM.cascade_repairs;
      fi r.stats.HM.full_repeels; fi r.stats.HM.budget_fallbacks;
    ]
  in
  print_endline
    (table
       ~header:
         [
           "schedule"; "ops"; "maintained (median)"; "full re-peel (median)";
           "re-peel / maintained"; "cascades"; "re-peels"; "budget fallbacks";
         ]
       [
         row "cluster (giant component)" cluster;
         row "rewiring (Cellzome)" rewiring;
       ]);
  Printf.printf
    "cluster: %d vertices (%d-vertex hot cluster), cascades visited %d; \
     rewiring: %d vertices, %d complexes, seed %d\n"
    cluster.nv m cluster.stats.HM.repair_visited rewiring.nv rewiring.ne
    rewiring_seed;
  write_maint_json ~cluster ~rewiring ~rewiring_seed;
  if check_maint then begin
    let rewiring_ratio = rewiring.med_repeel_s /. rewiring.med_maint_s in
    if rewiring_ratio < 0.9 then begin
      Printf.eprintf
        "E26 guard: on the rewiring stream the full re-peel's median is \
         only %.2fx the maintained repair's (floor 0.9x)\n"
        rewiring_ratio;
      exit 1
    end;
    let speedup = cluster.med_repeel_s /. cluster.med_maint_s in
    match
      In_channel.with_open_text
        (Filename.concat "bench" "maint_baseline.json")
        In_channel.input_all
    with
    | exception Sys_error msg ->
      Printf.eprintf "E26 guard: cannot read baseline: %s\n" msg;
      exit 1
    | baseline -> (
      match scrape_float ~field:"speedup_vs_repeel" baseline with
      | None ->
        Printf.eprintf
          "E26 guard: baseline has no \"speedup_vs_repeel\" field\n";
        exit 1
      | Some want ->
        if speedup < want /. 2.0 then begin
          Printf.eprintf
            "E26 guard: cluster cascade speedup over the full re-peel %.1fx \
             below half the committed baseline %.1fx\n"
            speedup want;
          exit 1
        end
        else
          Printf.printf
            "E26 guard: ok (cluster %.1fx vs baseline %.1fx; rewiring %.2fx, \
             floor 0.9x)\n"
            speedup want rewiring_ratio)
  end

let () =
  Printf.printf
    "hyperprot experiment harness -- reproducing 'A Hypergraph Model for the\n\
     Yeast Protein Complex Network' (IPPS 2004) on synthetic substitutes\n";
  fig1 ();
  sec2 ();
  fig2 ();
  sec3_core ();
  sec3_enrichment ();
  sec3_dip ();
  table1 ();
  fig3 ();
  sec4 ();
  storage ();
  ablation_maximality ();
  ext_primal_dual ();
  ext_tap_reliability ();
  ext_cross_organism ();
  ext_peel_rounds ();
  ext_correlation_profile ();
  ext_core_profile ();
  ext_reconstruction ();
  ext_scaling ();
  ext_parallel ();
  kernel_profile ();
  path_bench ();
  core_bench ();
  snapshot_bench ();
  wal_bench ();
  inc_bench ();
  maint_bench ();
  write_bench_json ();
  if not no_timing then bechamel_pass ();
  print_newline ();
  print_endline "done."
