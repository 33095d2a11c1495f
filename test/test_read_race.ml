(* Readers racing a writer, checked against a replay oracle.

   A writer domain streams a seeded rewiring stream — delete a complex,
   add it back with one member swapped, now and then add a protein —
   through [Registry.mutate], and after each acknowledgement stores the
   epoch it was given.  Meanwhile reader domains loop [Registry.find]
   and read the entry's state, taking no lock, exactly as hgd's
   analysis requests do.  Every state a reader observes must be one
   whole epoch:

   - its epoch is no lower than the reader's previous one, nor than
     the epoch acknowledged just before the [find];
   - its hypergraph is the one a [Live] replay of the stream's first
     [epoch] ops builds;
   - its maintained cores are bit-identical to [decompose] of its
     hypergraph.

   A publish that exposed the hypergraph before its repaired cores, or
   a [find] that served a state cached at load, fails one of these.
   Interleavings differ from run to run, so CI repeats the suite. *)

module W = Hp_wal.Wal
module L = Hp_wal.Live
module H = Hp_hypergraph.Hypergraph
module HIO = Hp_hypergraph.Hypergraph_io
module HC = Hp_hypergraph.Hypergraph_core
module Registry = Hp_server.Registry
module Prng = Hp_util.Prng

let checkb = Alcotest.(check bool)

(* Overlapping complexes of 2-6 proteins drawn from a sliding window,
   so the overlap graph is connected and the cores are not trivial. *)
let base_hypergraph rng ~nv ~ne =
  H.create ~n_vertices:nv
    (List.init ne (fun c ->
         let k = 2 + Prng.int rng 5 in
         let start = c * nv / ne in
         List.sort_uniq compare
           (List.init k (fun _ -> (start + Prng.int rng 12) mod nv))))

let rewiring_ops rng base n =
  let nv = ref (H.n_vertices base) in
  let edges = ref (List.init (H.n_edges base) (H.edge_members base)) in
  let ops = ref [] in
  while List.length !ops < n do
    if Prng.int rng 16 = 0 then begin
      ops := W.Add_vertex { name = Printf.sprintf "p%d" (List.length !ops) } :: !ops;
      incr nv
    end
    else begin
      let e = Prng.int rng (List.length !edges) in
      let members = Array.copy (List.nth !edges e) in
      let v = Prng.int rng !nv in
      if Array.length members > 0 && not (Array.mem v members) then
        members.(Prng.int rng (Array.length members)) <- v;
      Array.sort compare members;
      edges := List.filteri (fun j _ -> j <> e) !edges @ [ members ];
      ops :=
        W.Add_edge { name = Printf.sprintf "c%d" (List.length !ops); members }
        :: W.Del_edge { edge = e }
        :: !ops
    end
  done;
  Array.of_list (List.rev !ops)

(* The hypergraph after each prefix of [ops]: [oracle.(e)] is the
   state at epoch [e]. *)
let replay_oracle base ops =
  let live = L.of_hypergraph base in
  Array.append [| base |]
    (Array.map
       (fun op ->
         (match L.apply live op with
         | Ok _ -> ()
         | Error m -> Alcotest.failf "oracle: %s" m);
         L.to_hypergraph live)
       ops)

(* One reader: loop until the writer is done, and return what went
   wrong (empty when nothing did) and how many distinct states it saw. *)
let reader reg digest ~acked ~finished ~oracle () =
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let last_epoch = ref (-1) and last = ref None and seen = ref 0 in
  let check_state (st : Registry.state) =
    let e = st.Registry.epoch in
    if e >= Array.length oracle then fail "epoch %d beyond the stream" e
    else begin
      if not (H.equal_structure st.Registry.hypergraph oracle.(e)) then
        fail "epoch %d: hypergraph differs from the replay" e;
      match st.Registry.cores with
      | None -> if e > 0 then fail "epoch %d: a mutated dataset without cores" e
      | Some d ->
        let want = HC.decompose ~domains:1 st.Registry.hypergraph in
        if
          d.HC.vertex_core <> want.HC.vertex_core
          || d.HC.edge_core <> want.HC.edge_core
          || d.HC.max_core <> want.HC.max_core
        then fail "epoch %d: cores are not decompose of its hypergraph" e
    end
  in
  let step () =
    let floor = Atomic.get acked in
    match Registry.find reg digest with
    | `Missing | `Ambiguous -> fail "dataset not found"
    | `Found entry ->
      let st = entry.Registry.state in
      let e = st.Registry.epoch in
      if e < floor then fail "epoch %d found after epoch %d was acknowledged" e floor;
      if e < !last_epoch then fail "epoch %d found after epoch %d" e !last_epoch;
      last_epoch := e;
      if not (Option.fold ~none:false ~some:(fun s -> s == st) !last) then begin
        incr seen;
        last := Some st;
        check_state st
      end
  in
  while not (Atomic.get finished) && List.length !errors < 5 do
    step ()
  done;
  step ();
  (List.rev !errors, !seen)

let run_race ~seed =
  let rng = Prng.create seed in
  let dir = Filename.temp_dir "hgrace" (string_of_int seed) in
  let path = Filename.concat dir "data.hg" in
  let oc = open_out path in
  output_string oc (HIO.to_string (base_hypergraph rng ~nv:160 ~ne:70));
  close_out oc;
  let reg = Registry.create () in
  (* The stream and the oracle start from the hypergraph as loaded:
     the text parse numbers vertices in order of appearance. *)
  let digest, base =
    match Registry.load reg path with
    | Ok (e, _) -> (e.Registry.digest, e.Registry.state.Registry.hypergraph)
    | Error (Registry.Read_failed m | Registry.Parse_failed m) ->
      Alcotest.failf "load: %s" m
  in
  let ops = rewiring_ops rng base 600 in
  let oracle = replay_oracle base ops in
  let acked = Atomic.make 0 and finished = Atomic.make false in
  let readers =
    List.init 3 (fun _ ->
        Domain.spawn (reader reg digest ~acked ~finished ~oracle))
  in
  let writer =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.set finished true)
          (fun () ->
            Array.iter
              (fun op ->
                match Registry.mutate reg digest op with
                | Ok a -> Atomic.set acked a.Registry.epoch
                | Error (`Invalid m | `Io m) -> failwith ("mutate: " ^ m)
                | Error (`Missing | `Ambiguous) -> failwith "mutate: dataset lost")
              ops))
  in
  Domain.join writer;
  let results = List.map Domain.join readers in
  ignore (Registry.evict reg digest);
  List.iteri
    (fun i (errors, _) ->
      match errors with
      | [] -> ()
      | first :: _ ->
        Alcotest.failf "seed %d reader %d: %s (%d problems)" seed i first
          (List.length errors))
    results;
  let seen = List.fold_left (fun acc (_, s) -> acc + s) 0 results in
  Printf.printf "seed %d: readers checked %d states over %d epochs\n%!" seed seen
    (Array.length ops);
  checkb "the readers saw the stream move" true (seen > 3);
  (match Registry.load reg path with
  | Ok (e, _) ->
    checkb "the last epoch is the stream's end" true
      (e.Registry.state.Registry.epoch = Array.length ops);
    ignore (Registry.evict reg digest)
  | Error _ -> Alcotest.fail "reload")

let test_racing_readers () = List.iter (fun seed -> run_race ~seed) [ 7; 8 ]

let () =
  Alcotest.run "hp_read_race"
    [
      ( "lock-free reads",
        [
          Alcotest.test_case "racing readers against a replay oracle" `Quick
            test_racing_readers;
        ] );
    ]
