module Snapshot = Hp_snapshot.Snapshot
module Wal = Hp_wal.Wal
module Live = Hp_wal.Live
module Log = Hp_util.Log
module H = Hp_hypergraph.Hypergraph
module HM = Hp_hypergraph.Hypergraph_maintain

type source = Text | Snapshot_file of string

type state = {
  epoch : int;
  hypergraph : H.t;
  cores : Hp_hypergraph.Hypergraph_core.decomposition option;
}

type recovery = { replayed : int; torn_bytes : int; healed_skew : bool }

type entry = {
  digest : string;
  path : string;
  bytes : int;
  loaded_at : float;
  source : source;
  fallback : bool;
  recovery : recovery option;
  mutable state : state;
      (* Readers snapshot the whole pair with one field read, so a
         concurrent mutation can never pair an old hypergraph with a
         new epoch (or vice versa). *)
  mutable live : Live.t option;
  mutable maint : HM.t option;
      (* Incrementally maintained core decomposition; created together
         with [live] and advanced inside [mutate], so it exists exactly
         for the datasets paying the mutation path. *)
  mutable wal : Wal.writer option;
  mutable wal_records : int;  (* records in the current log file *)
  mutable wal_base_identity : string;
  mutable wal_base_epoch : int;
      (* The base the *next* created WAL folds over: kept ahead of the
         writer so a checkpoint whose log swap fails can still create
         a sound WAL on the following mutation. *)
}

type t = {
  mutex : Mutex.t;
  table : (string, entry) Hashtbl.t;
  max_file_bytes : int;  (* 0 = unlimited *)
  wal_sync : Wal.sync_policy;
  checkpoint_every : int;  (* 0 = manual checkpoints only *)
}

type load_error =
  | Read_failed of string
  | Parse_failed of string

let create ?(max_file_bytes = 0) ?(wal_sync = Wal.Batch) ?(checkpoint_every = 0)
    () =
  if max_file_bytes < 0 then invalid_arg "Registry.create: max_file_bytes < 0";
  if checkpoint_every < 0 then
    invalid_arg "Registry.create: checkpoint_every < 0";
  {
    mutex = Mutex.create ();
    table = Hashtbl.create 16;
    max_file_bytes;
    wal_sync;
    checkpoint_every;
  }

let op_shape : Wal.op -> HM.op = function
  | Wal.Add_vertex _ -> HM.Op_add_vertex
  | Wal.Add_edge _ -> HM.Op_add_edge
  | Wal.Del_edge { edge } -> HM.Op_del_edge edge

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* The size gate runs before the bytes are pulled into memory, so a
   multi-GB file answers [ERR io_error] instead of OOM-ing the daemon.
   The digest is computed in the same pass as the read — a dataset is
   never read twice to learn its identity. *)
let read_file ~max_bytes path =
  Hp_util.Fault.point "registry.read";
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let len = in_channel_length ic in
      if max_bytes > 0 && len > max_bytes then
        Error
          (Printf.sprintf "%s: file exceeds %d bytes (%d)" path max_bytes len)
      else begin
        let ctx = Hp_util.Md5.init () in
        let buf = Buffer.create (max len 64) in
        let chunk = Bytes.create 65536 in
        let remaining = ref len in
        while !remaining > 0 do
          let n = input ic chunk 0 (min !remaining (Bytes.length chunk)) in
          if n = 0 then remaining := 0 (* file shrank mid-read; digest what we saw *)
          else begin
            Hp_util.Md5.feed ctx chunk ~pos:0 ~len:n;
            Buffer.add_subbytes buf chunk 0 n;
            remaining := !remaining - n
          end
        done;
        Ok (Buffer.contents buf, Hp_util.Md5.hex ctx)
      end)

let parse_content ~path content =
  if Filename.check_suffix path ".mtx" then
    Hp_data.Matrix_market.to_hypergraph (Hp_data.Matrix_market.parse content)
  else Hp_hypergraph.Hypergraph_io.of_string content

(* Publish a freshly built entry, unless a concurrent load of the same
   content won the race; keeping the resident entry keeps ids stable.
   The loser's WAL writer (if it opened one) is closed — the winner's
   fd is the one that matters. *)
let publish t candidate =
  locked t (fun () ->
      match Hashtbl.find_opt t.table candidate.digest with
      | Some existing ->
        Option.iter Wal.close candidate.wal;
        Ok (existing, false)
      | None ->
        Hashtbl.add t.table candidate.digest candidate;
        Ok (candidate, true))

let is_snapshot path = Filename.check_suffix path Snapshot.file_extension

(* The snapshot preferred over re-parsing [path]: its conventional
   sibling, when present and at least as new as the text file.  A
   stale sibling (text file edited after the pack) is ignored, not an
   error — the text file is the source of truth.  (Only consulted when
   no WAL exists; a WAL pins its base by identity, not mtime.) *)
let preferred_snapshot path =
  if is_snapshot path then None
  else begin
    let snap = Snapshot.sibling_path path in
    match ((Unix.stat snap).Unix.st_mtime, (Unix.stat path).Unix.st_mtime) with
    | snap_t, path_t when snap_t >= path_t -> Some snap
    | _ -> None
    | exception Unix.Unix_error _ -> None
  end

let fresh_entry ~digest ~path ~hypergraph ~bytes ~source ~fallback =
  {
    digest;
    path;
    bytes;
    loaded_at = Unix.gettimeofday ();
    source;
    fallback;
    recovery = None;
    state = { epoch = 0; hypergraph; cores = None };
    live = None;
    maint = None;
    wal = None;
    wal_records = 0;
    wal_base_identity = digest;
    wal_base_epoch = 0;
  }

let load_snapshot t ~given_path snap_path ~fallback_allowed =
  let size =
    match (Unix.stat snap_path).Unix.st_size with
    | size -> size
    | exception Unix.Unix_error _ -> 0
  in
  if t.max_file_bytes > 0 && size > t.max_file_bytes then
    if fallback_allowed then Error `Fall_back
    else
      Error
        (`Fail
          (Read_failed
             (Printf.sprintf "%s: file exceeds %d bytes (%d)" snap_path
                t.max_file_bytes size)))
  else
    match Snapshot.read snap_path with
    | Ok (hypergraph, snap) ->
      publish t
        (fresh_entry ~digest:snap.Snapshot.identity ~path:given_path ~hypergraph
           ~bytes:snap.Snapshot.file_bytes ~source:(Snapshot_file snap_path)
           ~fallback:false)
    | Error (Snapshot.Io msg) ->
      if fallback_allowed then Error `Fall_back
      else Error (`Fail (Read_failed msg))
    | Error e ->
      if fallback_allowed then Error `Fall_back
      else
        Error
          (`Fail (Parse_failed (snap_path ^ ": " ^ Snapshot.error_to_string e)))

let load_text t path ~fallback =
  match read_file ~max_bytes:t.max_file_bytes path with
  | exception Sys_error msg -> Error (Read_failed msg)
  | exception Hp_util.Fault.Injected name ->
    Error (Read_failed (Printf.sprintf "%s: injected fault %s" path name))
  | Error msg -> Error (Read_failed msg)
  | Ok (content, digest) ->
    (match locked t (fun () -> Hashtbl.find_opt t.table digest) with
    | Some entry -> Ok (entry, false)
    | None ->
      (match parse_content ~path content with
      | exception Failure msg -> Error (Parse_failed (Printf.sprintf "%s: %s" path msg))
      | exception Invalid_argument msg ->
        Error (Parse_failed (Printf.sprintf "%s: %s" path msg))
      | hypergraph ->
        publish t
          (fresh_entry ~digest ~path ~hypergraph ~bytes:(String.length content)
             ~source:Text ~fallback)))

(* ---------------------------------------------------------------- *)
(* WAL recovery                                                     *)

let wal_error_to_load wal_path = function
  | Wal.Io msg -> Read_failed msg
  | e -> Parse_failed (wal_path ^ ": " ^ Wal.error_to_string e)

(* A dataset with a sibling [.hgwal] recovers by folding the log over
   its base.  Base resolution precedence (DESIGN.md §12):

   1. a sibling snapshot whose identity equals the log's
      [base_identity] — the normal post-checkpoint shape;
   2. the text file whose byte digest equals [base_identity] — the
      pre-first-checkpoint shape;
   3. a snapshot that loads cleanly but names a *different* identity:
      checkpoint/log skew.  That shape only arises from a crash
      between the checkpoint's snapshot rename and its WAL reset — a
      window in which no mutation can be acknowledged — so the
      snapshot already contains every logged record.  Heal: adopt the
      snapshot at [base_epoch + record count] and start a fresh log.
   4. otherwise [Base_skew], a typed error naming what was tried. *)
let load_with_wal t ~path ~wal_path (log : Wal.log) =
  match locked t (fun () -> Hashtbl.find_opt t.table log.Wal.handle) with
  | Some entry -> Ok (entry, false)
  | None ->
    let snap_path =
      if is_snapshot path then path else Snapshot.sibling_path path
    in
    let snap_candidate =
      if Sys.file_exists snap_path then
        match Snapshot.read snap_path with
        | Ok (h, s) -> `Loaded (h, s)
        | Error e -> `Rejected (Snapshot.error_to_string e)
      else `Absent
    in
    let resolved =
      match snap_candidate with
      | `Loaded (h, s) when s.Snapshot.identity = log.Wal.base_identity ->
        Ok (`Base (h, Snapshot_file snap_path, s.Snapshot.file_bytes))
      | _ -> (
        let tried = ref [] in
        (match snap_candidate with
        | `Loaded (_, s) ->
          tried := Printf.sprintf "snapshot %s" s.Snapshot.identity :: !tried
        | `Rejected msg ->
          tried := Printf.sprintf "snapshot unreadable (%s)" msg :: !tried
        | `Absent -> ());
        let text =
          if is_snapshot path then `Absent
          else
            match read_file ~max_bytes:t.max_file_bytes path with
            | exception Sys_error msg -> `Unreadable msg
            | exception Hp_util.Fault.Injected name ->
              `Unreadable (Printf.sprintf "injected fault %s" name)
            | Error msg -> `Unreadable msg
            | Ok (content, digest) -> `Read (content, digest)
        in
        match text with
        | `Read (content, digest) when digest = log.Wal.base_identity -> (
          match parse_content ~path content with
          | exception Failure msg ->
            Error (Parse_failed (Printf.sprintf "%s: %s" path msg))
          | exception Invalid_argument msg ->
            Error (Parse_failed (Printf.sprintf "%s: %s" path msg))
          | h -> Ok (`Base (h, Text, String.length content)))
        | text -> (
          (match text with
          | `Read (_, digest) ->
            tried := Printf.sprintf "text %s" digest :: !tried
          | `Unreadable msg ->
            tried := Printf.sprintf "text unreadable (%s)" msg :: !tried
          | `Absent -> ());
          match snap_candidate with
          | `Loaded (h, s) -> Ok (`Heal (h, s))
          | `Rejected _ | `Absent ->
            Error
              (Parse_failed
                 (wal_path ^ ": "
                 ^ Wal.error_to_string
                     (Wal.Base_skew
                        {
                          base = log.Wal.base_identity;
                          tried = List.rev !tried;
                        })))))
    in
    (match resolved with
    | Error _ as e -> e
    | Ok (`Heal (hypergraph, s)) -> (
      let epoch = log.Wal.base_epoch + Array.length log.Wal.records in
      Log.warn ~comp:"registry"
        ~fields:[ ("wal", wal_path); ("snapshot", snap_path); ("dataset", path) ]
        "checkpoint/log skew healed: adopting snapshot, retiring log";
      match
        Wal.create ~path:wal_path ~handle:log.Wal.handle
          ~base_identity:s.Snapshot.identity ~base_epoch:epoch ~sync:t.wal_sync
      with
      | Error e -> Error (wal_error_to_load wal_path e)
      | Ok w ->
        publish t
          {
            digest = log.Wal.handle;
            path;
            bytes = s.Snapshot.file_bytes;
            loaded_at = Unix.gettimeofday ();
            source = Snapshot_file snap_path;
            fallback = false;
            recovery =
              Some
                {
                  replayed = 0;
                  torn_bytes = log.Wal.torn_bytes;
                  healed_skew = true;
                };
            state = { epoch; hypergraph; cores = None };
            live = None;
            maint = None;
            wal = Some w;
            wal_records = 0;
            wal_base_identity = s.Snapshot.identity;
            wal_base_epoch = epoch;
          })
    | Ok (`Base (base_h, source, bytes)) -> (
      let live = Live.of_hypergraph base_h in
      let n = Array.length log.Wal.records in
      let rec replay i =
        if i >= n then Ok ()
        else
          match Live.apply live log.Wal.records.(i).Wal.op with
          | Ok _ -> replay (i + 1)
          | Error msg ->
            Error
              (Parse_failed
                 (Printf.sprintf "%s: record %d does not apply: %s" wal_path i
                    msg))
      in
      match replay 0 with
      | Error _ as e -> e
      | Ok () -> (
        if log.Wal.torn_bytes > 0 then
          Log.warn ~comp:"registry"
            ~fields:
              [
                ("wal", wal_path);
                ("torn_bytes", string_of_int log.Wal.torn_bytes);
              ]
            "torn WAL tail truncated on recovery";
        match
          Wal.open_append ~path:wal_path ~valid_bytes:log.Wal.valid_bytes
            ~sync:t.wal_sync
        with
        | Error e -> Error (wal_error_to_load wal_path e)
        | Ok w ->
          let hypergraph = if n = 0 then base_h else Live.to_hypergraph live in
          (* The dataset was mutated before the restart, so rebuild
             the maintained decomposition now: the first KCORE after
             recovery is served warm, and subsequent mutations repair
             instead of re-peeling.  Peel the BASE, then absorb the
             whole replayed log as one batched cascade — recovery pays
             one repair for the burst instead of one peel of the final
             state (or n repairs). *)
          let maint = HM.create base_h in
          if n > 0 then begin
            let ops =
              Array.to_list
                (Array.map (fun r -> op_shape r.Wal.op) log.Wal.records)
            in
            ignore (HM.apply_batch maint ~after:hypergraph ~ops)
          end;
          publish t
            {
              digest = log.Wal.handle;
              path;
              bytes;
              loaded_at = Unix.gettimeofday ();
              source;
              fallback = false;
              recovery =
                Some
                  {
                    replayed = n;
                    torn_bytes = log.Wal.torn_bytes;
                    healed_skew = false;
                  };
              state =
                {
                  epoch = log.Wal.base_epoch + n;
                  hypergraph;
                  cores = Some (HM.decomposition maint);
                };
              live = Some live;
              maint = Some maint;
              wal = Some w;
              wal_records = n;
              wal_base_identity = log.Wal.base_identity;
              wal_base_epoch = log.Wal.base_epoch;
            })))

let load t path =
  let wal_path = Wal.sibling_path path in
  if Sys.file_exists wal_path then
    match Wal.read wal_path with
    | Error e -> Error (wal_error_to_load wal_path e)
    | Ok log -> load_with_wal t ~path ~wal_path log
  else if is_snapshot path then
    match load_snapshot t ~given_path:path path ~fallback_allowed:false with
    | Ok _ as ok -> ok
    | Error (`Fail e) -> Error e
    | Error `Fall_back -> assert false
  else
    match preferred_snapshot path with
    | None -> load_text t path ~fallback:false
    | Some snap ->
      (match load_snapshot t ~given_path:path snap ~fallback_allowed:true with
      | Ok _ as ok -> ok
      | Error (`Fail _) -> assert false
      | Error `Fall_back ->
        (* A sibling existed but could not be trusted; fall back to the
           text parse and mark the entry so the server can count it. *)
        Log.warn ~comp:"registry"
          ~fields:[ ("snapshot", snap); ("dataset", path) ]
          "snapshot rejected, reparsing text";
        load_text t path ~fallback:true)

let resolve_locked t key =
  match Hashtbl.find_opt t.table key with
  | Some entry -> `Found entry
  | None ->
    if String.length key < 4 then `Missing
    else begin
      let matches =
        Hashtbl.fold
          (fun digest entry acc ->
            if String.length key <= String.length digest
               && String.sub digest 0 (String.length key) = key
            then entry :: acc
            else acc)
          t.table []
      in
      match matches with
      | [ entry ] -> `Found entry
      | [] -> `Missing
      | _ -> `Ambiguous
    end

let find t key = locked t (fun () -> resolve_locked t key)

let evict t key =
  locked t (fun () ->
      match resolve_locked t key with
      | `Found entry ->
        Option.iter Wal.close entry.wal;
        entry.wal <- None;
        Hashtbl.remove t.table entry.digest;
        Some entry
      | `Ambiguous | `Missing -> None)

let list t =
  locked t (fun () -> Hashtbl.fold (fun _ e acc -> e :: acc) t.table [])
  |> List.sort (fun a b -> compare a.loaded_at b.loaded_at)

let sync_wals t =
  locked t (fun () ->
      Hashtbl.iter (fun _ e -> Option.iter Wal.flush e.wal) t.table)

(* ---------------------------------------------------------------- *)
(* Mutation                                                         *)

type applied = {
  epoch : int;
  assigned : int option;
  n_vertices : int;
  n_edges : int;
  checkpointed : bool;
  repair : HM.outcome;
}

type checkpoint_info = {
  snapshot_path : string;
  snapshot_identity : string;
  snapshot_bytes : int;
  at_epoch : int;
  records_folded : int;
}

let wal_path_of entry = Wal.sibling_path entry.path

let ensure_live entry =
  match entry.live with
  | Some l -> l
  | None ->
    let l = Live.of_hypergraph entry.state.hypergraph in
    entry.live <- Some l;
    l

let ensure_maintained entry =
  match entry.maint with
  | Some m -> m
  | None ->
    (* First mutation of this dataset: pay one full peel, then every
       subsequent mutation repairs incrementally. *)
    let m = HM.create entry.state.hypergraph in
    entry.maint <- Some m;
    m

let ensure_writer t entry =
  match entry.wal with
  | Some w -> Ok w
  | None -> (
    match
      Wal.create ~path:(wal_path_of entry) ~handle:entry.digest
        ~base_identity:entry.wal_base_identity
        ~base_epoch:entry.wal_base_epoch ~sync:t.wal_sync
    with
    | Ok w ->
      entry.wal <- Some w;
      entry.wal_records <- 0;
      Ok w
    | Error e -> Error (`Io (Wal.error_to_string e)))

(* Pack the current state, then swap in a fresh log over it.  Both
   steps are atomic renames; [wal.swap] sits in the crash window
   between them — the exact skew shape [load_with_wal] heals.  The
   entry's [wal_base_*] fields are advanced *before* the swap so that
   even a failed swap leaves the next [ensure_writer] folding over the
   snapshot that is already on disk. *)
let checkpoint_locked t entry =
  let { epoch; hypergraph; _ } = entry.state in
  let snap_path =
    if is_snapshot entry.path then entry.path
    else Snapshot.sibling_path entry.path
  in
  let folded = entry.wal_records in
  match Snapshot.pack hypergraph snap_path with
  | exception Sys_error msg -> Error (`Io msg)
  | exception Unix.Unix_error (e, fn, arg) ->
    Error (`Io (Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message e)))
  | exception Invalid_argument msg -> Error (`Io msg)
  | exception Hp_util.Fault.Injected name ->
    Error (`Io (Printf.sprintf "injected fault %s" name))
  | info -> (
    entry.wal_base_identity <- info.Snapshot.identity;
    entry.wal_base_epoch <- epoch;
    Option.iter Wal.close entry.wal;
    entry.wal <- None;
    match
      Hp_util.Fault.point "wal.swap";
      Wal.create ~path:(wal_path_of entry) ~handle:entry.digest
        ~base_identity:info.Snapshot.identity ~base_epoch:epoch
        ~sync:t.wal_sync
    with
    | exception Hp_util.Fault.Injected name ->
      Error (`Io (Printf.sprintf "injected fault %s" name))
    | Error e -> Error (`Io (Wal.error_to_string e))
    | Ok w ->
      entry.wal <- Some w;
      entry.wal_records <- 0;
      Ok
        {
          snapshot_path = snap_path;
          snapshot_identity = info.Snapshot.identity;
          snapshot_bytes = info.Snapshot.bytes;
          at_epoch = epoch;
          records_folded = folded;
        })

let checkpoint t key =
  locked t (fun () ->
      match resolve_locked t key with
      | `Missing -> Error `Missing
      | `Ambiguous -> Error `Ambiguous
      | `Found entry -> (
        match checkpoint_locked t entry with
        | Ok _ as ok -> ok
        | Error (`Io msg) -> Error (`Io msg)))

(* ---------------------------------------------------------------- *)
(* Batched mutation                                                 *)

type batch_item = {
  b_epoch : int;
  b_assigned : int option;
  b_n_vertices : int;
  b_n_edges : int;
}

type batch_result = {
  items : (batch_item, [ `Invalid of string | `Io of string ]) result array;
      (* one per input op, in order *)
  batch_repair : HM.outcome option;  (* [None] when nothing applied *)
  batch_applied : int;
  batch_checkpointed : bool;
}

(* Apply a burst of mutations under one lock acquisition with ONE
   decomposition repair (HM.apply_batch) and one state rebuild at the
   end, instead of per-op repairs.  Ops validate sequentially against
   the evolving state; an invalid op is skipped with a per-item error
   and the rest of the burst continues.  The WAL writer opens at the
   first op that validates, so rejected ops on a never-mutated dataset
   create no log, and a writer that cannot open fails the burst before
   anything is applied.  A WAL append failure aborts the remainder —
   those ops were never acknowledged. *)
let mutate_batch t key ops =
  locked t (fun () ->
      match resolve_locked t key with
      | `Missing -> Error `Missing
      | `Ambiguous -> Error `Ambiguous
      | `Found entry -> (
        let live = ensure_live entry in
        let base_epoch = entry.state.epoch in
        let applied = ref 0 in
        let shapes = ref [] in
        let aborted = ref None in
        let exception No_writer of string in
        let item op =
          match !aborted with
          | Some msg -> Error (`Io ("batch aborted: " ^ msg))
          | None -> (
            match Live.validate live op with
            | Error msg -> Error (`Invalid msg)
            | Ok () -> (
              let w =
                match ensure_writer t entry with
                | Ok w -> w
                | Error (`Io msg) -> raise (No_writer msg)
              in
              let epoch = base_epoch + !applied + 1 in
              (* WAL before apply: if the append fails the op was never
                 acknowledged and the in-memory state is untouched. *)
              match Wal.append w { Wal.epoch; op } with
              | Error e ->
                let msg = Wal.error_to_string e in
                aborted := Some msg;
                Error (`Io msg)
              | Ok () ->
                let assigned = Live.apply_exn live op in
                incr applied;
                shapes := op_shape op :: !shapes;
                Ok
                  {
                    b_epoch = epoch;
                    b_assigned = assigned;
                    b_n_vertices = Live.n_vertices live;
                    b_n_edges = Live.n_edges live;
                  }))
        in
        match Array.of_list (List.map item ops) with
        | exception No_writer msg -> Error (`Io msg)
        | items when !applied = 0 ->
          Ok
            {
              items;
              batch_repair = None;
              batch_applied = 0;
              batch_checkpointed = false;
            }
        | items ->
          (* [entry.state] is still the pre-burst state, so a first
             mutation builds the maintainer (one full peel) from it
             and the burst's ops are folded in by one repair. *)
          let maint = ensure_maintained entry in
          entry.wal_records <- entry.wal_records + !applied;
          let hypergraph = Live.to_hypergraph live in
          let repair =
            HM.apply_batch maint ~after:hypergraph ~ops:(List.rev !shapes)
          in
          entry.state <-
            {
              epoch = base_epoch + !applied;
              hypergraph;
              cores = Some (HM.decomposition maint);
            };
          let checkpointed =
            t.checkpoint_every > 0
            && entry.wal_records >= t.checkpoint_every
            &&
            match checkpoint_locked t entry with
            | Ok _ -> true
            | Error (`Io msg) ->
              Log.warn ~comp:"registry"
                ~fields:[ ("dataset", entry.digest); ("error", msg) ]
                "auto-checkpoint failed; log keeps growing";
              false
          in
          Ok
            {
              items;
              batch_repair = Some repair;
              batch_applied = !applied;
              batch_checkpointed = checkpointed;
            }))

type mutate_error = [ `Missing | `Ambiguous | `Invalid of string | `Io of string ]

let mutate t key op =
  match mutate_batch t key [ op ] with
  | Error e -> Error (e :> mutate_error)
  | Ok r -> (
    match r.items.(0) with
    | Error e -> Error (e :> mutate_error)
    | Ok b ->
      Ok
        {
          epoch = b.b_epoch;
          assigned = b.b_assigned;
          n_vertices = b.b_n_vertices;
          n_edges = b.b_n_edges;
          checkpointed = r.batch_checkpointed;
          repair = Option.get r.batch_repair;
        })
