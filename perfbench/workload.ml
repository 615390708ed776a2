(* The three fixed-work workloads, their budgets, and the correctness gate.

   Every pass of a workload does the same, deadline-free work: a verdict is
   a function of (functional, condition, budget) alone, so the paint logs
   and the deterministic Obs counters of a pass are known in advance and
   committed under reference/. *)

open Util

type budget = { fuel : int; threshold : float; delta : float }

type sizes = {
  table1 : budget;
  pbe_ec1 : budget;
  service : budget;  (** the engine's base config; keys override fuel/threshold *)
  service_keys : (string * string * int * float) list;
      (** (dfa, condition, fuel, threshold) *)
  service_queries : int;
}

let service_keys pairs overrides =
  List.concat_map
    (fun (dfa, cond) -> List.map (fun (fuel, th) -> (dfa, cond, fuel, th)) overrides)
    pairs

let full =
  {
    table1 = { fuel = 30; threshold = 1.25; delta = 1e-3 };
    pbe_ec1 = { fuel = 250; threshold = 0.3125; delta = 1e-3 };
    service = { fuel = 60; threshold = 0.625; delta = 1e-3 };
    (* Pairs whose hits (encode + config/formula hashes + cache find, about
       0.9-4.9 ms of CPU) outweigh the hit path's two journal fsyncs, whose
       latency swings with the disk; the two middle pairs by hit cost (scan
       ec4, scan ec2) cost the same, so the pooled p50 does not jump
       between pairs with the seed's repeat mix. *)
    service_keys =
      service_keys
        [ ("pbe", "ec7"); ("lyp", "ec3"); ("pbe", "ec2"); ("scan", "ec4");
          ("scan", "ec2"); ("scan", "ec6"); ("scan", "ec7"); ("pbe", "ec3") ]
        [ (10, 2.5); (20, 2.5); (10, 1.25) ];
    service_queries = 1000;
  }

(* A seconds-long version of every workload for the benchmark's own test. *)
let smoke =
  {
    table1 = { fuel = 6; threshold = 2.5; delta = 1e-2 };
    pbe_ec1 = { fuel = 40; threshold = 0.625; delta = 1e-3 };
    service = { fuel = 20; threshold = 1.25; delta = 1e-3 };
    service_keys =
      service_keys [ ("pbe", "ec1"); ("vwn_rpa", "ec7") ] [ (10, 2.5); (20, 1.25) ];
    service_queries = 40;
  }

let budget_json b =
  J.Obj
    [ ("fuel", int b.fuel); ("threshold", num b.threshold); ("delta", num b.delta) ]

(* The benchmark never runs more domains than cores. *)
let cores = max 1 (Domain.recommended_domain_count ())

let verify_config ~workers b =
  let base = Verify.default_config in
  {
    base with
    Verify.threshold = b.threshold;
    solver =
      { base.Verify.solver with Icp.fuel = b.fuel; delta = b.delta; faults = None };
    deadline_seconds = None;
    workers = min workers cores;
  }

(* ---- problems ------------------------------------------------------- *)

let key_of (p : Encoder.problem) =
  p.Encoder.dfa.Registry.name ^ "_" ^ Conditions.name p.Encoder.condition

(* Every process encodes all 29 Table I pairs first, in canonical order.
   Expression hash-consing makes a formula's structure depend on what was
   encoded before it (encoding the service's pairs in reverse order changes
   SCAN EC6's count of transcendental fallbacks, 9673 against 9723), so a
   fixed first encode makes every formula, and every deterministic counter,
   the same at any seed, in any workload and in any mode. The seed only
   permutes the order in which encoded pairs run or are queried. *)
let table1_problems () =
  Span.within "encoder" "Encoder.encode_all" (fun () ->
      Encoder.encode_all Registry.paper_five)

let pbe_ec1_problem () =
  Span.within "encoder" "Encoder.encode pbe ec1" (fun () ->
      Option.get (Encoder.encode (Registry.find "pbe") Conditions.Ec1))

let permute ~seed xs =
  Array.to_list (shuffle (Random.State.make [| seed |]) (Array.of_list xs))

(* ---- the gate ------------------------------------------------------- *)

let symbol o = Outcome.classification_symbol (Outcome.classify o)
let paint_digest o = Serialize.digest (Serialize.paint_to_string o)

type reference = {
  r_budget : J.t;
  r_verdicts : (string * (string * string)) list;  (** key -> symbol, paint *)
  r_deterministic : J.t;
}

let reference_json ~workload ~budget ~verdicts ~deterministic ~table =
  J.Obj
    [
      ("workload", J.Str workload);
      ("budget", budget);
      ("table", J.Arr (List.map (fun l -> J.Str l) table));
      ( "verdicts",
        J.Obj
          (List.map
             (fun (k, (sym, paint)) ->
               (k, J.Obj [ ("symbol", J.Str sym); ("paint", J.Str paint) ]))
             verdicts) );
      ("deterministic", deterministic);
    ]

let load_reference path =
  let j = J.of_string (read_file path) in
  let verdicts =
    match member "verdicts" j with
    | Some (J.Obj kvs) ->
        List.map (fun (k, v) -> (k, (str_member "symbol" v, str_member "paint" v))) kvs
    | _ -> failwith (path ^ ": no verdicts")
  in
  {
    r_budget = Option.get (member "budget" j);
    r_verdicts = verdicts;
    r_deterministic = Option.get (member "deterministic" j);
  }

let deterministic_of snap = J.of_string (Obs.Metrics.deterministic_json snap)

(* Names of the deterministic counters/histograms that differ, for the
   stderr diagnosis of a failed gate. *)
let deterministic_diff a b =
  let section k j = match member k j with Some (J.Obj kvs) -> kvs | _ -> [] in
  List.concat_map
    (fun k ->
      let xa = section k a and xb = section k b in
      let names = List.sort_uniq compare (List.map fst xa @ List.map fst xb) in
      List.filter (fun n -> List.assoc_opt n xa <> List.assoc_opt n xb) names)
    [ "counters"; "histograms" ]

let verdict_ok reference key o =
  match List.assoc_opt key reference.r_verdicts with
  | Some (sym, paint) -> sym = symbol o && paint = paint_digest o
  | None -> false

(* ---- campaign passes (table1, pbe-ec1) ------------------------------ *)

let with_metrics f =
  let m = Obs.Metrics.fresh () in
  let prev = Obs.Metrics.install m in
  Fun.protect
    ~finally:(fun () -> ignore (Obs.Metrics.install prev))
    (fun () ->
      let r = f () in
      (r, Obs.Metrics.snapshot ~registry:m ()))

type pass = {
  outcomes : (string * Outcome.t * float) list;
      (** pair key, outcome, [Verify.run] latency (s) *)
  events : (string * Trace.event list) list;  (** when recorded *)
  first_call : float;  (** the first solver call of the pass *)
  first_cpu : float;
  finish : float;
  finish_cpu : float;
  snap : Obs.Metrics.snapshot;
  gc : Gc.stat * Gc.stat;  (** around the pass, after every domain joined *)
}

let wall p = p.finish -. p.first_call
let cpu_s p = p.finish_cpu -. p.first_cpu

(* The verifier polls [stop] before it pops each box, so the first poll of
   a pass marks its first solver call: set-up ends there, the timed
   section starts there. *)
type mark = { fired : bool Atomic.t; mutable at : float; mutable at_cpu : float }

let new_mark () = { fired = Atomic.make false; at = Float.nan; at_cpu = Float.nan }

let mark_stop ?(then_stop = false) m () =
  if (not (Atomic.get m.fired)) && Atomic.compare_and_set m.fired false true
  then begin
    m.at <- now ();
    m.at_cpu <- cpu ()
  end;
  then_stop

(* With [speed], host-speed slices (Speed) run before every pair and, on a
   single worker, at the stop poll; a pair's latency leaves them out. *)
let campaign_pass ?(record = false) ?(layer = "verify") ?speed ~config problems =
  let mark = new_mark () in
  let tick () = Option.iter Speed.tick speed in
  let stop () =
    ignore (mark_stop mark ());
    if config.Verify.workers = 1 then tick ();
    false
  in
  let sliced since = match speed with Some sp -> fst (Speed.spent ~since sp) | None -> 0. in
  let gc0 = Gc.quick_stat () in
  let (outcomes, events), snap =
    with_metrics (fun () ->
        let runs =
          List.map
            (fun p ->
              let k = key_of p in
              let recorder = if record then Some (Trace.create ()) else None in
              tick ();
              Span.within layer ("Verify.run " ^ k) (fun () ->
                  let t0 = now () in
                  let o = Verify.run ~config ?recorder ~stop p in
                  ( (k, o, now () -. t0 -. sliced t0),
                    Option.map (fun r -> (k, Trace.events r)) recorder )))
            problems
        in
        (List.map fst runs, List.filter_map snd runs))
  in
  let finish = now () and finish_cpu = cpu () in
  let gc1 = Gc.quick_stat () in
  {
    outcomes;
    events;
    first_call = mark.at;
    first_cpu = mark.at_cpu;
    finish;
    finish_cpu;
    snap;
    gc = (gc0, gc1);
  }

(* ---- service passes ------------------------------------------------- *)

let key_name (dfa, cond, fuel, th) = Printf.sprintf "%s_%s_f%d_t%g" dfa cond fuel th

(* Every key once (the misses) plus seeded repeats (the hits), shuffled:
   the miss count is the key count at every seed. *)
let query_sequence ~seed sizes =
  let keys = Array.of_list sizes.service_keys in
  let n = Array.length keys in
  let st = Random.State.make [| seed; 0x5e71ce |] in
  let repeats =
    Array.init (sizes.service_queries - n) (fun _ -> keys.(Random.State.int st n))
  in
  shuffle st (Array.append keys repeats)

let service_config ~dir sizes =
  {
    Engine.cache_dir = dir;
    max_inflight = 4;
    default_deadline_ms = None;
    fuel_quota = None;
    verify = verify_config ~workers:1 sizes.service;
    io_faults = None;
    kill_after = None;
  }

type query = {
  q_key : string;
  q_ms : float;
  q_cpu_ms : float;  (** the process's CPU time during the query *)
  q_cached : bool;
  q_outcome : Outcome.t option;  (** [None]: Failed/Overloaded/Refused/partial *)
}

type service_pass = {
  queries : query list;
  create_s : float;
  s_wall : float;
  s_cpu : float;
  s_snap : Obs.Metrics.snapshot;
  s_gc : Gc.stat * Gc.stat;
}

(* One client in a closed loop on a fresh, empty cache directory. Nothing
   is deleted while a run measures: the caller removes every directory
   once the run is over (a deletion would put its file-system work into
   the next pass's fsyncs). With [speed], a host-speed tick (Speed) may
   run before each query, outside its latency. *)
let service_pass ?speed ~dir sizes seq =
  let gc0 = Gc.quick_stat () in
  let (create_s, s_wall, s_cpu, queries), s_snap =
    with_metrics (fun () ->
        let t0 = now () in
        let engine =
          Span.within "service" "Engine.create" (fun () ->
              Engine.create (service_config ~dir sizes))
        in
        let client = Engine.new_client engine in
        let create_s = now () -. t0 in
        let w0 = now () and c0 = cpu () in
        let ask i ((dfa, condition, fuel, th) as key) =
          let q_key = key_name key in
          Span.within "bench" ("query " ^ q_key) @@ fun () ->
          let req =
            Protocol.Verify
              {
                id = i + 1;
                dfa;
                condition;
                opts =
                  { Protocol.deadline_ms = None; fuel = Some fuel; threshold = Some th };
              }
          in
          Option.iter Speed.tick speed;
          let qc0 = cpu () in
          let q0 = now () in
          let got = ref [] in
          (match
             Span.within "service" "Engine.submit" (fun () ->
                 Engine.submit engine client req)
           with
          | Some r -> got := [ r ]
          | None ->
              Span.within "service" "Engine.drain" (fun () ->
                  Engine.drain engine ~on_response:(fun _ r -> got := r :: !got) ()));
          let q_ms = (now () -. q0) *. 1e3 in
          let q_cpu_ms = (cpu () -. qc0) *. 1e3 in
          match !got with
          | [ Protocol.Result { cached; partial = false; degraded = 0; outcome; _ } ] ->
              { q_key; q_ms; q_cpu_ms; q_cached = cached; q_outcome = Some outcome }
          | _ -> { q_key; q_ms; q_cpu_ms; q_cached = false; q_outcome = None }
        in
        let queries = Array.to_list (Array.mapi ask seq) in
        Engine.shutdown engine;
        (create_s, now () -. w0, cpu () -. c0, queries))
  in
  let gc1 = Gc.quick_stat () in
  { queries; create_s; s_wall; s_cpu; s_snap; s_gc = (gc0, gc1) }

(* The first outcome served for every key, in key order. *)
let service_outcomes sizes pass =
  List.filter_map
    (fun key ->
      let name = key_name key in
      List.find_map
        (fun q -> if q.q_key = name then q.q_outcome else None)
        pass.queries
      |> Option.map (fun o -> (key, o)))
    sizes.service_keys
