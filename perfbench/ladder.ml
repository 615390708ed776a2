(* The traced run: the layer ladder under the end-to-end workloads.

   One procedure, the same for every --workload: each per-layer metric is
   measured on the workload it is meant to explain (README.md has the
   table). Every workload gets a traced pass between two untraced ones;
   the traced pass records spans (see Span) and the verifier's own per-box
   trace, and its wall over the untraced ones is the tracing overhead. The
   ladder replays then re-run single layers on inputs recorded from the
   workloads themselves. *)

open Util
open Workload

type acc = {
  mutable metrics : (string * float * string) list;  (** name, value, unit *)
  mutable absent : (string * string) list;  (** name, reason *)
  mutable attempted : int;
  mutable failed : int;
}

let put acc name unit v = acc.metrics <- (name, v, unit) :: acc.metrics

let gate acc ok =
  acc.attempted <- acc.attempted + 1;
  if not ok then acc.failed <- acc.failed + 1

let lookup kvs name = Option.value ~default:0 (List.assoc_opt name kvs)

let counter (s : Obs.Metrics.snapshot) name =
  match List.assoc_opt name s.Obs.Metrics.counters with
  | Some v -> v
  | None -> lookup s.Obs.Metrics.wall_counters name

let histogram (s : Obs.Metrics.snapshot) name =
  Option.value ~default:[] (List.assoc_opt name s.Obs.Metrics.histograms)

let put_histogram acc snap name unit =
  let b = histogram snap name in
  List.iter
    (fun (suffix, q) ->
      match hist_quantile q b with
      | Some v -> put acc (name ^ "_" ^ suffix) unit v
      | None -> acc.absent <- (name ^ "_" ^ suffix, "empty histogram") :: acc.absent)
    [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99); ("max", 1.0) ]

let put_gc acc workload (g0, g1) expansions =
  let p = "gc." ^ workload ^ "." in
  put acc (p ^ "minor_collections") "count"
    (float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections));
  put acc (p ^ "major_collections") "count"
    (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
  put acc (p ^ "minor_words_per_expansion") "words"
    ((g1.Gc.minor_words -. g0.Gc.minor_words) /. float_of_int (max 1 expansions))

(* Does [Gc.quick_stat] on this runtime count allocations of domains that
   have already joined? Allocate a known amount on a spawned domain and
   look. (On OCaml 5.1 it does: joined domains' counts are folded in.) *)
let gc_covers_all_domains () =
  let words = 1_000_000 in
  let before = (Gc.quick_stat ()).Gc.minor_words in
  let d =
    Domain.spawn (fun () ->
        let r = ref [] in
        for i = 1 to words / 3 do
          r := [ i ]
        done;
        List.length !r)
  in
  ignore (Domain.join d);
  (Gc.quick_stat ()).Gc.minor_words -. before >= float_of_int words *. 0.9

(* ---- interval: ns/op on a seeded mix of narrow and wide arguments ---- *)

let rec ulps_up x k = if k = 0 then x else ulps_up (Float.succ x) (k - 1)

(* Half the arguments are narrow (1..32 ulp, the shape of a late-search
   box), half wide (two independent draws). *)
let draw_interval st ~lo ~hi ~log_scale =
  let draw () =
    if log_scale then Float.exp (Float.log lo +. Random.State.float st (Float.log hi -. Float.log lo))
    else lo +. Random.State.float st (hi -. lo)
  in
  if Random.State.bool st then
    let x = draw () in
    Interval.make x (ulps_up x (1 + Random.State.int st 32))
  else
    let a = draw () and b = draw () in
    Interval.make (Float.min a b) (Float.max a b)

let ns_per_op ~seconds f args =
  let n = Array.length args in
  let chunk () =
    let reps = ref 0 and t0 = now () in
    while now () -. t0 < seconds /. 5. do
      Array.iter (fun a -> ignore (Sys.opaque_identity (f a))) args;
      incr reps
    done;
    (now () -. t0) *. 1e9 /. float_of_int (!reps * n)
  in
  median (List.init 5 (fun _ -> chunk ()))

let interval_ops acc ~seed ~seconds =
  let st = Random.State.make [| seed; 0x1e7 |] in
  let n = 4096 in
  let args ~lo ~hi ~log_scale =
    Array.init n (fun _ -> draw_interval st ~lo ~hi ~log_scale)
  in
  let signed () =
    let a = args ~lo:1e-3 ~hi:1e3 ~log_scale:true in
    Array.map
      (fun i -> if Random.State.bool st then Interval.neg i else i)
      a
  in
  let rats = [| Rat.make 1 3; Rat.make 4 3; Rat.make (-1) 3; Rat.make 2 3 |] in
  let exp_args = args ~lo:(-30.) ~hi:30. ~log_scale:false in
  let log_args = args ~lo:1e-8 ~hi:1e8 ~log_scale:true in
  let pow_args =
    Array.mapi (fun i x -> (x, rats.(i mod 4))) (args ~lo:1e-4 ~hi:1e4 ~log_scale:true)
  in
  let mul_args = Array.map2 (fun a b -> (a, b)) (signed ()) (signed ()) in
  let div_args = Array.map2 (fun a b -> (a, b)) (signed ()) (signed ()) in
  let ops =
    [
      ("exp", fun () -> ns_per_op ~seconds Transcend.exp exp_args);
      ("log", fun () -> ns_per_op ~seconds Transcend.log log_args);
      ("pow_rat", fun () -> ns_per_op ~seconds (fun (x, r) -> Transcend.pow_rat x r) pow_args);
      ("mul", fun () -> ns_per_op ~seconds (fun (a, b) -> Interval.mul a b) mul_args);
      ("div", fun () -> ns_per_op ~seconds (fun (a, b) -> Interval.div a b) div_args);
    ]
  in
  (* in a private metrics instance: the transcend.* meters of the
     workloads stay untouched *)
  ignore
    (with_metrics (fun () ->
         List.iter
           (fun (op, f) ->
             let ns = Span.within "interval" ("Interval " ^ op) f in
             put acc ("interval." ^ op ^ "_ns") "ns" ns)
           ops))

(* ---- solver: replays over the solver-call boxes of a recorded pass ---- *)

let solver_call_boxes events =
  List.filter_map
    (fun (e : Trace.event) ->
      match e.Trace.kind with
      | Trace.Solve { fuel; _ } -> Some (e.Trace.box, fuel)
      | _ -> None)
    events

let compile_problem (p : Encoder.problem) =
  Hc4.compile ~vars:(Box.vars p.Encoder.domain) [ Form.negate_atom p.Encoder.psi ]

(* The interpreted per-box pipeline of one expansion: HC4 agenda, the
   mean-value stage, the atom statuses. *)
let contract_once compiled ~rounds box =
  match Hc4.contract_tape compiled box ~rounds with
  | Hc4.Infeasible -> ()
  | Hc4.Contracted b -> (
      match Hc4.mean_value_tape compiled b with
      | Hc4.Infeasible -> ()
      | Hc4.Contracted b -> ignore (Sys.opaque_identity (Hc4.statuses_on compiled b)))

let sweep_seconds ~seconds f =
  let sweeps = ref 0 and t0 = now () in
  while !sweeps = 0 || now () -. t0 < seconds do
    f ();
    incr sweeps
  done;
  (now () -. t0, !sweeps)

let solver_replays acc ~seconds ~config (p : Encoder.problem) boxes =
  let compiled = compile_problem p in
  let rounds = config.Verify.solver.Icp.contractor_rounds in
  let arr = Array.of_list (List.map fst boxes) in
  let n = Array.length arr in
  put acc "solver.replay_boxes" "count" (float_of_int n);
  let t, sweeps =
    Span.within "solver" "contract replay" (fun () ->
        sweep_seconds ~seconds (fun () -> Array.iter (contract_once compiled ~rounds) arr))
  in
  let contract_ns = t *. 1e9 /. float_of_int (max 1 (sweeps * n)) in
  put acc "solver.contract_ns_per_box" "ns" contract_ns;
  (* Icp.solve on a strided sample: same config the verifier hands it *)
  let negated = [ Form.negate_atom p.Encoder.psi ] in
  let scfg =
    {
      config.Verify.solver with
      Icp.tape = Some compiled;
      split_heuristic = `Widest;
      native = None;
    }
  in
  let stride = max 1 (n / 200) in
  let sample = List.filteri (fun i _ -> i mod stride = 0) boxes in
  let runs =
    Span.within "solver" "Icp.solve replay" (fun () ->
        List.map
          (fun (box, fuel) ->
            let t0 = now () in
            let _, stats =
              Icp.solve ~contractors:[ Hc4.mean_value_tape compiled ] scfg box negated
            in
            (now () -. t0, stats.Icp.expansions, fuel))
          sample)
  in
  let ms = List.map (fun (t, _, _) -> t *. 1e3) runs in
  let expansions = List.fold_left (fun a (_, e, _) -> a + e) 0 runs in
  let secs = List.fold_left (fun a (t, _, _) -> a +. t) 0. runs in
  put acc "solver.solve_replays" "count" (float_of_int (List.length runs));
  put acc "solver.solve_ms_p50" "ms" (median ms);
  put acc "solver.solve_ms_p99" "ms" (quantile 0.99 ms);
  put acc "solver.expansions_per_s" "1/s" (float_of_int expansions /. secs);
  put acc "solver.replay_fuel_match_frac" "1"
    (float_of_int (List.length (List.filter (fun (_, e, f) -> e = f) runs))
    /. float_of_int (max 1 (List.length runs)));
  contract_ns

(* ---- jit: cold plan, batched contraction, one native pbe-ec1 pass ---- *)

let jit_rows =
  [ "jit.plan_s"; "jit.contract_ns_per_box_b1"; "jit.contract_ns_per_box_b2";
    "jit.contract_ns_per_box_b16"; "jit.boxes_per_batch_p50";
    "jit.boxes_per_batch_p90"; "jit.boxes_per_batch_p99";
    "jit.boxes_per_batch_max"; "verify.pbe_ec1_native_s" ]

let jit_ladder acc ~seconds ~tmp ~config ~reference (p : Encoder.problem) boxes =
  let skip reason =
    acc.absent <- List.map (fun r -> (r, reason)) jit_rows @ acc.absent
  in
  if not (Jit.available ()) then skip "no C compiler (XCV_CC, cc, gcc)"
  else begin
    let dir = Filename.concat tmp "jit" in
    mkdir_p dir;
    let compiled = compile_problem p in
    let t0 = now () in
    let plan =
      Span.within "jit" "Jit.plan (cold)" (fun () ->
          Jit.plan ~cache_dir:dir ~mvf:config.Verify.use_taylor
            ~rounds:config.Verify.solver.Icp.contractor_rounds compiled)
    in
    let plan_s = now () -. t0 in
    (match plan with
    | Error e -> skip ("Jit.plan failed: " ^ e)
    | Ok plan ->
        put acc "jit.plan_s" "s" plan_s;
        let arr = Array.of_list (List.map fst boxes) in
        let n = Array.length arr in
        List.iter
          (fun w ->
            let batches =
              Array.init ((n + w - 1) / w) (fun b ->
                  Array.init w (fun i -> arr.(((b * w) + i) mod n)))
            in
            let t, sweeps =
              Span.within "jit" (Printf.sprintf "Jit.contract_batch b%d" w) (fun () ->
                  sweep_seconds ~seconds (fun () ->
                      Array.iter
                        (fun b -> ignore (Sys.opaque_identity (Jit.contract_batch plan b)))
                        batches))
            in
            put acc
              (Printf.sprintf "jit.contract_ns_per_box_b%d" w)
              "ns"
              (t *. 1e9 /. float_of_int (max 1 (sweeps * Array.length batches * w))))
          [ 1; 2; 16 ];
        let native =
          campaign_pass ~layer:"jit"
            ~config:{ config with Verify.jit = true; jit_cache = Some dir }
            [ p ]
        in
        List.iter (fun (k, o, _) -> gate acc (verdict_ok reference k o)) native.outcomes;
        put acc "verify.pbe_ec1_native_s" "s" (wall native);
        put_histogram acc native.snap "jit.boxes_per_batch" "count")
  end

(* Verdict_cache.put / find replayed on the outcomes the service produced,
   in a fresh cache directory. *)
let cache_replay acc ~dir sizes outcomes =
  let (puts, finds), _ =
    with_metrics (fun () ->
        let cache = Verdict_cache.open_dir dir in
        let keyed =
          List.map
            (fun ((dfa, cond, fuel, th), o) ->
              let cfg =
                verify_config ~workers:1
                  { sizes.service with fuel; threshold = th }
              in
              let problem =
                Option.get (Encoder.encode (Registry.find dfa) (Conditions.of_name cond))
              in
              (Verify.config_hash cfg, Verify.formula_hash [ problem ], o))
            outcomes
        in
        let timed f = let t0 = now () in f (); (now () -. t0) *. 1e3 in
        let puts =
          List.map
            (fun (config_hash, formula_hash, o) ->
              Span.within "service" "Verdict_cache.put" (fun () ->
                  timed (fun () -> Verdict_cache.put cache ~config_hash ~formula_hash o)))
            keyed
        in
        let finds =
          List.concat_map
            (fun (config_hash, formula_hash, o) ->
              List.init 20 (fun _ ->
                  Span.within "service" "Verdict_cache.find" (fun () ->
                      timed (fun () ->
                          ignore
                            (Verdict_cache.find cache ~config_hash ~formula_hash
                               ~box:o.Outcome.domain)))))
            keyed
        in
        (puts, finds))
  in
  put acc "cache.put_ms_p50" "ms" (median puts);
  put acc "cache.find_ms_p50" "ms" (median finds)

(* ---- the procedure -------------------------------------------------- *)

type refs = { ref_table1 : reference; ref_pbe_ec1 : reference; ref_service : reference }

(* Traced wall over the mean of the untraced passes run just before and
   just after it, so a drift in machine speed does not read as overhead. *)
let overhead wall ~before ~traced ~after =
  wall traced /. ((wall before +. wall after) /. 2.)

let gate_pass acc reference (p : pass) =
  List.iter (fun (k, o, _) -> gate acc (verdict_ok reference k o)) p.outcomes;
  gate acc (deterministic_of p.snap = reference.r_deterministic)

let gate_service acc reference (sp : service_pass) =
  List.iter
    (fun q ->
      gate acc
        (match q.q_outcome with
        | Some o -> verdict_ok reference q.q_key o
        | None -> false))
    sp.queries;
  gate acc (deterministic_of sp.s_snap = reference.r_deterministic)

let run acc ~sizes ~seed ~seconds ~tmp refs =
  (* set-up layers, cold: nothing is hash-consed yet *)
  let t0 = now () in
  let problems = table1_problems () in
  put acc "encoder.encode_s" "s" (now () -. t0);
  let t0 = now () in
  Span.within "solver" "Hc4.compile (29 pairs)" (fun () ->
      List.iter (fun p -> ignore (Sys.opaque_identity (compile_problem p))) problems);
  put acc "solver.tape_compile_s" "s" (now () -. t0);
  interval_ops acc ~seed ~seconds;
  (* table1 *)
  let order = permute ~seed problems in
  let config = verify_config ~workers:cores sizes.table1 in
  let plain () = Span.without (fun () -> campaign_pass ~config order) in
  let before = plain () in
  let traced =
    Span.within "bench" "workload table1" (fun () ->
        campaign_pass ~record:true ~config order)
  in
  let after = plain () in
  List.iter (gate_pass acc refs.ref_table1) [ before; traced; after ];
  put acc "trace.overhead.table1" "ratio" (overhead wall ~before ~traced ~after);
  List.iter
    (fun (k, _, s) -> put acc ("verify.pair_s." ^ k) "s" s)
    traced.outcomes;
  let s = traced.snap in
  List.iter
    (fun c -> put acc c "count" (float_of_int (counter s c)))
    [ "icp.expansions"; "icp.prunes"; "icp.solves"; "verify.solver_calls";
      "verify.subthreshold"; "worklist.tasks"; "worklist.steals" ];
  put acc "worklist.depth_max" "count"
    (float_of_int (lookup s.Obs.Metrics.gauges "worklist.depth"));
  let ratio = histogram s "icp.contraction_ratio" in
  let total = List.fold_left (fun a (_, c) -> a + c) 0 ratio in
  put acc "solver.contractions" "count" (float_of_int total);
  put acc "solver.contract_useful_frac" "1"
    (1. -. (float_of_int (lookup ratio 0) /. float_of_int (max 1 total)));
  put_histogram acc s "icp.contraction_ratio" "1/1024";
  put_histogram acc s "icp.expansions_per_solve" "count";
  put_histogram acc s "verify.box_depth" "count";
  put_gc acc "table1" traced.gc (counter s "icp.expansions");
  (* pbe-ec1: -j1 plain, -j1 traced (phases, boxes), -jN, native *)
  let p = pbe_ec1_problem () in
  let config = verify_config ~workers:1 sizes.pbe_ec1 in
  let j1 () = Span.without (fun () -> campaign_pass ~config [ p ]) in
  let before = j1 () in
  let traced =
    Span.within "bench" "workload pbe-ec1" (fun () ->
        campaign_pass ~record:true ~config [ p ])
  in
  let after = j1 () in
  let jn =
    Span.within "bench" "pbe-ec1 at -jN" (fun () ->
        campaign_pass ~config:{ config with Verify.workers = cores } [ p ])
  in
  List.iter (gate_pass acc refs.ref_pbe_ec1) [ before; traced; after; jn ];
  put acc "trace.overhead.pbe-ec1" "ratio" (overhead wall ~before ~traced ~after);
  let wall_j1 = (wall before +. wall after) /. 2. in
  put acc "parallel.workers" "count" (float_of_int cores);
  put acc "parallel.recommended_domains" "count"
    (float_of_int (Domain.recommended_domain_count ()));
  put acc "parallel.pbe_ec1_wall_s_j1" "s" wall_j1;
  put acc "parallel.pbe_ec1_cpu_s_j1" "s" ((cpu_s before +. cpu_s after) /. 2.);
  put acc "parallel.pbe_ec1_wall_s_jN" "s" (wall jn);
  put acc "parallel.pbe_ec1_cpu_s_jN" "s" (cpu_s jn);
  put acc "parallel.efficiency" "1" (wall_j1 /. (float_of_int cores *. wall jn));
  let s = traced.snap in
  List.iter
    (fun ph ->
      put acc ("phase." ^ ph ^ "_s") "s"
        (float_of_int (lookup s.Obs.Metrics.timers ("phase." ^ ph)) *. 1e-9))
    [ "encode"; "contract"; "solve"; "split"; "paint" ];
  let kernel = counter s "transcend.exp.kernel" + counter s "transcend.log.kernel" in
  let calls =
    kernel + counter s "transcend.exp.fallback" + counter s "transcend.log.fallback"
  in
  put acc "interval.transcend_calls" "count" (float_of_int calls);
  put acc "interval.transcend_kernel_frac" "1"
    (float_of_int kernel /. float_of_int (max 1 calls));
  put_gc acc "pbe-ec1" traced.gc (counter s "icp.expansions");
  let boxes = solver_call_boxes (snd (List.hd traced.events)) in
  let contract_ns = solver_replays acc ~seconds ~config p boxes in
  (* the replay accounts for the pair's contraction time when
     ns/box x expansions lands near the verifier's own contract phase *)
  let phase_contract = float_of_int (lookup s.Obs.Metrics.timers "phase.contract") in
  let expansions = counter s "icp.expansions" in
  put acc "solver.pbe_ec1_expansions" "count" (float_of_int expansions);
  put acc "solver.contract_replay_ratio" "ratio"
    (contract_ns *. float_of_int expansions /. Float.max 1. phase_contract);
  jit_ladder acc ~seconds ~tmp ~config ~reference:refs.ref_pbe_ec1 p boxes;
  (* service-mix *)
  let seq = query_sequence ~seed sizes in
  let dir tag = Filename.concat tmp ("service-" ^ tag) in
  let plain tag = Span.without (fun () -> service_pass ~dir:(dir tag) sizes seq) in
  let before = plain "before" in
  let traced =
    Span.within "bench" "workload service-mix" (fun () ->
        service_pass ~dir:(dir "traced") sizes seq)
  in
  let after = plain "after" in
  List.iter (gate_service acc refs.ref_service) [ before; traced; after ];
  put acc "trace.overhead.service-mix" "ratio"
    (overhead (fun p -> p.s_wall) ~before ~traced ~after);
  let hits = List.filter (fun q -> q.q_cached) traced.queries in
  let misses = List.filter (fun q -> not q.q_cached) traced.queries in
  let ms qs = List.map (fun q -> q.q_ms) qs in
  put acc "service.queries" "count" (float_of_int (List.length traced.queries));
  put acc "service.cache_hit_frac" "1"
    (float_of_int (List.length hits) /. float_of_int (max 1 (List.length traced.queries)));
  put acc "service.hit_ms_p50" "ms" (median (ms hits));
  put acc "service.miss_ms_p50" "ms" (median (ms misses));
  put acc "service.miss_ms_p99" "ms" (quantile 0.99 (ms misses));
  put_gc acc "service-mix" traced.s_gc (counter traced.s_snap "icp.expansions");
  cache_replay acc ~dir:(dir "cache") sizes (service_outcomes sizes traced);
  (* runtime facts the numbers above depend on *)
  put acc "gc.quick_stat_all_domains" "bool"
    (if gc_covers_all_domains () then 1. else 0.);
  List.iter
    (fun l ->
      put acc ("trace.self_s." ^ l) "s"
        (Option.value ~default:0. (List.assoc_opt l (Span.self_seconds_by_layer ()))))
    [ "bench"; "encoder"; "verify"; "solver"; "interval"; "jit"; "service" ]
