(* Fixed-work benchmark of XCVerifier.

     main.exe --workload table1|pbe-ec1|service-mix --seed N --seconds S
              --trace 0|1 --out DIR --reference-dir DIR
              [--smoke] [--write-reference | --setup-probe]

   Untraced (--trace 0): repeats the workload's fixed unit of work while
   another repeat fits in S seconds (at least once), checks every repeat
   against the committed reference, and prints the end-to-end metrics,
   scaled by the host's speed sampled during each repeat (Speed).
   Traced (--trace 1): runs the layer ladder (Ladder) over all three
   workloads, whatever --workload names (it only names the output files),
   and prints every per-layer metric. Either way the last stdout line is
   one JSON object {correct, attempted, failed, metrics}; a detailed report
   (sample counts, per-repeat values, absent rows with reasons) goes to
   DIR. *)

open Util
open Workload

let workloads = [ "table1"; "pbe-ec1"; "service-mix" ]

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  out : string;
  reference_dir : string;
  smoke : bool;
  write_reference : bool;
  setup_probe : bool;
}

let parse_args () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let out = ref "perfbench-out" and reference_dir = ref "perfbench/reference" in
  let smoke = ref false and write_reference = ref false and setup_probe = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " table1 | pbe-ec1 | service-mix");
      ("--seed", Arg.Set_int seed, " input seed (pair order, query sequence)");
      ("--seconds", Arg.Set_float seconds, " measuring time of an untraced run");
      ("--trace", Arg.Set_int trace, " 1: run the traced layer ladder");
      ("--out", Arg.Set_string out, " directory for reports, spans and scratch");
      ("--reference-dir", Arg.Set_string reference_dir, " committed references");
      ("--smoke", Arg.Set smoke, " seconds-sized budgets (the benchmark's test)");
      ("--write-reference", Arg.Set write_reference, " write the reference, then exit");
      ("--setup-probe", Arg.Set setup_probe, " measure one cold set-up, then exit");
    ]
  in
  Arg.parse (Arg.align spec)
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown --workload " ^ !workload);
    exit 2
  end;
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace = 1;
    out = !out;
    reference_dir = !reference_dir;
    smoke = !smoke;
    write_reference = !write_reference;
    setup_probe = !setup_probe;
  }

let reference_path a w =
  Filename.concat a.reference_dir (w ^ if a.smoke then ".smoke.json" else ".json")

let tmp_dir a = Filename.concat a.out "tmp"

(* A process's scratch directory. A run removes its own and its set-up
   probes' when it is done: nothing is deleted while anything is timed (a
   deletion puts file-system work into the next fsync). *)
let scratch_of a pid = Filename.concat (tmp_dir a) (string_of_int pid)
let scratch a = scratch_of a (Unix.getpid ())
let probe_pids = ref []
let service_dir a tag = Filename.concat (scratch a) ("service-" ^ tag)

let budget_of sizes = function
  | "table1" -> budget_json sizes.table1
  | "pbe-ec1" -> budget_json sizes.pbe_ec1
  | _ ->
      J.Obj
        [
          ("base", budget_json sizes.service);
          ("queries", int sizes.service_queries);
          ("keys", J.Arr (List.map (fun k -> J.Str (key_name k)) sizes.service_keys));
        ]

(* [canonical]: this process's first encode, Workload.table1_problems. *)
let campaign_problems sizes canonical = function
  | "table1" -> (canonical, verify_config ~workers:cores sizes.table1)
  | _ -> ([ pbe_ec1_problem () ], verify_config ~workers:1 sizes.pbe_ec1)

(* ---- set-up --------------------------------------------------------- *)

(* One cold set-up in this (fresh) process: the canonical encode of every
   pair, then up to the first solver call for the campaign workloads (the
   first pair's tape compile) or through Engine.create for the service. *)
let setup_probe a sizes =
  let t0 = now () in
  let canonical = table1_problems () in
  match a.workload with
  | "service-mix" ->
      let engine = Engine.create (service_config ~dir:(service_dir a "probe") sizes) in
      ignore (Engine.new_client engine);
      now () -. t0
  | w ->
      let problems, config = campaign_problems sizes canonical w in
      let first = List.hd (permute ~seed:a.seed problems) in
      let mark = new_mark () in
      ignore (Verify.run ~config ~stop:(mark_stop ~then_stop:true mark) first);
      mark.at -. t0

(* Set-up is measured in fresh processes (a second set-up in the same
   process finds every expression already hash-consed). *)
let setup_seconds a ~probes =
  List.init probes (fun _ ->
      let r, w = Unix.pipe ~cloexec:true () in
      let argv =
        [| Sys.executable_name; "--setup-probe"; "--workload"; a.workload;
           "--seed"; string_of_int a.seed; "--out"; a.out;
           "--reference-dir"; a.reference_dir |]
      in
      let argv = if a.smoke then Array.append argv [| "--smoke" |] else argv in
      let pid = Unix.create_process Sys.executable_name argv Unix.stdin w Unix.stderr in
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      probe_pids := pid :: !probe_pids;
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> Scanf.sscanf line " %f %f" (fun raw f -> (raw, f))
      | _ -> failwith "set-up probe failed")

(* ---- untraced runs -------------------------------------------------- *)

(* Repeat [f] while another repeat (at the median repeat time so far) still
   fits in [seconds]; at least once. [between] runs before the first repeat,
   between repeats and after the last, outside the repeats' timing. *)
let repeat ~seconds ~between f =
  let t0 = now () in
  let rec go acc durs =
    between ();
    let s = now () in
    let r = f () in
    let durs = (now () -. s) :: durs in
    if now () -. t0 +. median durs <= seconds then go (r :: acc) durs
    else begin
      between ();
      List.rev (r :: acc)
    end
  in
  go [] []

(* What an untraced run keeps of one repeat: each repeat is checked and
   summarised as soon as it ends, so no repeat's outcomes stay alive into
   the next one (peak RSS must not grow with the repeat count). *)
type repeat_summary = {
  rep_wall : float;  (** host-speed ticks left out, not scaled *)
  rep_cpu : float;
  rep_wall_scaled : float;  (** scaled by the host's speed (Speed) *)
  rep_cpu_scaled : float;
  rep_latencies_ms : float list;  (** scaled *)
  rep_latencies_raw_ms : float list;
  rep_factor : float;
  rep_io_factor : float;  (** [nan] on the campaign workloads *)
  rep_slices : int;
  rep_deterministic : J.t;
  rep_ops : int;
  rep_failed_keys : string list;  (** verdicts differing from the reference *)
  rep_detail : J.t;
}

(* A campaign repeat runs on the CPU throughout: every figure is scaled by
   the CPU factor. *)
let summarise_campaign reference speed (p : pass) =
  let slice_wall, slice_cpu = Speed.spent ~since:p.first_call speed in
  let f = Speed.factor speed in
  let rep_wall = wall p -. slice_wall and rep_cpu = cpu_s p -. slice_cpu in
  {
    rep_wall;
    rep_cpu;
    rep_wall_scaled = rep_wall *. f;
    rep_cpu_scaled = rep_cpu *. f;
    rep_latencies_ms = List.map (fun (_, _, s) -> s *. 1e3 *. f) p.outcomes;
    rep_latencies_raw_ms = List.map (fun (_, _, s) -> s *. 1e3) p.outcomes;
    rep_factor = f;
    rep_io_factor = Float.nan;
    rep_slices = Speed.count speed;
    rep_deterministic = deterministic_of p.snap;
    rep_ops = List.length p.outcomes;
    rep_failed_keys =
      List.filter_map
        (fun (k, o, _) -> if verdict_ok reference k o then None else Some k)
        p.outcomes;
    rep_detail = J.Null;
  }

(* A service repeat (one thread) also waits on its fsyncs: time on the CPU
   is scaled by the CPU factor, the rest of the wall time by the I/O
   factor. *)
let summarise_service reference speed (p : service_pass) =
  let slice_wall, slice_cpu = Speed.spent speed in
  let f = Speed.factor speed and fio = Speed.io_factor speed in
  let scale ~wall ~cpu = (cpu *. f) +. (Float.max 0. (wall -. cpu) *. fio) in
  let rep_wall = p.s_wall -. slice_wall and rep_cpu = p.s_cpu -. slice_cpu in
  {
    rep_wall;
    rep_cpu;
    rep_wall_scaled = scale ~wall:rep_wall ~cpu:rep_cpu;
    rep_cpu_scaled = rep_cpu *. f;
    rep_latencies_ms = List.map (fun q -> scale ~wall:q.q_ms ~cpu:q.q_cpu_ms) p.queries;
    rep_latencies_raw_ms = List.map (fun q -> q.q_ms) p.queries;
    rep_factor = f;
    rep_io_factor = fio;
    rep_slices = Speed.count speed;
    rep_deterministic = deterministic_of p.s_snap;
    rep_ops = List.length p.queries;
    rep_failed_keys =
      List.filter_map
        (fun q ->
          match q.q_outcome with
          | Some o when verdict_ok reference q.q_key o -> None
          | _ -> Some q.q_key)
        p.queries;
    rep_detail =
      J.Obj
        [ ("create_s", num p.create_s);
          ("cache_hits", int (List.length (List.filter (fun q -> q.q_cached) p.queries))) ];
  }

(* attempted, failed, and whether the repeats agree with each other *)
let gate_repeats reference reps =
  let consistent =
    match reps with
    | r :: rest -> List.for_all (fun r' -> r'.rep_deterministic = r.rep_deterministic) rest
    | [] -> true
  in
  if not consistent then
    prerr_endline "perfbench: deterministic counters differ between repeats: run invalid";
  let failed =
    List.fold_left
      (fun acc r ->
        if r.rep_deterministic <> reference.r_deterministic then begin
          prerr_endline
            ("perfbench: deterministic counters differ from the reference: "
            ^ String.concat ", " (deterministic_diff r.rep_deterministic reference.r_deterministic));
          acc + r.rep_ops
        end
        else begin
          List.iter
            (fun k -> Printf.eprintf "perfbench: %s: verdict differs from the reference\n%!" k)
            r.rep_failed_keys;
          acc + List.length r.rep_failed_keys
        end)
      0 reps
  in
  (List.fold_left (fun acc r -> acc + r.rep_ops) 0 reps, failed, consistent)

(* The set-up probes are spread over the whole run, a few between each two
   repeats: a shared host alternates, for seconds at a time, between two
   speeds at which this ~9 ms set-up differs by about two thirds, and
   probes taken in one burst all meet the same one. Each probe is scaled
   by the host's speed sampled right after it, and the median is
   reported.

   Each repeat samples the host's speed as it runs (Speed), with as many
   domains as the workload runs, and its wall, CPU and latency figures are
   scaled by the repeat's factors. *)
let untraced a sizes reference canonical =
  let setup = ref [] in
  let between () = setup := setup_seconds a ~probes:(if a.smoke then 1 else 3) @ !setup in
  let repeat = repeat ~between in
  let reps, details =
    match a.workload with
    | "service-mix" ->
        let seq = query_sequence ~seed:a.seed sizes in
        let passes = ref 0 in
        ( repeat ~seconds:a.seconds (fun () ->
              incr passes;
              let dir = service_dir a (string_of_int !passes) in
              let speed = Speed.create ~io_path:(dir ^ ".probe") ~domains:1 () in
              summarise_service reference speed (service_pass ~speed ~dir sizes seq)),
          [] )
    | w ->
        let problems, config = campaign_problems sizes canonical w in
        let order = permute ~seed:a.seed problems in
        ( repeat ~seconds:a.seconds (fun () ->
              let speed = Speed.create ~domains:config.Verify.workers () in
              summarise_campaign reference speed (campaign_pass ~speed ~config order)),
          [ ("workers", int config.Verify.workers);
            ("recommended_domains", int (Domain.recommended_domain_count ())) ] )
  in
  let attempted, failed, consistent = gate_repeats reference reps in
  let walls = List.map (fun r -> r.rep_wall) reps in
  let cpus = List.map (fun r -> r.rep_cpu) reps in
  let factors = List.map (fun r -> r.rep_factor) reps in
  let latencies_ms = List.concat_map (fun r -> r.rep_latencies_ms) reps in
  let raw_latencies_ms = List.concat_map (fun r -> r.rep_latencies_raw_ms) reps in
  let metrics =
    [
      ("setup_s", median (List.map (fun (raw, f) -> raw *. f) !setup), "s");
      ("wall_s", median (List.map (fun r -> r.rep_wall_scaled) reps), "s");
      ("cpu_s", median (List.map (fun r -> r.rep_cpu_scaled) reps), "s");
      ("peak_rss_mb", peak_rss_mb (), "MiB");
      ("query_p50_ms", median latencies_ms, "ms");
      ("query_p99_ms", quantile 0.99 latencies_ms, "ms");
    ]
  in
  let setup = List.rev !setup in
  let report =
    [ ("repeats", int (List.length reps)); ("setup_probes", int (List.length setup));
      ("query_samples", int (List.length latencies_ms));
      ("unscaled_walls_s", J.Arr (List.map num walls));
      ("unscaled_cpus_s", J.Arr (List.map num cpus));
      ("unscaled_wall_s", num (median walls)); ("unscaled_cpu_s", num (median cpus));
      ("unscaled_query_p50_ms", num (median raw_latencies_ms));
      ("unscaled_query_p99_ms", num (quantile 0.99 raw_latencies_ms));
      ("speed_factors", J.Arr (List.map num factors));
      ( "io_factors",
        J.Arr
          (List.map
             (fun r -> if Float.is_nan r.rep_io_factor then J.Null else num r.rep_io_factor)
             reps) );
      ("speed_slices", J.Arr (List.map (fun r -> int r.rep_slices) reps));
      ("setup_s", J.Arr (List.map (fun (raw, _) -> num raw) setup));
      ("setup_factors", J.Arr (List.map (fun (_, f) -> num f) setup));
      ("repeat_details", J.Arr (List.map (fun r -> r.rep_detail) reps)) ]
    @ details
  in
  (attempted, failed, consistent, metrics, report, [])

(* ---- traced runs ---------------------------------------------------- *)

let traced a sizes =
  let load w = load_reference (reference_path a w) in
  let refs =
    { Ladder.ref_table1 = load "table1"; ref_pbe_ec1 = load "pbe-ec1"; ref_service = load "service-mix" }
  in
  let acc = { Ladder.metrics = []; absent = []; attempted = 0; failed = 0 } in
  Span.enabled := true;
  Span.within "bench" "layer ladder" (fun () ->
      Ladder.run acc ~sizes ~seed:a.seed
        ~seconds:(if a.smoke then 0.02 else 0.25)
        ~tmp:(scratch a) refs);
  Span.enabled := false;
  let spans = Filename.concat a.out (Printf.sprintf "%s-seed%d-spans.json" a.workload a.seed) in
  write_file spans (Span.to_chrome_json ());
  Printf.eprintf "perfbench: spans written to %s\n%!" spans;
  ( acc.attempted,
    acc.failed,
    true,
    List.rev acc.metrics,
    [ ("spans", J.Str spans) ],
    List.rev acc.absent )

(* ---- references ----------------------------------------------------- *)

let write_reference a sizes canonical =
  let path = reference_path a a.workload in
  let verdict o = (symbol o, paint_digest o) in
  let verdicts, deterministic, table =
    match a.workload with
    | "service-mix" ->
        let pass =
          service_pass ~dir:(service_dir a "ref") sizes (query_sequence ~seed:a.seed sizes)
        in
        let outs = service_outcomes sizes pass in
        if List.length outs <> List.length sizes.service_keys then
          failwith "a service query failed";
        ( List.map (fun (k, o) -> (key_name k, verdict o)) outs,
          pass.s_snap,
          [] )
    | w ->
        let problems, config = campaign_problems sizes canonical w in
        let pass = campaign_pass ~config problems in
        let outcomes = List.map (fun (_, o, _) -> o) pass.outcomes in
        ( List.map (fun (k, o, _) -> (k, verdict o)) pass.outcomes,
          pass.snap,
          String.split_on_char '\n' (Report.table1 outcomes) )
  in
  write_file path
    (pretty
       (reference_json ~workload:a.workload ~budget:(budget_of sizes a.workload)
          ~verdicts ~deterministic:(deterministic_of deterministic) ~table));
  Printf.eprintf "perfbench: wrote %s\n%!" path

(* ---- main ----------------------------------------------------------- *)

let () =
  let a = parse_args () in
  let sizes = if a.smoke then Workload.smoke else Workload.full in
  mkdir_p (scratch a);
  if not a.setup_probe then
    at_exit (fun () ->
        List.iter (fun pid -> rm_rf (scratch_of a pid)) (Unix.getpid () :: !probe_pids);
        fsync_dir (tmp_dir a));
  if a.setup_probe then begin
    (* the set-up, then the host's speed right after it (Speed) *)
    let raw = setup_probe a sizes in
    let speed = Speed.create ~domains:1 () in
    for _ = 1 to 5 do Speed.sample speed done;
    Printf.printf "%.9f %.9f\n" raw (Speed.factor speed)
  end
  else if a.write_reference then write_reference a sizes (table1_problems ())
  else begin
    let reference = load_reference (reference_path a a.workload) in
    let budget_ok =
      List.for_all
        (fun w -> (load_reference (reference_path a w)).r_budget = budget_of sizes w)
        (if a.trace then workloads else [ a.workload ])
    in
    if not budget_ok then
      prerr_endline "perfbench: a reference was written for another budget";
    let attempted, failed, consistent, metrics, report, absent =
      (* the ladder's own first step is the canonical encode, timed cold *)
      if a.trace then traced a sizes
      else untraced a sizes reference (table1_problems ())
    in
    let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
    if not finite then prerr_endline "perfbench: a metric is not finite";
    let correct = budget_ok && consistent && finite && failed = 0 in
    let metric_json =
      List.filter_map
        (fun (name, v, unit) ->
          if Float.is_finite v then
            Some (name, J.Obj [ ("value", num v); ("unit", J.Str unit) ])
          else None)
        metrics
    in
    let report_path =
      Filename.concat a.out
        (Printf.sprintf "%s-seed%d-trace%d.json" a.workload a.seed (Bool.to_int a.trace))
    in
    write_file report_path
      (pretty
         (J.Obj
            ([ ("workload", J.Str a.workload); ("seed", int a.seed);
               ("smoke", J.Bool a.smoke); ("correct", J.Bool correct);
               ("attempted", int attempted); ("failed", int failed);
               ("fail_frac", num (float_of_int failed /. float_of_int (max 1 attempted)));
               ("metrics", J.Obj metric_json);
               ( "absent",
                 J.Obj (List.map (fun (n, why) -> (n, J.Str why)) absent) ) ]
            @ report)));
    List.iter
      (fun (n, why) -> Printf.eprintf "perfbench: %s absent: %s\n" n why)
      absent;
    Printf.eprintf "perfbench: report written to %s\n%!" report_path;
    print_endline
      (J.to_string
         (J.Obj
            [ ("correct", J.Bool correct); ("attempted", int attempted);
              ("failed", int failed); ("metrics", J.Obj metric_json) ]));
    if a.smoke && not correct then exit 1
  end
