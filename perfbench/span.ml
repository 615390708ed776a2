(* In-memory span recorder for the traced pass.

   A span covers one call from the benchmark into a layer of the verifier:
   its name, the layer (module) it calls, start and end on the monotonic
   clock, and the span that caused it. Spans are recorded on the calling
   domain only (the benchmark never calls the verifier from two domains at
   once), kept in memory, and written out once at exit as Chrome
   trace-event JSON, which Perfetto and chrome://tracing open directly.
   When tracing is off [within] is a single branch around the call. *)

type t = {
  id : int;
  name : string;
  layer : string;
  parent : int;  (** -1 for a root span *)
  t0 : int;  (** ns, monotonic *)
  mutable t1 : int;
}

let enabled = ref false
let stack : t list ref = ref []
let finished : t list ref = ref []
let next_id = ref 0

let within layer name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p.id | [] -> -1 in
    let s = { id; name; layer; parent; t0 = Obs.Clock.now_ns (); t1 = 0 } in
    stack := s :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- Obs.Clock.now_ns ();
        stack := List.tl !stack;
        finished := s :: !finished)
      f
  end

(* Run [f] with span recording off (the untraced reference passes of a
   traced run). *)
let without f =
  let was = !enabled in
  enabled := false;
  Fun.protect ~finally:(fun () -> enabled := was) f

let spans () = List.rev !finished

(* Self time of a span: its duration minus the part its children cover
   (children nest strictly, so their durations simply add). Summed per
   layer, in seconds. *)
let self_seconds_by_layer () =
  let all = spans () in
  let child_ns = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ns s.parent
          ((s.t1 - s.t0)
          + Option.value ~default:0 (Hashtbl.find_opt child_ns s.parent)))
    all;
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        s.t1 - s.t0 - Option.value ~default:0 (Hashtbl.find_opt child_ns s.id)
      in
      Hashtbl.replace by_layer s.layer
        (self + Option.value ~default:0 (Hashtbl.find_opt by_layer s.layer)))
    all;
  Hashtbl.fold (fun l ns acc -> (l, float_of_int ns *. 1e-9) :: acc) by_layer []
  |> List.sort compare

(* Chrome trace-event format: one complete ("X") event per span, times in
   microseconds from the first span. *)
let to_chrome_json () =
  let all = spans () in
  let origin = List.fold_left (fun m s -> min m s.t0) max_int all in
  let open Serialize.Json in
  let ev s =
    Obj
      [
        ("name", Str s.name);
        ("cat", Str s.layer);
        ("ph", Str "X");
        ("ts", Num (float_of_int (s.t0 - origin) /. 1e3));
        ("dur", Num (float_of_int (s.t1 - s.t0) /. 1e3));
        ("pid", Num 1.);
        ("tid", Num 1.);
        ("args", Obj [ ("id", Num (float_of_int s.id));
                       ("parent", Num (float_of_int s.parent)) ]);
      ]
  in
  to_string
    (Obj [ ("displayTimeUnit", Str "ms"); ("traceEvents", Arr (List.map ev all)) ])
