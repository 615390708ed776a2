(* The host's speed while a repeat runs, sampled by a fixed piece of work
   that lives in the benchmark, not in the verifier.

   A shared host flips, every second or so, between speeds that differ by
   about 1.4x, and the share of time it spends at each drifts over
   minutes, so medians of runs made minutes apart spread by up to that
   much. A repeat therefore runs a ~1 ms slice of this work every
   [every] seconds at points where no verifier work is in flight (between
   service queries, between campaign pairs, and on a single worker at the
   verifier's per-box stop poll), takes the slices' time out of its own,
   and scales its times by [reference_s] / (the median slice). The
   verifier never runs this code, so a change to the verifier moves the
   scaled times as it moves the raw ones; only the host's speed is
   divided out. See README.md, "Host-speed scaling". *)

(* Interval-style work like the verifier's inner loops: float pairs with
   outward rounding, an exp and a log, and seeded reads and writes over an
   8 KiB table. It allocates nothing, so it never moves the verifier's
   minor-heap collections. *)
let table_len = 1024

let work table steps =
  let lo = ref 0.5 and hi = ref 0.75 and seed = ref 1 in
  for _ = 1 to steps do
    seed := ((!seed * 1103515245) + 12345) land 0x3fffffff;
    let j = !seed land (table_len - 1) in
    let v = Array.unsafe_get table j in
    let l = Float.pred ((!lo *. v) +. Float.exp (-. !hi))
    and h = Float.succ ((!hi *. v) +. Float.log (1. +. !lo)) in
    lo := l *. 0.5;
    hi := h *. 0.5;
    Array.unsafe_set table j (1. +. (0.5 *. (!hi -. !lo)))
  done;
  ignore (Sys.opaque_identity (!lo +. !hi))

let slice_steps = 33_000
let every = 0.025

(* A slice on a 2-vCPU cloud VM at the faster of its two speeds, one
   domain (about 1 ms): scaled times read as seconds on that host at that
   speed. A constant of the benchmark, the same on every commit compared. *)
let reference_s = 0.001

(* A journal-style append to a file of the benchmark's own: open with
   O_APPEND, one small write, fsync, close (Serialize.append_line ~fsync,
   as the service does twice per query), on the service's file system. *)
let io_probe path =
  let t0 = Util.now () in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644 in
  ignore (Unix.write_substring fd "(probe (seq 0))\n" 0 16);
  Unix.fsync fd;
  Unix.close fd;
  Util.now () -. t0

(* A typical probe on the same VM's disk (about 0.16 ms). *)
let reference_io_s = 0.00016

type slice = {
  at : float;
  wall : float;  (** the whole tick *)
  cpu : float;
  work_s : float;  (** the slice of [work] alone *)
  io_s : float;  (** the I/O probe; [nan] without one *)
}

type t = {
  tables : float array list;
      (** one per copy run at once: the workload's own parallelism *)
  io_path : string option;
  mutable last : float;
  mutable slices : slice list;
}

let create ?io_path ~domains () =
  {
    tables = List.init domains (fun _ -> Array.make table_len 1.0);
    io_path;
    last = neg_infinity;
    slices = [];
  }

(* Run a slice (and the I/O probe). *)
let sample t =
  let s = Util.now () in
  begin
    let c = Util.cpu () in
    let others =
      List.map (fun tb -> Domain.spawn (fun () -> work tb slice_steps)) (List.tl t.tables)
    in
    work (List.hd t.tables) slice_steps;
    List.iter Domain.join others;
    let work_s = Util.now () -. s in
    let io_s = match t.io_path with Some p -> io_probe p | None -> Float.nan in
    let e = Util.now () in
    t.slices <- { at = s; wall = e -. s; cpu = Util.cpu () -. c; work_s; io_s } :: t.slices;
    t.last <- e
  end

(* [sample] if [every] seconds have passed since the last one ended. *)
let tick t = if Util.now () -. t.last >= every then sample t

(* Wall and CPU seconds of the ticks started at or after [since]. *)
let spent ?(since = neg_infinity) t =
  List.fold_left
    (fun (w, c) s -> if s.at >= since then (w +. s.wall, c +. s.cpu) else (w, c))
    (0., 0.) t.slices

let count t = List.length t.slices
let factor t = reference_s /. Util.median (List.map (fun s -> s.work_s) t.slices)

(* For time spent off the CPU (waiting on the disk): [nan] without
   probes. *)
let io_factor t = reference_io_s /. Util.median (List.map (fun s -> s.io_s) t.slices)
