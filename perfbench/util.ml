(* Clocks, order statistics, files and JSON helpers of the benchmark. *)

(* seconds on the monotonic clock, nanosecond resolution *)
let now () = float_of_int (Obs.Clock.now_ns ()) *. 1e-9

(* user + sys CPU seconds of the whole process: every domain's time *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Linear-interpolation quantile (numpy's default); [nan] on no samples. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let f = pos -. float_of_int i in
    if i + 1 < n then a.(i) +. (f *. (a.(i + 1) -. a.(i))) else a.(i)

let median xs = quantile 0.5 xs

(* Peak resident set of this process (VmHWM), in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> go ()
        | exception End_of_file -> Float.nan
      in
      go ())

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

(* Commit the file system's pending metadata (and, on a disk mounted with
   online discard, the discards of deleted files) now, outside any timed
   section. *)
let fsync_dir dir =
  let fd = Unix.openfile dir [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* Seeded Fisher-Yates shuffle. *)
let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

module J = Serialize.Json

let num f = J.Num f
let int n = J.Num (float_of_int n)

(* Indented JSON for the committed reference and report files, so that a
   changed digest shows as a one-line diff. *)
let pretty json =
  let buf = Buffer.create 4096 in
  let rec go ind = function
    | J.Obj [] -> Buffer.add_string buf "{}"
    | J.Arr [] -> Buffer.add_string buf "[]"
    | J.Obj kvs ->
        Buffer.add_string buf "{\n";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_string buf ",\n";
            Buffer.add_string buf (String.make (ind + 2) ' ');
            Buffer.add_string buf (J.to_string (J.Str k));
            Buffer.add_string buf ": ";
            go (ind + 2) v)
          kvs;
        Buffer.add_string buf ("\n" ^ String.make ind ' ' ^ "}")
    | J.Arr vs ->
        Buffer.add_string buf "[\n";
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_string buf ",\n";
            Buffer.add_string buf (String.make (ind + 2) ' ');
            go (ind + 2) v)
          vs;
        Buffer.add_string buf ("\n" ^ String.make ind ' ' ^ "]")
    | leaf -> Buffer.add_string buf (J.to_string leaf)
  in
  go 0 json;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let member k = function
  | J.Obj kvs -> List.assoc_opt k kvs
  | _ -> None

let str_member k j =
  match member k j with Some (J.Str s) -> s | _ -> failwith ("missing " ^ k)

(* Quantile of an Obs log2 histogram, reported as the upper edge of the
   bucket holding it: bucket 0 holds values <= 0, bucket b >= 1 holds
   2^(b-1) .. 2^b - 1. [None] when the histogram is empty. *)
let hist_quantile q (buckets : (int * int) list) =
  let total = List.fold_left (fun a (_, c) -> a + c) 0 buckets in
  if total = 0 then None
  else
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int total))) in
    let rec go acc = function
      | [] -> None
      | (b, c) :: rest ->
          if acc + c >= rank then
            Some (if b = 0 then 0. else float_of_int ((1 lsl b) - 1))
          else go (acc + c) rest
    in
    go 0 (List.sort compare buckets)
