(* Result record of one benchmark run: the metrics by name and unit, the
   operation counts, and the host that produced them.  The last line of
   standard output is the machine-readable summary; the full record,
   host included, also lands under perfbench/results/. *)

type metric = { name : string; unit_ : string; value : float }

type t = {
  workload : string;
  seed : int;
  trace : bool;
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** correctness failures, newest first *)
  mutable metrics : metric list;  (** newest first *)
  mutable notes : (string * string) list;  (** printed, not gated *)
}

let create ~workload ~seed ~trace =
  { workload; seed; trace; attempted = 0; failed = 0; problems = []; metrics = []; notes = [] }

let metric t name unit_ value = t.metrics <- { name; unit_; value } :: t.metrics
let note t key value = t.notes <- (key, value) :: t.notes
let problem t msg = t.problems <- msg :: t.problems

let count t ~attempted ~failed =
  t.attempted <- t.attempted + attempted;
  t.failed <- t.failed + failed

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let percentile (a : float array) q =
  if Array.length a = 0 then Float.nan
  else begin
    let s = Array.copy a in
    Array.sort compare s;
    Ics_prelude.Stats.percentile s q
  end

(* Median of a sample; 0 for none. *)
let median l = if l = [] then 0.0 else percentile (Array.of_list l) 0.5

let mean (a : float array) =
  if Array.length a = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

(* Latency of a run measured in windows (simulator iterations or live
   clusters): the p50 is the median over the windows of each window's
   median, so one disturbed window cannot move it.  The tail is printed,
   not gated: on a small shared host the live p95 moved by more than any
   usable bound between runs of one commit. *)
let latency t (windows : float array list) =
  let windows = List.filter (fun a -> Array.length a > 0) windows in
  let over q = median (List.map (fun a -> percentile a q) windows) in
  metric t "latency_p50_ms" "ms" (over 0.5);
  note t "latency_p95_ms (not gated)" (Printf.sprintf "%.4f" (over 0.95));
  let pooled = Array.concat windows in
  note t "latency_pooled_p95_ms (not gated)" (Printf.sprintf "%.4f" (percentile pooled 0.95));
  note t "latency_pooled_p99_ms (not gated)" (Printf.sprintf "%.4f" (percentile pooled 0.99));
  note t "latency_samples"
    (Printf.sprintf "%d in %d windows" (Array.length pooled) (List.length windows))

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Full precision, and never a token JSON cannot carry. *)
let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_metrics t =
  String.concat ", "
    (List.rev_map
       (fun m ->
         Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
           (json_float m.value) (json_string m.unit_))
       t.metrics)

let correct t = t.problems = [] && t.failed = 0 && t.attempted > 0

let summary_line t =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (correct t) t.attempted t.failed (json_metrics t)

(* Host description: core count, compiler, and the commit when the
   checkout is a git work tree ("unknown" otherwise). *)
let host ~commit =
  [
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", Sys.ocaml_version);
    ("commit", commit);
    ("os", Sys.os_type);
  ]

let results_dir = Filename.concat "perfbench" "results"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_record t ~commit =
  mkdir_p results_dir;
  let path =
    Filename.concat results_dir
      (Printf.sprintf "%s-seed%d-trace%d.json" t.workload t.seed (if t.trace then 1 else 0))
  in
  let obj kvs =
    "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) kvs) ^ "}"
  in
  let strings kvs = obj (List.map (fun (k, v) -> (k, json_string v)) kvs) in
  let oc = open_out path in
  output_string oc
    (obj
       [
         ("workload", json_string t.workload);
         ("seed", string_of_int t.seed);
         ("trace", string_of_int (if t.trace then 1 else 0));
         ("host", strings (host ~commit));
         ("correct", string_of_bool (correct t));
         ("attempted", string_of_int t.attempted);
         ("failed", string_of_int t.failed);
         ( "failed_share",
           json_float (float_of_int t.failed /. float_of_int (max 1 t.attempted)) );
         ("problems", "[" ^ String.concat ", " (List.rev_map json_string t.problems) ^ "]");
         ("metrics", "{" ^ json_metrics t ^ "}");
         ("notes", strings (List.rev t.notes));
         ( "unmeasured",
           "["
           ^ String.concat ", " (List.map json_string [ "node RSS"; "frames per write(2)" ])
           ^ "]" );
       ]);
  output_char oc '\n';
  close_out oc;
  path

(* Human-readable lines first, the JSON summary last. *)
let print t ~commit =
  List.iter (fun (k, v) -> Printf.printf "host %s: %s\n" k v) (host ~commit);
  List.iter (fun (k, v) -> Printf.printf "%s: %s\n" k v) (List.rev t.notes);
  List.iter
    (fun m -> Printf.printf "%-40s %14.6g %s\n" m.name m.value m.unit_)
    (List.rev t.metrics);
  List.iter (fun p -> Printf.printf "PROBLEM: %s\n" p) (List.rev t.problems);
  Printf.printf "failed_share: %.6f (%d of %d)\n"
    (float_of_int t.failed /. float_of_int (max 1 t.attempted))
    t.failed t.attempted;
  Printf.printf "record: %s\n" (write_record t ~commit);
  print_endline (summary_line t)
