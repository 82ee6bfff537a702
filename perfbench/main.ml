(* The repository's benchmark: the paper's three POP schemes and EBR on
   three workloads, end to end (tracing off) and per layer (tracing on).

   main.exe --workload list-read|table-churn|kv-zipf --seed N
            --seconds S --trace 0|1
   main.exe --self-test

   One run measures [--seconds] in total: the workload's rounds, each
   running every scheme once (and, traced, once more with the traced
   scheme) in an order that rotates from round to round, so host drift
   hits all schemes alike. Each cell gets a fresh structure, and each
   round its own op streams and arrivals, derived from [--seed] and the
   round. Throughput and latency quantiles are taken per window
   (latency per worker) and reported as the mean of the middle half of
   a scheme's windows (the tail: their median); end to end, a POP
   scheme's p50 is reported over EBR's. Set-up time is the median over
   rounds, and peak garbage the median over windows of the highest
   unreclaimed count sampled in the window.
   The last line of standard output is the result object; the line
   before it is the provenance. Normally run through run.py, which
   builds this program and checks the metric names against
   BENCHMARK.json. *)

open Pop_runtime
open Pop_harness

let pop_schemes = Dispatch.[ EPOCHPOP; HPPOP; HEPOP ]

let sname = Dispatch.smr_name

(* Empty inputs and zero denominators give nan, which prints as null
   and fails the run's check: a broken cell must not read as the best
   result. *)
let median = function
  | [] -> Float.nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b = 0.0 then Float.nan else a /. b

let fi = float_of_int

(* The seed of round [r]'s inputs: a scheme's cells each get their own
   op streams, not one stream over and over. A cell's garbage depends
   on its stream (he-pop's whole-cell peak on kv-zipf: ~1300 nodes for
   one seed, ~1650 for another, on every rerun), so a single stream
   made a run's figure a property of the seed. *)
let round_seed seed r = Hashtbl.hash (seed, r)

let rotate r l =
  let n = List.length l in
  List.init n (fun i -> List.nth l ((i + r) mod n))

let stat (s : Pop_core.Smr_stats.t) name = List.assoc name (Pop_core.Smr_stats.to_alist s)

let delta (c : Cell.result) name = fi (stat c.stats1 name - stat c.stats0 name)

let mops (c : Cell.result) = fi c.ops /. c.elapsed_s /. 1e6

let json_num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let json_str s = Printf.sprintf "%S" s

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_str k ^ ": " ^ v) fields) ^ "}"

(* Span dump of the first round's traced cells: one line per recorded
   span of a sampled op (monotonic ns); an op's children precede it. *)
let dump_spans oc (c : Cell.result) =
  for tid = 0 to Cell.workers - 1 do
    let b = Span.bufs.(tid) in
    for r = 0 to b.nrec - 1 do
      let at k = b.recs.((4 * r) + k) in
      Printf.fprintf oc "%s\t%d\t%d\t%s\t%d\t%d\n" (sname c.scheme) tid (at 0)
        Span.kind_name.(at 1) (at 2) (at 3)
    done
  done

let mix_string (w : Cell.workload) =
  match w.mix with
  | Cell.Set_ops m ->
      Printf.sprintf "%d insert / %d delete / %d contains" m.ins_pct m.del_pct
        (100 - m.ins_pct - m.del_pct)
  | Kv_ops m ->
      Printf.sprintf "%d get / %d set / %d cas / %d remove" m.get_pct m.set_pct m.cas_pct
        (100 - m.get_pct - m.set_pct - m.cas_pct)

(* Where traced runs write the sampled spans, relative to the working
   directory. *)
let out_dir = ".perfbench_out"

(* Quantile [q] of a non-empty histogram, in microseconds. *)
let q_us q h = fi (Histogram.quantile h q) /. 1e3

let nonempty hs = List.filter (fun h -> Histogram.count h > 0) hs

let mean = function [] -> Float.nan | xs -> List.fold_left ( +. ) 0.0 xs /. fi (List.length xs)

(* The mean of the middle half: as robust as the median to the windows
   a host stall wrecks, and it does not snap to one histogram bucket
   bound (6.25% apart) the way a median of bucket bounds does. *)
let midmean xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  mean (Array.to_list (Array.sub a (n / 4) (n - (2 * (n / 4)))))

(* The garbage peaks of a cell's windows that hold samples. *)
let window_peaks (c : Cell.result) =
  List.filter_map (fun g -> if g >= 0 then Some (fi g) else None) (Array.to_list c.window_garbage)

let run_workload (w : Cell.workload) ~seed ~seconds ~trace =
  let rounds = w.rounds in
  (* Traced runs pair every untraced cell with a traced one, in
     alternating order. *)
  let modes r =
    if not trace then [ false ] else if r mod 2 = 0 then [ false; true ] else [ true; false ]
  in
  let cells_per_round = List.length Cell.schemes * List.length (modes 0) in
  let dur_ns = int_of_float (seconds *. 1e9) / (rounds * cells_per_round) in
  let span_ns = if trace then Span.calibrate () else 0.0 in
  let dump =
    if trace then begin
      (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
      let oc = open_out (Filename.concat out_dir (w.name ^ ".spans.tsv")) in
      output_string oc "scheme\ttid\top_id\tkind\tstart_ns\tend_ns\n";
      Some oc
    end
    else None
  in
  let results = ref [] in
  for r = 0 to rounds - 1 do
    List.iter
      (fun s ->
        List.iter
          (fun traced ->
            let c =
              Cell.run w s ~traced ~seed:(round_seed seed r) ~nworkers:Cell.workers ~dur_ns
                ~limit:max_int
            in
            let ws = nonempty (Array.to_list c.windows) in
            let wmed q = median (List.map (q_us q) ws) in
            Printf.eprintf
              "%s r%d %-9s %s setup %.3fs  %.4f Mops  p50 %.2fus  tail %.2fus  max %.2fus  peak %d  window peak %.0f%s\n%!"
              w.name r (sname s)
              (if traced then "traced  " else "untraced")
              c.setup_s (mops c)
              (wmed 0.5) (wmed w.tail_pct)
              (List.fold_left (fun a h -> Float.max a (q_us 1.0 h)) 0.0 ws)
              c.stats1.Pop_core.Smr_stats.max_unreclaimed
              (median (window_peaks c))
              (match c.failure with None -> "" | Some m -> "  FAILED: " ^ m);
            (match dump with Some oc when traced && r = 0 -> dump_spans oc c | _ -> ());
            results := (r, c) :: !results)
          (modes r))
      (rotate r Cell.schemes)
  done;
  Option.iter close_out dump;
  let results = List.rev !results in
  let cells s traced =
    List.filter_map
      (fun (_, (c : Cell.result)) -> if c.scheme = s && c.traced = traced then Some c else None)
      results
  in
  let med f s = median (List.map f (cells s false)) in
  (* The non-empty worker-windows of the scheme's untraced cells. *)
  let wins s =
    nonempty (List.concat_map (fun (c : Cell.result) -> Array.to_list c.windows) (cells s false))
  in
  let p50_us s = midmean (List.map (q_us 0.5) (wins s)) in
  let tail_us s = median (List.map (q_us w.tail_pct) (wins s)) in
  let late_us s = med (fun c -> c.late_p99_ns /. 1e3) s in
  let peak_garbage s = median (List.concat_map window_peaks (cells s false)) in
  let metrics = ref [] in
  let add name unit v = metrics := (name, unit, v) :: !metrics in
  if not trace then begin
    add "setup_s" "s"
      (median
         (List.init rounds (fun r ->
              List.fold_left
                (fun a (r', (c : Cell.result)) -> if r' = r then a +. c.setup_s else a)
                0.0 results)));
    (* Mid-mean over the windows of all cells: a window the host stalled
       completes fewer ops, and in noisy phases stalls take a large share
       of a whole cell. Ops count in the window they complete in, so on
       the open loop a scheme that falls behind its arrivals shows. *)
    List.iter
      (fun s ->
        add ("mops." ^ sname s) "Mops"
          (midmean
             (List.concat_map (fun (c : Cell.result) -> Array.to_list c.window_mops) (cells s false))))
      Cell.schemes;
    (* A POP scheme's median latency over EBR's in the same run. The
       absolute p50 on kv-zipf follows the host: an open-loop dgt op is
       a chain of cache misses whose cost drifts by 10-20% over minutes
       on a shared host, for all schemes together, so the absolute
       figure's quartiles over ten runs lay up to 0.26 of the median
       apart, against 0.03-0.05 for this ratio. The absolute p50s are
       per-layer metrics. *)
    List.iter
      (fun s -> add ("p50_over_ebr." ^ sname s) "ratio" (ratio (p50_us s) (p50_us Dispatch.EBR)))
      pop_schemes;
    (* Median over windows of the window's peak. A cell's own peak
       follows the one longest stall of the cell: he-pop's cells on
       table-churn peaked anywhere from 2200 to 7900 nodes, and the
       mid-mean over ten cells spread 0.11-0.18 between runs, against
       0.06 for this median. The whole-cell peak is a per-layer
       metric. *)
    List.iter (fun s -> add ("peak_garbage." ^ sname s) "nodes" (peak_garbage s)) pop_schemes
  end
  else begin
    let total f cs = List.fold_left (fun a c -> a +. f c) 0.0 cs in
    let all_cells = List.map snd results in
    add "ds.update_success" "ratio"
      (ratio
         (total (fun (c : Cell.result) -> fi c.upd_ok) all_cells)
         (total (fun (c : Cell.result) -> fi c.upd_att) all_cells));
    add "trace.span_ns" "ns" span_ns;
    List.iter
      (fun s ->
        let n = sname s in
        let tc = cells s true and uc = cells s false in
        (* Span figures from the traced cells. *)
        let k_count k = total (fun (c : Cell.result) -> fi (Option.get c.spans).count.(k)) tc in
        let k_sum k = total (fun (c : Cell.result) -> fi (Option.get c.spans).sum.(k)) tc in
        let t_ops = total (fun (c : Cell.result) -> fi c.ops) tc in
        let mean_ns k = Float.max 0.0 (ratio (k_sum k) (k_count k) -. span_ns) in
        add ("ds.op_ns." ^ n) "ns" (ratio (k_sum Span.op) (k_count Span.op));
        let self_sum = total (fun (c : Cell.result) -> fi (Option.get c.spans).self_sum) tc in
        add ("ds.self_ns." ^ n) "ns" (ratio self_sum (k_count Span.op));
        add ("smr.reads_per_op." ^ n) "count" (ratio (k_count Span.read) t_ops);
        add ("smr.read_ns." ^ n) "ns" (mean_ns Span.read);
        add ("smr.checks_per_op." ^ n) "count" (ratio (k_count Span.check) t_ops);
        add ("smr.check_ns." ^ n) "ns" (mean_ns Span.check);
        add ("smr.bracket_ns." ^ n) "ns"
          (Float.max 0.0
             (ratio (k_sum Span.start_op +. k_sum Span.end_op) (k_count Span.start_op)
             -. (2.0 *. span_ns)));
        add ("smr.alloc_ns." ^ n) "ns" (mean_ns Span.alloc);
        add ("smr.allocs_per_op." ^ n) "count" (ratio (k_count Span.alloc) t_ops);
        add ("smr.retire_ns." ^ n) "ns" (mean_ns Span.retire);
        (* Over all of the scheme's traced cells: a pass runs inside
           about one retire in 500, and one kv-zipf cell holds only
           about 1500 retires, too few for a percentile that sees it. *)
        let rlat = Cell.merged (List.map (fun (c : Cell.result) -> c.retire_lat) tc) in
        let nr = Histogram.count rlat in
        add ("smr.retire_tail_ns." ^ n) "ns"
          (if nr = 0 then Float.nan else fi (Histogram.quantile rlat (Cell.tail_q nr)));
        add ("smr.poll_ns." ^ n) "ns" (mean_ns Span.poll);
        (* Counts from the untraced cells of this run. *)
        let u_kops = total (fun (c : Cell.result) -> fi c.ops) uc /. 1e3 in
        let d name = total (fun c -> delta c name) uc in
        let passes = d "reclaim_passes" +. d "pop_passes" in
        add ("heap.block_moves_per_kop." ^ n) "count/kop"
          (ratio (d "block_grabs" +. d "block_returns") u_kops);
        add ("pass.per_kop." ^ n) "count/kop" (ratio passes u_kops);
        add ("pass.frees_per_pass." ^ n) "count" (ratio (d "freed") passes);
        add ("pass.skip_ratio." ^ n) "ratio" (ratio (d "scan_skips") (passes +. d "scan_skips"));
        add ("pass.pings_per_pass." ^ n) "count" (ratio (d "pings") passes);
        add ("pass.timeouts." ^ n) "count" (d "handshake_timeouts");
        add ("signal.publishes_per_kop." ^ n) "count/kop" (ratio (d "publishes") u_kops);
        add ("gc.minor_words_per_op." ^ n) "words"
          (ratio (total (fun (c : Cell.result) -> c.minor_words) uc) (u_kops *. 1e3));
        add ("gc.minor_gcs_per_kop." ^ n) "count/kop"
          (ratio (total (fun (c : Cell.result) -> fi c.minor_gcs) uc) u_kops);
        add ("gen.late_p99_us." ^ n) "us" (late_us s);
        add ("p50_us." ^ n) "us" (p50_us s);
        add ("garbage.cell_max." ^ n) "nodes"
          (midmean (List.map (fun (c : Cell.result) -> fi c.stats1.max_unreclaimed) uc));
        (* Per layer, not end to end: on a 2-vCPU VM the host stops a
           spinning vCPU for 20-200 us hundreds of times a second and for
           milliseconds several times a second, so every window long
           enough to hold a reclamation pass also holds host stalls, and
           this tail moves 2-10x between runs of the same code. *)
        add ("tail_us." ^ n) "us" (tail_us s);
        add ("trace.overhead." ^ n) "ratio"
          (1.0 -. ratio (median (List.map mops tc)) (median (List.map mops uc))))
      Cell.schemes
  end;
  let metrics = List.rev !metrics in
  (* Lateness flag: the generator must run well inside the latency it
     measures. *)
  let worst_late = List.fold_left (fun a s -> Float.max a (late_us s)) 0.0 Cell.schemes in
  let best_p50 = List.fold_left (fun a s -> Float.min a (p50_us s)) infinity Cell.schemes in
  let late_flag = w.rate > 0.0 && worst_late > best_p50 in
  if late_flag then
    Printf.eprintf "%s: generator lateness p99 %.2fus exceeds a scheme's p50 %.2fus\n%!" w.name
      worst_late best_p50;
  let attempted = List.fold_left (fun a (_, (c : Cell.result)) -> a + c.ops + c.unserved) 0 results in
  let failed =
    List.fold_left
      (fun a (_, (c : Cell.result)) ->
        match c.failure with Some _ -> a + c.ops + c.unserved | None -> a + c.unserved)
      0 results
  in
  List.iter
    (fun (r, (c : Cell.result)) ->
      Option.iter
        (fun m ->
          Printf.eprintf "FAILED: workload %s, scheme %s, seed %d, round %d: %s\n%!" w.name
            (sname c.scheme) seed r m)
        c.failure;
      if c.unserved > 0 then
        Printf.eprintf "FAILED: workload %s, scheme %s, seed %d, round %d: %d arrivals unserved\n%!"
          w.name (sname c.scheme) seed r c.unserved)
    results;
  let samples =
    List.map
      (fun s ->
        let ws = wins s in
        let least = List.fold_left (fun a h -> min a (Histogram.count h)) max_int ws in
        ( sname s,
          json_obj
            [
              ("windows", string_of_int (List.length ws));
              ("per_window_min", string_of_int least);
              ("tail_beyond_min", string_of_int (Cell.beyond least w.tail_pct));
            ] ))
      Cell.schemes
  in
  let verified = List.fold_left (fun a (_, (c : Cell.result)) -> a + c.verified) 0 results in
  let provenance =
    [
      ("workload", json_str w.name);
      ("ds", json_str (Dispatch.ds_name w.ds));
      ("key_range", string_of_int w.key_range);
      ("mix", json_str (mix_string w));
      ("zipf_theta", json_num w.theta);
      ("loop", json_str (if w.rate > 0.0 then "open" else "closed"));
      ("rate_ops_s", json_num w.rate);
      ("tail_percentile", json_num w.tail_pct);
      ("window_s", json_num (fi w.window_ns *. 1e-9));
      ("seed", string_of_int seed);
      ("seconds", json_num seconds);
      ("rounds", string_of_int rounds);
      ("cell_seconds", json_num (fi dur_ns *. 1e-9));
      ("workers", string_of_int Cell.workers);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", json_str Sys.ocaml_version);
      ("trace", string_of_bool trace);
      ("latency_samples", json_obj samples);
      ("sampled_ops_verified", string_of_int verified);
      ("gen_late_flag", string_of_bool late_flag);
    ]
  in
  print_endline (json_obj [ ("provenance", json_obj provenance) ]);
  print_endline
    (json_obj
       [
         ("correct", string_of_bool (failed = 0));
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ( "metrics",
           json_obj
             (List.map
                (fun (name, unit, v) -> (name, json_obj [ ("value", json_num v); ("unit", json_str unit) ]))
                metrics) );
       ]);
  if failed > 0 then exit 1

(* Determinism self-test: one worker, a fixed seed and a fixed op count,
   run twice per workload and scheme; the per-op counts must repeat
   exactly. *)
let self_test () =
  let ok = ref true in
  List.iter
    (fun (w : Cell.workload) ->
      List.iter
        (fun s ->
          let limit = if w.ds = Dispatch.HML then 5_000 else 20_000 in
          let counts () =
            let c = Cell.run w s ~traced:true ~seed:20250301 ~nworkers:1 ~dur_ns:max_int ~limit in
            Option.iter
              (fun m ->
                ok := false;
                Printf.printf "self-test %s/%s: FAILED: %s\n" w.name (sname s) m)
              c.failure;
            let sp = Option.get c.spans in
            [
              ("ops", c.ops);
              ("reads", sp.count.(Span.read));
              ("checks", sp.count.(Span.check));
              ("allocs", sp.count.(Span.alloc));
              ("retires", sp.count.(Span.retire));
              ("updates_ok", c.upd_ok);
              ("updates", c.upd_att);
            ]
          in
          let a = counts () and b = counts () in
          let per k l = fi (List.assoc k l) /. fi (List.assoc "ops" l) in
          if a = b then
            Printf.printf
              "self-test %s/%s: ok (reads/op %.4f, checks/op %.4f, allocs/op %.4f, \
               retires/op %.4f, update success %.4f)\n%!"
              w.name (sname s) (per "reads" a) (per "checks" a) (per "allocs" a) (per "retires" a)
              (fi (List.assoc "updates_ok" a) /. fi (List.assoc "updates" a))
          else begin
            ok := false;
            Printf.printf "self-test %s/%s: FAILED: counts differ between two identical runs\n%!"
              w.name (sname s);
            List.iter2
              (fun (k, x) (_, y) -> if x <> y then Printf.printf "  %s: %d vs %d\n" k x y)
              a b
          end)
        Cell.schemes)
    Cell.workloads;
  if not !ok then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 and trace = ref 0 in
  let self = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME list-read | table-churn | kv-zipf");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds in total");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--self-test", Arg.Set self, " run the determinism self-test");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !self then self_test ()
  else
    match List.find_opt (fun (w : Cell.workload) -> w.name = !workload) Cell.workloads with
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
    | Some w ->
        if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
          prerr_endline "need --seconds > 0 and --trace 0|1";
          exit 2
        end;
        run_workload w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
