(* Workloads and one benchmark cell: a fresh structure for one scheme,
   prefilled and driven by two workers for a fixed window, then
   checked. *)

open Pop_runtime
open Pop_harness

(* A fresh histogram holding the samples of [hs]. *)
let merged hs =
  let m = Histogram.create () in
  List.iter (fun src -> Histogram.merge_into m ~src) hs;
  m

type mix = Set_ops of Workload.mix | Kv_ops of Workload.kv_mix

type workload = {
  name : string;
  ds : Dispatch.ds_kind;
  key_range : int;
  mix : mix;
  theta : float;  (** Zipf skew of keys; 0 = uniform. *)
  rate : float;  (** Open-loop arrivals per second, all workers; 0 = closed loop. *)
  window_ns : int;
      (** Latency quantiles and throughput are taken per worker and
          window of this length and reported over all of a run's
          worker-windows, so a host stall (several ms on a
          2-core VM) moves one window, not the run. At least as long as
          one worker's interval between reclamation passes, so every
          window holds pass activity. *)
  tail_pct : float;
      (** The percentile behind [tail_us]: the highest of p99, p99.9
          and p99.99 that leaves ten samples beyond it in the smallest
          window (printed as [tail_beyond_min]). *)
  rounds : int;
      (** Cells per scheme in one run. Cheap set-ups get more: the POP
          schemes on list-read run either ~0.15 or ~0.35 Mops depending
          on the cell, and only many cells give a steady median. *)
}

(* list-read is not in BENCHMARK.json: its POP cells run in one of two
   modes (~0.15 or ~0.35 Mops; EBR always ~0.35), so its POP metrics
   spread 0.2-0.4 between runs, past any allowed bound. It stays here,
   runnable by name, for the change that removes the slow mode. *)
let workloads =
  [
    {
      name = "list-read";
      ds = Dispatch.HML;
      key_range = 512;
      mix = Set_ops Workload.read_heavy;
      theta = 0.0;
      rate = 0.0;
      window_ns = 160_000_000;
      tail_pct = 0.99;
      rounds = 15;
    };
    {
      name = "table-churn";
      ds = Dispatch.HMHT;
      key_range = 1 lsl 18;
      mix = Set_ops Workload.update_heavy;
      theta = 0.0;
      rate = 0.0;
      window_ns = 40_000_000;
      tail_pct = 0.99;
      rounds = 10;
    };
    {
      name = "kv-zipf";
      ds = Dispatch.DGT;
      key_range = 1 lsl 16;
      mix = Kv_ops Workload.kv_default;
      theta = 0.99;
      rate = 100_000.0;
      window_ns = 250_000_000;
      tail_pct = 0.999;
      rounds = 10;
    };
  ]

(* The paper's three POP algorithms and EBR, the speed target. *)
let schemes = Dispatch.[ EPOCHPOP; HPPOP; HEPOP; EBR ]

let workers = 2

(* The SET exactly as [Dispatch.set_module] builds it, or the same
   structure over the traced scheme. *)
let set_module ~traced ds smr : (module Pop_ds.Set_intf.SET) =
  if not traced then Dispatch.set_module ds smr
  else
    let (module Raw) = Dispatch.smr_module smr in
    let module T = Pop_core.Smr_typed.Of (Traced.Make (Raw)) in
    match ds with
    | Dispatch.HML -> (module Pop_ds.Hm_list.Make (T))
    | LL -> (module Pop_ds.Lazy_list.Make (T))
    | HMHT -> (module Pop_ds.Hash_table.Make (T))
    | DGT -> (module Pop_ds.Ext_bst.Make (T))
    | ABT -> (module Pop_ds.Ab_tree.Make (T))
    | SL -> (module Pop_ds.Skip_list.Make (T))

(* Op streams: one int per op, [key lsl 2 lor kind]. Set mixes use
   kind 0 contains / 1 insert / 2 delete; KV mixes 0 get / 1 set /
   2 cas / 3 remove. A closed-loop worker cycles through its stream. *)
let stream_len = 1 lsl 18

let worker_rng ~seed ~tid ~salt = Rng.make ((seed * 1_000_003) + (7919 * (tid + 1)) + salt)

let gen_stream w ~seed ~tid =
  let rng = worker_rng ~seed ~tid ~salt:0 in
  let key_range = w.key_range in
  match w.mix with
  | Set_ops m ->
      Array.init stream_len (fun _ ->
          match Workload.gen rng m ~key_range with
          | Workload.Contains k -> k lsl 2
          | Insert k -> (k lsl 2) lor 1
          | Delete k -> (k lsl 2) lor 2)
  | Kv_ops m ->
      let kg = Workload.keygen ~key_range ~theta:w.theta in
      Array.init stream_len (fun _ ->
          match Workload.gen_kv rng m kg ~key_range with
          | Workload.Get k -> k lsl 2
          | Set k -> (k lsl 2) lor 1
          | Cas k -> (k lsl 2) lor 2
          | Remove k -> (k lsl 2) lor 3)

(* One worker's Poisson arrival schedule: due times in ns from the
   start of the window, up to [dur_ns]. *)
let gen_arrivals w ~seed ~tid ~dur_ns =
  let rng = worker_rng ~seed ~tid ~salt:1 in
  let rate = w.rate /. float_of_int workers in
  let acc = ref [] and t = ref 0.0 in
  let fin = float_of_int dur_ns *. 1e-9 in
  let continue = ref true in
  while !continue do
    t := !t +. Workload.exp_interval rng ~rate;
    if !t < fin then acc := int_of_float (!t *. 1e9) :: !acc else continue := false
  done;
  Array.of_list (List.rev !acc)

type spans = { count : int array; sum : int array; self_sum : int }

(* Rank of the [q] quantile in [n] samples (1-based), and the samples
   above it. *)
let rank n q = max 1 (min n (int_of_float (Float.ceil (q *. float_of_int n))))

let beyond n q = if n = 0 then 0 else n - rank n q

(* The tail rule: the highest of p99, p99.9 and p99.99 that leaves at
   least ten samples beyond it in [n]. *)
let tail_q n =
  List.find_opt (fun q -> beyond n q >= 10) [ 0.9999; 0.999; 0.99 ] |> Option.value ~default:0.99

type result = {
  scheme : Dispatch.smr_kind;
  traced : bool;
  setup_s : float;
  ops : int;  (** Workload ops completed. *)
  unserved : int;  (** Open-loop arrivals abandoned (a saturated scheme). *)
  elapsed_s : float;  (** Longest worker window. *)
  windows : Histogram.t array;
      (** Latency per worker and window ([window * workers + tid]), an
          op counted in the window of its due time (open loop) or start
          time (closed loop). *)
  window_mops : float array;
      (** Ops of both workers completed per window, by completion
          time. *)
  window_garbage : int array;
      (** Highest unreclaimed-node count either worker sampled in each
          window, -1 for a window without samples. *)
  late_p99_ns : float;  (** Generator lateness p99; 0 in a closed loop. *)
  upd_att : int;
  upd_ok : int;
  minor_words : float;
  minor_gcs : int;
  stats0 : Pop_core.Smr_stats.t;  (** After prefill. *)
  stats1 : Pop_core.Smr_stats.t;  (** At the end of the window. *)
  spans : spans option;  (** Summed over workers (traced cells). *)
  verified : int;  (** Sampled ops whose spans passed {!Span.verify}. *)
  retire_lat : Histogram.t;  (** Retire spans of both workers (traced cells). *)
  failure : string option;
}

type tally = {
  t_ops : int;
  t_unserved : int;
  t_elapsed : int;
  t_net : int;
  t_att : int;
  t_ok : int;
  t_minor_words : float;
  t_spans : spans option;
  t_lat : Histogram.t array;  (** Per-op latency, per window. *)
  t_done : int array;  (** Ops completed per window. *)
  t_garbage : int array;  (** Highest sampled unreclaimed count per window. *)
  t_late : Histogram.t;  (** Generator lateness. *)
}

let fi = float_of_int

(* A worker samples the unreclaimed-node count after every
   [garbage_every]-th op: about every 0.3 ms on table-churn and 1.3 ms
   on kv-zipf, against a pass per worker every ~4 ms and ~170 ms. *)
let garbage_every = 64

let spin_until f =
  while not (f ()) do
    Domain.cpu_relax ()
  done

(* [limit]: ops per worker before stopping ([max_int] in timed cells).
   [dur_ns]: the timed window ([max_int] with a [limit]). The arrival
   schedule applies only to timed cells of open-loop workloads. *)
let run w scheme ~traced ~seed ~nworkers ~dur_ns ~limit =
  let (module S) = set_module ~traced w.ds scheme in
  let t_setup = Span.now () in
  let hub = Softsignal.create ~max_threads:(workers + 1) in
  let cfg = Pop_core.Smr_config.default ~max_threads:(workers + 1) () in
  let set = S.create cfg (Pop_ds.Ds_config.default ~key_range:w.key_range) ~hub in
  let pctx = S.register set ~tid:workers in
  let prefill =
    List.fold_left
      (fun n k -> if S.insert pctx k then n + 1 else n)
      0
      (Workload.prefill_keys ~key_range:w.key_range)
  in
  S.flush pctx;
  S.deregister pctx;
  let open_loop = w.rate > 0.0 && limit = max_int in
  let nwin = if dur_ns = max_int then 1 else max 1 (dur_ns / w.window_ns) in
  let win_ns = if dur_ns = max_int then max_int else dur_ns / nwin in
  let streams = Array.init nworkers (fun tid -> gen_stream w ~seed ~tid) in
  let arrivals =
    Array.init nworkers (fun tid ->
        if open_loop then gen_arrivals w ~seed ~tid ~dur_ns else [||])
  in
  let setup_s = float_of_int (Span.now () - t_setup) *. 1e-9 in
  (* Cell isolation, as in [Runner.run]: the previous cell's and the
     prefill's GC debt is not billed to this window. *)
  Gc.compact ();
  let stats0 = S.smr_stats set in
  let ready = Atomic.make 0 and go = Atomic.make 0 in
  let finished = Atomic.make 0 and snapped = Atomic.make false in
  let stats1 = ref stats0 and minor_gcs = ref 0 in
  let kv = match w.mix with Kv_ops _ -> true | Set_ops _ -> false in
  let worker tid () =
    (* Everything a worker writes per op is allocated here, by its own
       domain, so the two workers never share a cache line of it. *)
    if traced then Span.bufs.(tid) <- Span.create ();
    let ctx = S.register set ~tid in
    let ops = streams.(tid) and arr = arrivals.(tid) in
    let mask = stream_len - 1 in
    let lat = Array.init nwin (fun _ -> Histogram.create ()) and late = Histogram.create () in
    let done_ = Array.make nwin 0 in
    let garbage = Array.make nwin (-1) in
    let buf = Span.bufs.(tid) in
    let net = ref 0 and att = ref 0 and ok = ref 0 in
    let upd r =
      incr att;
      if r then incr ok;
      r
    in
    let root id f k =
      if traced then begin
        Span.op_begin buf id;
        let r = f ctx k in
        Span.op_end buf;
        r
      end
      else f ctx k
    in
    let exec id code =
      let k = code lsr 2 in
      match code land 3 with
      | 0 -> ignore (root id S.contains k)
      | 1 -> if upd (root id S.insert k) then incr net
      | 2 when kv ->
          (* Cas over a SET, as in [Runner.run]: replace if present
             (delete + insert), else insert. *)
          if root id S.contains k then begin
            if upd (root id S.delete k) then decr net;
            if upd (root id S.insert k) then incr net
          end
          else if upd (root id S.insert k) then incr net
      | _ -> if upd (root id S.delete k) then decr net
    in
    Atomic.incr ready;
    spin_until (fun () -> Atomic.get go <> 0);
    let t_start = Atomic.get go in
    spin_until (fun () -> Span.now () >= t_start);
    let mw0 = Gc.minor_words () in
    let mg0 = if tid = 0 then (Gc.quick_stat ()).minor_collections else 0 in
    let i = ref 0 and t = ref t_start in
    let unserved = ref 0 in
    let first_edge = if win_ns = max_int then max_int else t_start + win_ns in
    (* Latency goes to the window of [at], the last window taking what
       comes after it; a completion at [t1] counts in its own window,
       and none after the last. Both times only grow. *)
    let win = ref 0 and edge = ref first_edge in
    let cwin = ref 0 and cedge = ref first_edge in
    let record ~at ~t1 ns =
      while at >= !edge && !win < nwin - 1 do
        incr win;
        edge := !edge + win_ns
      done;
      Histogram.record (Array.unsafe_get lat !win) ns;
      while t1 >= !cedge && !cwin < nwin do
        incr cwin;
        cedge := !cedge + win_ns
      done;
      if !cwin < nwin then done_.(!cwin) <- done_.(!cwin) + 1
    in
    let sample_garbage () =
      if !i land (garbage_every - 1) = 0 && !cwin < nwin then begin
        let g = (S.smr_stats set).unreclaimed in
        if g > garbage.(!cwin) then garbage.(!cwin) <- g
      end
    in
    if open_loop then begin
      let n = Array.length arr and abandon = t_start + (5 * dur_ns) in
      while !i < n && !t < abandon do
        let due = t_start + Array.unsafe_get arr !i in
        let t0 = Span.now () in
        if t0 < due then begin
          (* Ahead of schedule: spin, serving pings, until due. *)
          let tt = ref t0 in
          while !tt < due do
            S.poll ctx;
            Domain.cpu_relax ();
            tt := Span.now ()
          done;
          Histogram.record late (!tt - due)
        end;
        exec !i (Array.unsafe_get ops (!i land mask));
        let t1 = Span.now () in
        (* Latency from the op's due time: queueing counts. *)
        record ~at:due ~t1 (t1 - due);
        sample_garbage ();
        S.poll ctx;
        t := t1;
        incr i
      done;
      unserved := n - !i
    end
    else begin
      let deadline = if dur_ns = max_int then max_int else t_start + dur_ns in
      while !t < deadline && !i < limit do
        let t0 = Span.now () in
        exec !i (Array.unsafe_get ops (!i land mask));
        let t1 = Span.now () in
        record ~at:t0 ~t1 (t1 - t0);
        sample_garbage ();
        S.poll ctx;
        t := t1;
        incr i
      done
    end;
    let mw1 = Gc.minor_words () in
    let spans =
      if traced then
        Some { count = Array.copy buf.count; sum = Array.copy buf.sum; self_sum = buf.self_sum }
      else None
    in
    (* End barrier: counters are read once both windows have closed and
       before any flush runs a pass of its own. *)
    Atomic.incr finished;
    while Atomic.get finished < nworkers do
      S.poll ctx;
      Domain.cpu_relax ()
    done;
    if tid = 0 then begin
      stats1 := S.smr_stats set;
      minor_gcs := (Gc.quick_stat ()).minor_collections - mg0;
      Atomic.set snapped true
    end
    else
      while not (Atomic.get snapped) do
        S.poll ctx;
        Domain.cpu_relax ()
      done;
    S.flush ctx;
    S.deregister ctx;
    {
      t_ops = !i;
      t_unserved = !unserved;
      t_elapsed = !t - t_start;
      t_net = !net;
      t_att = !att;
      t_ok = !ok;
      t_minor_words = mw1 -. mw0;
      t_spans = spans;
      t_lat = lat;
      t_done = done_;
      t_garbage = garbage;
      t_late = late;
    }
  in
  (* Worker 0 runs on the main domain. A domain blocked in
     [Domain.join] still takes part in every stop-the-world minor
     collection through its backup thread, which must first win a core
     from the two spinning workers: on a 2-core host that put
     millisecond stalls into about 1% of open-loop ops. *)
  let others = Array.init (nworkers - 1) (fun i -> Domain.spawn (worker (i + 1))) in
  while Atomic.get ready < nworkers - 1 do
    Domain.cpu_relax ()
  done;
  Atomic.set go (Span.now () + 1_000_000);
  let first = worker 0 () in
  let tallies = Array.append [| first |] (Array.map Domain.join others) in
  let sum f = Array.fold_left (fun a t -> a + f t) 0 tallies in
  let net = sum (fun t -> t.t_net) in
  let failures = ref [] in
  let fail msg = failures := msg :: !failures in
  let size = S.size_seq set and expected = prefill + net in
  if size <> expected then fail (Printf.sprintf "final size %d, expected %d" size expected);
  (match S.check_invariants set with () -> () | exception Failure m -> fail ("invariants: " ^ m));
  let rec ascending = function a :: (b :: _ as r) -> a < b && ascending r | _ -> true in
  if not (ascending (S.keys_seq set)) then fail "keys_seq not sorted";
  if S.heap_uaf set > 0 then fail (Printf.sprintf "heap_uaf %d" (S.heap_uaf set));
  if S.heap_double_free set > 0 then
    fail (Printf.sprintf "heap_double_free %d" (S.heap_double_free set));
  let verified = ref 0 in
  let spans =
    if not traced then None
    else begin
      let count = Array.make Span.kinds 0 and sum_ns = Array.make Span.kinds 0 in
      let self = ref 0 in
      Array.iter
        (fun t ->
          Option.iter
            (fun (s : spans) ->
              Array.iteri (fun k c -> count.(k) <- count.(k) + c) s.count;
              Array.iteri (fun k c -> sum_ns.(k) <- sum_ns.(k) + c) s.sum;
              self := !self + s.self_sum)
            t.t_spans)
        tallies;
      for tid = 0 to nworkers - 1 do
        let ok, bad = Span.verify Span.bufs.(tid) in
        verified := !verified + ok;
        if bad > 0 then
          fail (Printf.sprintf "trace: %d sampled ops whose spans do not add up" bad)
      done;
      Some { count; sum = sum_ns; self_sum = !self }
    end
  in
  let windows = Array.init (nwin * nworkers) (fun j -> tallies.(j mod nworkers).t_lat.(j / nworkers)) in
  let window_mops =
    Array.init nwin (fun i -> fi (sum (fun t -> t.t_done.(i))) /. (fi win_ns *. 1e-3))
  in
  let window_garbage =
    Array.init nwin (fun i -> Array.fold_left (fun a t -> max a t.t_garbage.(i)) (-1) tallies)
  in
  let late = merged (List.init nworkers (fun tid -> tallies.(tid).t_late)) in
  let rlat =
    merged (if traced then List.init nworkers (fun tid -> Span.bufs.(tid).retire_lat) else [])
  in
  {
    scheme;
    traced;
    setup_s;
    ops = sum (fun t -> t.t_ops);
    unserved = sum (fun t -> t.t_unserved);
    elapsed_s = float_of_int (Array.fold_left (fun a t -> max a t.t_elapsed) 0 tallies) *. 1e-9;
    windows;
    window_mops;
    window_garbage;
    late_p99_ns =
      (if not open_loop then 0.0
       else if Histogram.count late = 0 then Float.nan
       else fi (Histogram.quantile late 0.99));
    upd_att = sum (fun t -> t.t_att);
    upd_ok = sum (fun t -> t.t_ok);
    minor_words = Array.fold_left (fun a t -> a +. t.t_minor_words) 0.0 tallies;
    minor_gcs = !minor_gcs;
    stats0;
    stats1 = !stats1;
    spans;
    verified = !verified;
    retire_lat = rlat;
    failure = (match !failures with [] -> None | l -> Some (String.concat "; " (List.rev l)));
  }
