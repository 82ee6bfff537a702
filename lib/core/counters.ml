open Pop_runtime

type counter =
  | Retired
  | Freed
  | Reclaim_passes
  | Pop_passes
  | Scan_skips
  | Snapshot_reuses
  | Retire_segments
  | Segments_recycled
  | Seg_slots
  | Seg_nodes
  | Max_scan_blocks
  | Restarts
  | Handshake_timeouts
  | Block_skips
  | Block_keeps
  | Stale_stamps
  | Orphans_donated
  | Orphans_adopted
  | Orphan_stripe_contention
  | Max_pause_ns
  | Max_unreclaimed

let index = function
  | Retired -> 0
  | Freed -> 1
  | Reclaim_passes -> 2
  | Pop_passes -> 3
  | Scan_skips -> 4
  | Snapshot_reuses -> 5
  | Retire_segments -> 6
  | Segments_recycled -> 7
  | Seg_slots -> 8
  | Seg_nodes -> 9
  | Max_scan_blocks -> 10
  | Restarts -> 11
  | Handshake_timeouts -> 12
  | Block_skips -> 13
  | Block_keeps -> 14
  | Stale_stamps -> 15
  | Orphans_donated -> 16
  | Orphans_adopted -> 17
  | Orphan_stripe_contention -> 18
  | Max_pause_ns -> 19
  | Max_unreclaimed -> 20

type t = Striped.t array

let create n = Array.init (index Max_unreclaimed + 1) (fun _ -> Striped.create n)

(* A [Max_*] slot is single-writer: only [tid] runs [tid]'s reclamation
   passes and scans [tid]'s buffer, so a read-compare-set max needs no
   CAS loop. Skipping [n = 0] keeps a bump that records nothing free of
   any atomic read-modify-write. *)
let bump t k ~tid n =
  if n <> 0 then
    let s = t.(index k) in
    match k with
    | Max_scan_blocks | Max_pause_ns | Max_unreclaimed ->
        if n > Striped.get s tid then Striped.set s tid n
    | _ -> Striped.add s tid n

let sum t k = Striped.sum t.(index k)

let peak t k = max 0 (Striped.max_value t.(index k))

let unreclaimed t = sum t Retired - sum t Freed

(* High-watermark of the racy retired-minus-freed sum, sampled by each
   thread at the entry of its own reclamation passes. Scan-time sampling
   is the honest choice: it is exactly when a scheme decides what it
   cannot yet free, so a stalled reservation shows up as a growing
   watermark while a healthy scheme's stays near its reclaim threshold. *)
let note_unreclaimed t ~tid = bump t Max_unreclaimed ~tid (unreclaimed t)

let snapshot ?hs ?heap t ~hub ~epoch =
  let retired = sum t Retired and freed = sum t Freed in
  let suspects, quarantine_rounds =
    match hs with
    | None -> (0, 0)
    | Some hs -> (Handshake.suspect_count hs, Handshake.quarantine_round_count hs)
  in
  let block_grabs, block_returns, pool_blocks =
    match heap with
    | None -> (0, 0, 0)
    | Some h ->
        (Pop_sim.Heap.block_grabs h, Pop_sim.Heap.block_returns h, Pop_sim.Heap.pool_blocks h)
  in
  let seg_slots = sum t Seg_slots and seg_nodes = sum t Seg_nodes in
  {
    Smr_stats.retired;
    freed;
    reclaim_passes = sum t Reclaim_passes;
    pop_passes = sum t Pop_passes;
    pings = Softsignal.pings_sent hub;
    publishes = Softsignal.handler_runs hub;
    scan_skips = sum t Scan_skips;
    snapshot_reuses = sum t Snapshot_reuses;
    retire_segments = sum t Retire_segments;
    segments_recycled = sum t Segments_recycled;
    (* Occupied fraction of the block capacity currently in service;
       0 when no scheme instance holds any segment block. *)
    segment_occupancy =
      (if seg_slots <= 0 then 0 else 100 * max 0 seg_nodes / seg_slots);
    max_scan_blocks = peak t Max_scan_blocks;
    restarts = sum t Restarts;
    handshake_timeouts = sum t Handshake_timeouts;
    suspects;
    quarantine_rounds;
    block_skips = sum t Block_skips;
    block_keeps = sum t Block_keeps;
    stale_stamps = sum t Stale_stamps;
    orphans_donated = sum t Orphans_donated;
    orphans_adopted = sum t Orphans_adopted;
    orphan_stripe_contention = sum t Orphan_stripe_contention;
    block_grabs;
    block_returns;
    pool_blocks;
    max_pause_ns = peak t Max_pause_ns;
    epoch;
    unreclaimed = retired - freed;
    (* The watermark can lag the live value (it is only refreshed at
       pass entry), so fold the snapshot-time figure in too. *)
    max_unreclaimed = max (retired - freed) (peak t Max_unreclaimed);
    violations = 0;
  }
