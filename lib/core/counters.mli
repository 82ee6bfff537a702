(** Per-thread statistic counters shared by all SMR implementations: one
    {!Pop_runtime.Striped} row per {!counter}, read by {!snapshot}. *)

(** Each constructor is named after the {!Smr_stats.t} field it feeds
    (see there for what it counts), except the two occupancy gauges.
    The [Max_*] counters keep the largest value bumped; every other
    counter sums. *)
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
      (** Gauge: segment-block slots in service (negative bumps when a
          block leaves service). With [Seg_nodes] it yields
          [segment_occupancy]. *)
  | Seg_nodes  (** Gauge: retired nodes held in segment blocks. *)
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

type t

val create : int -> t
(** [create max_threads]. *)

val bump : t -> counter -> tid:int -> int -> unit
(** [bump t k ~tid n] adds [n] to [tid]'s slot of [k], or, for a
    [Max_*] counter, raises that slot to [n] if [n] is larger. A
    [Max_*] slot must only be bumped by [tid] itself (single-writer, so
    no CAS loop). [n = 0] is a no-op and costs no atomic RMW. *)

val unreclaimed : t -> int
(** Retired minus freed, racily summed. *)

val note_unreclaimed : t -> tid:int -> unit
(** Bump [Max_unreclaimed] with the racy {!unreclaimed} sum. Call at
    the entry of each of [tid]'s reclamation passes. *)

val snapshot :
  ?hs:Handshake.t ->
  ?heap:'a Pop_sim.Heap.t ->
  t ->
  hub:Pop_runtime.Softsignal.t ->
  epoch:int ->
  Smr_stats.t
(** [?hs] supplies the handshake whose failure-detector counters
    ([suspects]/[quarantine_rounds]) the snapshot should report; omit it
    for schemes without a ping round (the fields read 0). [?heap]
    supplies the simulated heap whose allocator hand-off counters
    ([block_grabs]/[block_returns]/[pool_blocks]) the snapshot should
    report; every scheme passes its own heap here. *)
