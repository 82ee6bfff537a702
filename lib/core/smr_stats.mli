(** Snapshot of an SMR instance's counters, for reports and tests. *)

type t = {
  retired : int;  (** Nodes handed to [retire] so far. *)
  freed : int;  (** Nodes actually returned to the heap. *)
  reclaim_passes : int;  (** Ordinary reclamation passes (epoch or scan). *)
  pop_passes : int;  (** Ping-based (publish-on-ping / membarrier /
                         neutralization) passes. *)
  scan_skips : int;
      (** Triggered passes the {!Reclaimer} answered without rescanning
          already-checked nodes (the snapshot generation was unchanged
          and no new segment had reached the threshold). Each one is a
          full seed-style pass avoided. *)
  snapshot_reuses : int;
      (** Triggered passes served from the cached sealed reservation
          snapshot instead of a fresh O(T×H) collect + sort. *)
  retire_segments : int;
      (** Fresh scan passes, each of which sealed a new checked segment
          of some thread's retire list. *)
  segments_recycled : int;
      (** Fully-freed segment blocks the {!Reclaimer} returned to its
          per-reclaimer block freelist instead of dropping to the GC —
          the BW21 analogue of {!Pop_sim.Heap}'s node pooling. *)
  segment_occupancy : int;
      (** Percentage of in-service segment-block slots currently holding
          a retired node, at snapshot time (0 for engines holding no
          blocks). Low values mean fragmentation; > 100 is impossible
          and flagged by the {!Smr_check} sanitizer. *)
  max_scan_blocks : int;
      (** The most segment blocks any single fresh pass touched (filtered
          or rescanned). This is the measurable face of the O(uncovered
          blocks) fresh-pass bound: it tracks the open suffix plus the
          [segment_rescan] quota, not the total retired population. *)
  pings : int;  (** Soft signals sent by this instance's hub. *)
  publishes : int;  (** Handler executions (reservation publishes/acks). *)
  restarts : int;  (** NBR neutralization-induced operation restarts. *)
  handshake_timeouts : int;
      (** Peers that failed to publish within the handshake's spin
          budget ({!Smr_config.t.ping_timeout_spins}); each one forced a
          reclaimer onto the conservative fallback path. *)
  suspects : int;
      (** Quarantine transitions by the {!Handshake} failure detector: a
          peer timed out {!Handshake.create}[?suspect_after] consecutive
          rounds with a frozen heartbeat and later ping rounds give it
          only the settle window (0 for schemes without a handshake). *)
  quarantine_rounds : int;
      (** Per-peer timeouts reported after only the settle window,
          because the peer was quarantined and its backed-off re-probe
          was not yet due; each one is a full [ping_timeout_spins] wait
          avoided against a dead port. *)
  block_skips : int;
      (** Whole segment blocks an era-interval fast pass freed with a
          single range probe over the block's era stamps, without
          touching any of the (up to 64) nodes inside. *)
  block_keeps : int;
      (** Whole segment blocks an era-interval fast pass kept with a
          single range probe (a reservation lies inside every node's
          lifespan), skipping the per-node keep closure entirely. *)
  stale_stamps : int;
      (** Nodes whose [birth_era]/[retire_era] fell outside their
          block's stamped interval when the engine touched them. Stamps
          must over-approximate node lifespans, so any non-zero value is
          an engine bug; the {!Smr_check} sanitizer flags it. *)
  orphans_donated : int;
      (** Retired nodes a departing thread handed to the {!Reclaimer}
          orphanage at [deregister]/final-[flush] instead of leaking. *)
  orphans_adopted : int;
      (** Orphaned nodes a surviving thread folded into its own retire
          buffer during a later scan ([= orphans_donated] at quiescence:
          the hand-off is exactly-once). *)
  orphan_stripe_contention : int;
      (** Times a donor or adopter found an orphanage stripe's lock held
          and either fell back to blocking (donor) or skipped the stripe
          (adopter). With per-donor stripes this stays near 0; the old
          single-lock orphanage would count every collision here. *)
  block_grabs : int;
      (** Whole free-node blocks threads popped from the heap's shared
          block pool (the Blelloch–Wei allocator's refill hand-off). 0
          while every thread's allocations are satisfied by its own two
          local chains; nonzero exactly when memory circulates between
          threads (producer/consumer imbalance, orphan adoption). *)
  block_returns : int;
      (** Whole free-node blocks threads pushed back to the shared pool
          (a thread's two local chains were full). Block-granularity by
          construction: [block_returns * Heap.block_size] bounds the
          shared-pool traffic the free path ever generated. *)
  pool_blocks : int;
      (** Blocks currently parked in the heap's shared pool at snapshot
          time (maintained count, racy). *)
  max_pause_ns : int;
      (** Wall-clock nanoseconds of the longest single reclamation pass
          any thread has run — the worst pause an operation can absorb
          when its retire tips the threshold. For ping-based schemes
          this includes the handshake wait (and its timeout fallback),
          which is exactly the tail the KV-workload latency SLOs are
          after. *)
  epoch : int;  (** Current global epoch (0 for non-epoch schemes). *)
  unreclaimed : int;  (** Nodes currently sitting in retire lists. *)
  max_unreclaimed : int;
      (** High-watermark of [unreclaimed], sampled at the entry of each
          reclamation pass (and again at snapshot time). This is the
          bounded-garbage score of the robustness tournament: a scheme
          that keeps reclaiming under stalls holds it near its reclaim
          threshold, while one pinned by a frozen reservation (EBR under
          a stalled reader) watches it grow with run length. *)
  violations : int;
      (** Protocol violations recorded by the {!Smr_check} sanitizer
          (always 0 when the scheme is not wrapped — see
          [--sanitize]). *)
}

val zero : t

val to_alist : t -> (string * int) list
(** Every field as a [(label, value)] row, in display order. This is the
    single record-to-rows function: [pp], [csv_header]/[csv_row] and the
    harness report tables all derive from it, and its exhaustive record
    pattern makes "stat collected but never reported" a compile error. *)

val csv_header : string
(** Comma-joined labels of {!to_alist}, for benchmark CSV output. *)

val csv_row : t -> string
(** Comma-joined values, aligned with {!csv_header}. *)

val pp : Format.formatter -> t -> unit
