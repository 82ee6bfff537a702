(** The publish-counter handshake of Algorithms 1–2.

    A reclaimer snapshots every thread's publish counter
    (COLLECTPUBLISHEDCOUNTERS), pings all threads (PINGALLTOPUBLISH) and
    waits until each active peer's counter has moved
    (WAITFORALLPUBLISHED). Counters are monotonically increasing SWMR
    slots bumped by each thread's handler after it publishes, so one
    publish satisfies every reclaimer whose snapshot preceded it —
    concurrent pings coalesce exactly as the paper describes.

    The wait loop polls the waiter's own port (two reclaimers pinging
    each other must both publish) and skips peers that deregister.

    {b Divergence from the paper:} a POSIX signal interrupts its target,
    so the paper's wait provably terminates; our polled substitution can
    meet a peer that never polls (a descheduled or "deaf" thread). The
    wait is therefore bounded by a per-peer attempt budget
    ([timeout_spins], {!Smr_config.t.ping_timeout_spins}). On expiry the
    peer is reported in [timed_out] and the caller must conservatively
    treat everything that peer might hold as reserved — its racily
    readable reservation rows and/or its announced epoch — rather than
    waiting for a publish that may never come. No round that reports
    a timeout returns sooner than a fixed settle window (50 µs) after
    its pings: the POP read path reserves with plain stores, and the
    racy row read is safe only once the peer's last reservation store
    has drained from its store buffer. See DESIGN.md "Bounded
    handshake" and the per-thread layout rule for the safety argument
    and its timing assumption.

    {b Failure detector:} a peer that times out [suspect_after]
    consecutive rounds while its {!Pop_runtime.Softsignal.heartbeat}
    stays frozen is marked {e suspect} and quarantined: later rounds
    still ping it but wait only the settle window, not the spin
    budget, and report the timeout unless it acked by then (the caller
    takes the same conservative fallback, just without burning the
    spin budget against a dead port). Quarantined peers get a
    full-budget re-probe on an exponentially backed-off schedule and
    are un-quarantined as soon as they ack or their heartbeat moves —
    including when a fresh thread re-registers the slot, since
    {!Pop_runtime.Softsignal.register} bumps the heartbeat. Detection is a performance heuristic only;
    safety always rests on the conservative fallback. *)

type t

val create :
  ?timeout_spins:int ->
  ?suspect_after:int ->
  ?backoff_cap:int ->
  Pop_runtime.Softsignal.t ->
  t
(** [timeout_spins] (default 64) is the backoff-attempt budget per
    non-responsive peer; [suspect_after] (default 3) is the number of
    consecutive stale-heartbeat timeouts before a peer is quarantined;
    [backoff_cap] (default 64) caps, in handshake rounds, the
    exponential backoff between re-probes of a quarantined peer — lower
    values re-admit a recovered peer sooner at the price of more pings
    wasted on a dead one. All three are scheme-configurable via
    {!Smr_config.t} ([ping_timeout_spins], [suspect_after],
    [probe_backoff_cap]). Raises [Invalid_argument] if any is
    non-positive. With the default backoff schedule 64 attempts is
    roughly 100 ms. *)

val ack : t -> tid:int -> unit
(** Bump [tid]'s publish counter. Called from the signal handler after
    the handler's real work (publishing reservations). *)

val get : t -> int -> int

val ping_and_wait :
  t ->
  port:Pop_runtime.Softsignal.port ->
  scratch:int array ->
  timed_out:bool array ->
  int
(** Snapshot + ping + bounded wait, from the thread owning [port].
    [scratch] and [timed_out] must hold [max_threads] entries. Waits
    only for the threads the ping actually reached: threads that
    register after the ping round are excluded (like a thread spawned
    after a [pthread_kill] sweep, they cannot hold references to nodes
    retired before they existed), and threads that deregister mid-wait
    are skipped.

    Every entry of [timed_out] is (re)written: [timed_out.(tid)] is
    [true] iff [tid] was pinged, stayed active, and still had not
    published when its spin budget ran out — or was a quarantined
    suspect whose re-probe was not yet due and that had not published
    by the end of the settle window.
    Returns the number of such peers (0 = a clean round equivalent to
    the unbounded handshake). *)

val suspected : t -> int -> bool
(** Racy check whether slot [tid] is currently quarantined. A suspect's
    reported timeout means "this peer has stopped polling", not merely
    "this peer was slow this round" — schemes whose fallback quality
    depends on the distinction (e.g. EpochPOP's epoch floor, which a
    crashed peer would pin forever) may choose a different fallback for
    suspects. *)

val suspect_count : t -> int
(** Cumulative number of quarantine transitions (for stats). *)

val quarantine_round_count : t -> int
(** Cumulative number of per-peer timeouts reported after only the
    settle window, because the peer was quarantined and its re-probe
    was not yet due (for stats). *)
